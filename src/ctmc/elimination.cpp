#include "ctmc/elimination.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "obs/probe_names.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace nsrel::ctmc {

namespace {

/// The part pivots and signs are tested on: the value itself, or the
/// real part of a complex-step value (whose imaginary part is a
/// derivative, not a probability).
double re(double x) { return x; }
double re(const std::complex<double>& z) { return z.real(); }

bool finite(double x) { return std::isfinite(x); }
bool finite(const std::complex<double>& z) {
  return std::isfinite(z.real()) && std::isfinite(z.imag());
}

/// One stored jump probability b_ij of row i.
template <typename T>
struct Entry {
  std::uint32_t col = 0;
  T value{};
};

/// The embedded-jump form
///   m_i = c[i] + sum_j b[i][j] * m_j,   sum_j b[i][j] + ab[i] = 1,
/// with each row of b held as a column-sorted vector of its stored
/// entries. Every b/ab/c value is >= 0, so an entry that is absent and
/// one that holds 0.0 are interchangeable: adding an exact zero to a
/// non-negative sum is a no-op.
template <typename T>
struct JumpSystem {
  explicit JumpSystem(std::size_t n) : rows(n), ab(n, T{}), c(n, T{}) {}

  std::vector<std::vector<Entry<T>>> rows;
  std::vector<T> ab;
  std::vector<T> c;
};

/// The lean form's pivot log: keeps nothing.
struct NoLog {
  template <typename T>
  void pivot(std::uint32_t /*s*/, const T& /*d*/) {}
  template <typename T>
  void weight(std::uint32_t /*i*/, const T& /*w*/) {}
  void close(std::uint32_t /*s*/) {}
};

/// What back substitution needs that elimination drops: each pivot's
/// D_s, and the rows i it updated with their nonzero weights
/// w_is = b_is / D_s. (The pivot rows themselves stay in the system.)
struct PivotLog {
  explicit PivotLog(std::size_t n) : d(n, 0.0), begin(n, 0), end(n, 0) {}

  void pivot(std::uint32_t s, double d_s) {
    d[s] = d_s;
    begin[s] = rows.size();
  }
  void weight(std::uint32_t i, double w) {
    rows.push_back(i);
    weights.push_back(w);
  }
  void close(std::uint32_t s) { end[s] = rows.size(); }

  std::vector<double> d;
  /// Pivot s's weights are rows/weights[begin[s], end[s]).
  std::vector<std::size_t> begin;
  std::vector<std::size_t> end;
  std::vector<std::uint32_t> rows;
  std::vector<double> weights;
};

/// Eliminates every state except `initial` (order: last to first,
/// skipping `initial`), then m_initial = c[initial] / ab[initial].
/// Each step touches only the rows holding an entry in the pivot's
/// column, found through a column index. Column lists are append-only:
/// an entry leaves its row only when its column is the pivot, after
/// which that list is never read again, so every live row listed under
/// a live column really holds the entry (eliminated rows are skipped).
/// Eliminated rows, and their c, are left as they were at their pivot
/// step.
template <typename T, typename Log>
[[nodiscard]] Expected<T> eliminate(JumpSystem<T>& system,
                                    std::size_t initial, Log& log) {
  auto& rows = system.rows;
  auto& ab = system.ab;
  auto& c = system.c;
  const std::size_t n = rows.size();
  std::vector<std::vector<std::uint32_t>> col_rows(n);
  std::vector<std::uint32_t> col_size(n, 0);
  for (const auto& row : rows) {
    for (const Entry<T>& e : row) ++col_size[e.col];
  }
  for (std::size_t j = 0; j < n; ++j) col_rows[j].reserve(col_size[j]);
  for (std::size_t i = 0; i < n; ++i) {
    for (const Entry<T>& e : rows[i]) {
      col_rows[e.col].push_back(static_cast<std::uint32_t>(i));
    }
  }
  std::vector<Entry<T>> merged;

  for (std::size_t step = n; step-- > 0;) {
    if (step == initial) continue;
    const auto s = static_cast<std::uint32_t>(step);
    // Rows above the pivot are already eliminated, except `initial`.
    const auto eliminated = [&](std::uint32_t i) {
      return i > s && i != initial;
    };
    const std::vector<Entry<T>>& pivot_row = rows[s];
    // D_s = 1 - b[s][s], computed as a positive sum via the invariant.
    T d = ab[s];
    for (const Entry<T>& e : pivot_row) {
      if (e.col != s) d += e.value;
    }
    if (!(re(d) > 0.0)) {
      return Error{ErrorCode::kSingularGenerator, "ctmc.elimination",
                   "elimination pivot vanished (state has no remaining "
                   "path to absorption)"};
    }
    log.pivot(s, d);
    const T inv_d = 1.0 / d;
    for (const std::uint32_t i : col_rows[s]) {
      if (i == s || eliminated(i)) continue;
      std::vector<Entry<T>>& row = rows[i];
      const auto at_s = std::lower_bound(
          row.begin(), row.end(), s,
          [](const Entry<T>& e, std::uint32_t col) { return e.col < col; });
      NSREL_ASSERT(at_s != row.end() && at_s->col == s);
      const T weight = at_s->value * inv_d;
      row.erase(at_s);
      if (weight == T{}) continue;
      log.weight(i, weight);
      c[i] += weight * c[s];
      ab[i] += weight * ab[s];
      // row += weight * pivot_row (column s excluded), as a sorted merge.
      merged.clear();
      auto old = row.begin();
      for (const Entry<T>& e : pivot_row) {
        if (e.col == s) continue;
        while (old != row.end() && old->col < e.col) merged.push_back(*old++);
        if (old != row.end() && old->col == e.col) {
          merged.push_back({e.col, old->value + weight * e.value});
          ++old;
        } else {
          merged.push_back({e.col, T{} + weight * e.value});
          col_rows[e.col].push_back(i);
        }
      }
      merged.insert(merged.end(), old, row.end());
      row.swap(merged);
    }
    log.close(s);
  }
  // Only the initial state remains: 1 - b[ii] = ab[i], so
  // m = c / ab (both accumulated without any subtraction).
  if (!(re(ab[initial]) > 0.0)) {
    return Error{ErrorCode::kSingularGenerator, "ctmc.elimination",
                 "initial state's absorption probability vanished"};
  }
  const T mean = c[initial] / ab[initial];
  if (!finite(mean) || !(re(mean) > 0.0)) {
    return Error{ErrorCode::kNonFiniteResult, "ctmc.elimination",
                 "mean absorption time is non-finite or nonpositive"};
  }
  return mean;
}

/// The transient states, after the solve's preconditions.
std::vector<StateId> checked_transient_states(const Chain& chain,
                                              StateId initial) {
  NSREL_EXPECTS(chain.validate().empty());
  NSREL_EXPECTS(initial < chain.state_count());
  NSREL_EXPECTS(chain.state(initial).kind == StateKind::kTransient);
  return chain.transient_states();
}

/// One solve's setup, shared by every entry point: the row numbering
/// (index[s] is state s's row, or n for an absorbing state), the solver
/// span (open until the entry point returns), and the jump system with
/// transition k's rate read as rate(k). Exit rates (held in c until
/// inverted below) and the split into transient jumps vs absorption flow
/// are accumulated in transition order. Chain::add_transition merges
/// duplicate edges and forbids self-loops, so each (from, to) cell
/// receives exactly one rate.
template <typename T>
struct Setup {
  template <typename Rate>
  Setup(const Chain& chain, StateId initial_state, const Rate& rate)
      : transient(checked_transient_states(chain, initial_state)),
        index(chain.state_count(), transient.size()),
        span(obs::probe::kSpanEliminationSolve,
             obs::probe::kSpanCategoryCtmc),
        system(transient.size()) {
    const std::size_t n = transient.size();
    for (std::size_t i = 0; i < n; ++i) index[transient[i]] = i;
    initial = index[initial_state];
    NSREL_ASSERT(initial < n);
    if (span.armed()) span.arg("states", static_cast<std::uint64_t>(n));

    const std::vector<Transition>& transitions = chain.transitions();
    std::vector<std::uint32_t> row_size(n, 0);
    for (const auto& t : transitions) {
      if (index[t.to] < n) ++row_size[index[t.from]];
    }
    for (std::size_t i = 0; i < n; ++i) system.rows[i].reserve(row_size[i]);
    for (std::size_t k = 0; k < transitions.size(); ++k) {
      const Transition& t = transitions[k];
      const T r = rate(k);
      const std::size_t from = index[t.from];
      NSREL_ASSERT(from < n);
      system.c[from] += r;
      const std::size_t to = index[t.to];
      if (to < n) {
        system.rows[from].push_back({static_cast<std::uint32_t>(to), r});
      } else {
        system.ab[from] += r;
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      NSREL_ASSERT(re(system.c[i]) > 0.0);
      const T inv_exit = 1.0 / system.c[i];
      system.c[i] = inv_exit;
      system.ab[i] *= inv_exit;
      auto& row = system.rows[i];
      std::sort(row.begin(), row.end(),
                [](const Entry<T>& x, const Entry<T>& y) {
                  return x.col < y.col;
                });
      for (Entry<T>& e : row) e.value *= inv_exit;
    }
  }

  std::vector<StateId> transient;
  std::vector<std::size_t> index;
  std::size_t initial = 0;
  obs::Span span;
  JumpSystem<T> system;
};

/// The chain's own rates, for the double forms.
auto chain_rates(const Chain& chain) {
  return [&transitions = chain.transitions()](std::size_t k) {
    return transitions[k].rate;
  };
}

}  // namespace

double EliminationSolver::mean_absorption_time_hours(const Chain& chain,
                                                     StateId initial) {
  return try_mean_absorption_time_hours(chain, initial).value_or_throw();
}

[[nodiscard]] Expected<double> EliminationSolver::try_mean_absorption_time_hours(
    const Chain& chain, StateId initial) {
  Setup<double> setup(chain, initial, chain_rates(chain));
  NoLog log;
  return eliminate(setup.system, setup.initial, log);
}

[[nodiscard]] Expected<std::complex<double>>
EliminationSolver::try_mean_absorption_time_hours(
    const Chain& chain, StateId initial,
    std::span<const std::complex<double>> rates) {
  NSREL_EXPECTS(rates.size() == chain.transitions().size());
  Setup<std::complex<double>> setup(
      chain, initial, [rates](std::size_t k) { return rates[k]; });
  NoLog log;
  return eliminate(setup.system, setup.initial, log);
}

[[nodiscard]] Expected<EliminationAnalysis> EliminationSolver::try_analyze(
    const Chain& chain, StateId initial) {
  Setup<double> setup(chain, initial, chain_rates(chain));
  const JumpSystem<double>& system = setup.system;
  const std::size_t n = setup.transient.size();
  const std::size_t init = setup.initial;
  PivotLog log(n);
  const Expected<double> mean = eliminate(setup.system, init, log);
  if (!mean.has_value()) return mean.error();

  // Back substitution, states ascending: pivot s's row and weights only
  // reference states below s and `initial`, which are solved first.
  EliminationAnalysis result;
  result.mean_hours = mean.value();
  std::vector<double>& m = result.mean_hours_from;
  std::vector<double>& visits = result.occupancy_hours;
  m.assign(n, 0.0);
  visits.assign(n, 0.0);
  m[init] = mean.value();
  visits[init] = 1.0 / system.ab[init];
  for (std::size_t s = 0; s < n; ++s) {
    if (s == init) continue;
    double time = system.c[s];
    for (const Entry<double>& e : system.rows[s]) {
      if (e.col != s) time += e.value * m[e.col];
    }
    m[s] = time / log.d[s];
    double count = 0.0;
    for (std::size_t k = log.begin[s]; k < log.end[s]; ++k) {
      count += visits[log.rows[k]] * log.weights[k];
    }
    visits[s] = count;
  }
  // tau_s = v_s / q_s: expected visits times the mean hold time.
  for (std::size_t s = 0; s < n; ++s) {
    visits[s] /= chain.exit_rate(setup.transient[s]);
  }
  return result;
}

}  // namespace nsrel::ctmc
