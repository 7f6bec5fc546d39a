#include "ctmc/elimination.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
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
/// column, found through a column index (flat, like the rows). Column
/// lists are append-only: an entry leaves its row only when its column is
/// the pivot, after which that list is never read again, so every live
/// row listed under a live column really holds the entry (eliminated rows
/// are skipped). A row's own diagonal is never listed: the pivot skips
/// its own row. Eliminated rows, and their c, are left as they were at
/// their pivot step.
template <typename T, typename Log>
[[nodiscard]] Expected<T> eliminate(JumpSystem<T>& system,
                                    std::size_t initial, Log& log) {
  auto& rows = system.rows;
  auto& ab = system.ab;
  auto& c = system.c;
  const std::size_t n = rows.size();
  std::vector<std::uint32_t> col_size(n, 0);
  std::size_t entries = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (const RowEntry<T>& e : rows[i]) {
      if (e.col != i) ++col_size[e.col];
    }
    entries += rows[i].size();
  }
  FlatRows<std::uint32_t> col_rows;
  col_rows.reserve(n, entries);
  for (std::size_t j = 0; j < n; ++j) col_rows.add_row(col_size[j]);
  for (std::size_t i = 0; i < n; ++i) {
    for (const RowEntry<T>& e : rows[i]) {
      if (e.col != i) col_rows.push_back(e.col, static_cast<std::uint32_t>(i));
    }
  }
  // The pivot row is copied out: growing another row may move the arena.
  std::vector<RowEntry<T>> pivot_row;
  std::vector<RowEntry<T>> merged;

  for (std::size_t step = n; step-- > 0;) {
    if (step == initial) continue;
    const auto s = static_cast<std::uint32_t>(step);
    // Rows above the pivot are already eliminated, except `initial`.
    const auto eliminated = [&](std::uint32_t i) {
      return i > s && i != initial;
    };
    pivot_row.assign(rows[s].begin(), rows[s].end());
    // D_s = 1 - b[s][s], computed as a positive sum via the invariant.
    T d = ab[s];
    for (const RowEntry<T>& e : pivot_row) {
      if (e.col != s) d += e.value;
    }
    if (!(re(d) > 0.0)) {
      return Error{ErrorCode::kSingularGenerator, "ctmc.elimination",
                   "elimination pivot vanished (state has no remaining "
                   "path to absorption)"};
    }
    log.pivot(s, d);
    const T inv_d = 1.0 / d;
    // Fill-in appends to other columns' lists, so col_rows[s] keeps its
    // entries but may move: index it afresh on every step.
    for (std::size_t k = 0; k < col_rows[s].size(); ++k) {
      const std::uint32_t i = col_rows[s][k];
      if (i == s || eliminated(i)) continue;
      const std::span<RowEntry<T>> row = rows[i];
      const auto at_s = std::lower_bound(
          row.begin(), row.end(), s,
          [](const RowEntry<T>& e, std::uint32_t col) { return e.col < col; });
      NSREL_ASSERT(at_s != row.end() && at_s->col == s);
      const T weight = at_s->value * inv_d;
      rows.erase(i, static_cast<std::size_t>(at_s - row.begin()));
      if (weight == T{}) continue;
      log.weight(i, weight);
      c[i] += weight * c[s];
      ab[i] += weight * ab[s];
      // row += weight * pivot_row (column s excluded), as a sorted merge.
      const std::span<const RowEntry<T>> old_row = rows[i];
      merged.clear();
      auto old = old_row.begin();
      for (const RowEntry<T>& e : pivot_row) {
        if (e.col == s) continue;
        while (old != old_row.end() && old->col < e.col) {
          merged.push_back(*old++);
        }
        if (old != old_row.end() && old->col == e.col) {
          merged.push_back({e.col, old->value + weight * e.value});
          ++old;
        } else {
          merged.push_back({e.col, T{} + weight * e.value});
          if (e.col != i) col_rows.push_back(e.col, i);
        }
      }
      merged.insert(merged.end(), old, old_row.end());
      rows.assign(i, merged);
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

/// The chain's own rates, for the double forms.
auto chain_rates(const Chain& chain) {
  return [&transitions = chain.transitions()](std::size_t k) {
    return transitions[k].rate;
  };
}

/// A chain's out-edges fed through a sink, transition k read at rate(k).
template <typename T, typename Rate>
RowSink<T> chain_rows(const Chain& chain, const Rate& rate) {
  RowSink<T> sink;
  sink.reserve(chain.state_count(), chain.transitions().size());
  for (StateId s = 0; s < chain.state_count(); ++s) {
    sink.add_state(chain.state(s).kind, chain.out_edges(s).size());
  }
  const std::vector<Transition>& transitions = chain.transitions();
  for (StateId s = 0; s < chain.state_count(); ++s) {
    for (const std::size_t k : chain.out_edges(s)) {
      sink.add_transition(s, transitions[k].to, rate(k));
    }
  }
  return sink;
}

/// One Chain solve's setup, shared by its entry points: the transient
/// states (row i is state transient[i]), the solver span (open until the
/// entry point returns), and the jump system with transition k's rate
/// read as rate(k), assembled through the one row sink.
template <typename T>
struct Setup {
  template <typename Rate>
  Setup(const Chain& chain, StateId initial_state, const Rate& rate)
      : transient(checked_transient_states(chain, initial_state)),
        span(obs::probe::kSpanEliminationSolve,
             obs::probe::kSpanCategoryCtmc) {
    RowSink<T> sink = chain_rows<T>(chain, rate);
    initial = sink.row_of(initial_state);
    if (span.armed()) {
      span.arg("states", static_cast<std::uint64_t>(transient.size()));
    }
    system = jump_system(std::move(sink));
  }

  std::vector<StateId> transient;
  std::size_t initial = 0;
  obs::Span span;
  JumpSystem<T> system;
};

}  // namespace

template <typename T>
JumpSystem<T> jump_system(RowSink<T>&& sink) {
  JumpSystem<T> system{std::move(sink.edges_), {}, {}};
  const std::vector<std::uint32_t>& row_of = sink.row_of_;
  const std::size_t n = system.rows.size();
  system.ab.assign(n, T{});
  system.c.assign(n, T{});
  for (std::size_t i = 0; i < n; ++i) {
    const std::span<RowEntry<T>> row = system.rows[i];
    T exit{};
    T absorbed{};
    std::size_t kept = 0;
    for (const RowEntry<T>& e : row) {
      exit += e.value;
      const std::uint32_t to = row_of[e.col];
      if (to == RowSink<T>::kNoRow) {
        absorbed += e.value;
      } else {
        row[kept++] = {to, e.value};
      }
    }
    NSREL_EXPECTS(re(exit) > 0.0);
    const T inv_exit = 1.0 / exit;
    system.c[i] = inv_exit;
    system.ab[i] = absorbed * inv_exit;
    system.rows.truncate(i, kept);
    const std::span<RowEntry<T>> jumps = system.rows[i];
    std::sort(jumps.begin(), jumps.end(),
              [](const RowEntry<T>& x, const RowEntry<T>& y) {
                return x.col < y.col;
              });
    for (RowEntry<T>& e : jumps) e.value *= inv_exit;
  }
  return system;
}

template JumpSystem<double> jump_system(RowSink<double>&& sink);
template JumpSystem<std::complex<double>> jump_system(
    RowSink<std::complex<double>>&& sink);

RowSink<double> kernel_rows(const Chain& chain) {
  return chain_rows<double>(chain, chain_rates(chain));
}

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

[[nodiscard]] Expected<double> EliminationSolver::try_mean_absorption_time_hours(
    RowSink<double>&& rows, StateId initial) {
  const std::size_t row = rows.row_of(initial);
  NSREL_EXPECTS(row != RowSink<double>::kNoRow);
  obs::Span span(obs::probe::kSpanEliminationSolve,
                 obs::probe::kSpanCategoryCtmc);
  JumpSystem<double> system = jump_system(std::move(rows));
  if (span.armed()) {
    span.arg("states", static_cast<std::uint64_t>(system.rows.size()));
  }
  NoLog log;
  return eliminate(system, row, log);
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
    for (const RowEntry<double>& e : system.rows[s]) {
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
