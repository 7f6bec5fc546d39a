#include "ctmc/elimination.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "obs/probe_names.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace nsrel::ctmc {

namespace {

/// One stored jump probability b_ij of row i.
struct Entry {
  std::uint32_t col = 0;
  double value = 0.0;
};

/// The embedded-jump form
///   m_i = c[i] + sum_j b[i][j] * m_j,   sum_j b[i][j] + ab[i] = 1,
/// with each row of b held as a column-sorted vector of its stored
/// entries. Every b/ab/c value is >= 0, so an entry that is absent and
/// one that holds 0.0 are interchangeable: adding an exact zero to a
/// non-negative sum is a no-op.
struct JumpSystem {
  explicit JumpSystem(std::size_t n) : rows(n), ab(n, 0.0), c(n, 0.0) {}

  std::vector<std::vector<Entry>> rows;
  std::vector<double> ab;
  std::vector<double> c;
};

/// Eliminates every state except `initial` (order: last to first,
/// skipping `initial`), then m_initial = c[initial] / ab[initial].
/// Each step touches only the rows holding an entry in the pivot's
/// column, found through a column index. Column lists are append-only:
/// an entry leaves its row only when its column is the pivot, after
/// which that list is never read again, so every live row listed under
/// a live column really holds the entry (eliminated rows are skipped).
[[nodiscard]] Expected<double> eliminate(JumpSystem system,
                                         std::size_t initial) {
  auto& rows = system.rows;
  auto& ab = system.ab;
  auto& c = system.c;
  const std::size_t n = rows.size();
  std::vector<std::vector<std::uint32_t>> col_rows(n);
  std::vector<std::uint32_t> col_size(n, 0);
  for (const auto& row : rows) {
    for (const Entry& e : row) ++col_size[e.col];
  }
  for (std::size_t j = 0; j < n; ++j) col_rows[j].reserve(col_size[j]);
  for (std::size_t i = 0; i < n; ++i) {
    for (const Entry& e : rows[i]) {
      col_rows[e.col].push_back(static_cast<std::uint32_t>(i));
    }
  }
  std::vector<Entry> merged;

  for (std::size_t step = n; step-- > 0;) {
    if (step == initial) continue;
    const auto s = static_cast<std::uint32_t>(step);
    // Rows above the pivot are already eliminated, except `initial`.
    const auto eliminated = [&](std::uint32_t i) {
      return i > s && i != initial;
    };
    const std::vector<Entry>& pivot_row = rows[s];
    // D_s = 1 - b[s][s], computed as a positive sum via the invariant.
    double d = ab[s];
    for (const Entry& e : pivot_row) {
      if (e.col != s) d += e.value;
    }
    if (!(d > 0.0)) {
      return Error{ErrorCode::kSingularGenerator, "ctmc.elimination",
                   "elimination pivot vanished (state has no remaining "
                   "path to absorption)"};
    }
    const double inv_d = 1.0 / d;
    for (const std::uint32_t i : col_rows[s]) {
      if (i == s || eliminated(i)) continue;
      std::vector<Entry>& row = rows[i];
      const auto at_s = std::lower_bound(
          row.begin(), row.end(), s,
          [](const Entry& e, std::uint32_t col) { return e.col < col; });
      NSREL_ASSERT(at_s != row.end() && at_s->col == s);
      const double weight = at_s->value * inv_d;
      row.erase(at_s);
      if (weight == 0.0) continue;
      c[i] += weight * c[s];
      ab[i] += weight * ab[s];
      // row += weight * pivot_row (column s excluded), as a sorted merge.
      merged.clear();
      auto old = row.begin();
      for (const Entry& e : pivot_row) {
        if (e.col == s) continue;
        while (old != row.end() && old->col < e.col) merged.push_back(*old++);
        if (old != row.end() && old->col == e.col) {
          merged.push_back({e.col, old->value + weight * e.value});
          ++old;
        } else {
          merged.push_back({e.col, 0.0 + weight * e.value});
          col_rows[e.col].push_back(i);
        }
      }
      merged.insert(merged.end(), old, row.end());
      row.swap(merged);
    }
  }
  // Only the initial state remains: 1 - b[ii] = ab[i], so
  // m = c / ab (both accumulated without any subtraction).
  if (!(ab[initial] > 0.0)) {
    return Error{ErrorCode::kSingularGenerator, "ctmc.elimination",
                 "initial state's absorption probability vanished"};
  }
  const double mean = c[initial] / ab[initial];
  if (!std::isfinite(mean) || !(mean > 0.0)) {
    return Error{ErrorCode::kNonFiniteResult, "ctmc.elimination",
                 "mean absorption time is non-finite or nonpositive"};
  }
  return mean;
}

}  // namespace

double EliminationSolver::mean_absorption_time_hours(const Chain& chain,
                                                     StateId initial) {
  return try_mean_absorption_time_hours(chain, initial).value_or_throw();
}

[[nodiscard]] Expected<double> EliminationSolver::try_mean_absorption_time_hours(
    const Chain& chain, StateId initial) {
  NSREL_EXPECTS(chain.validate().empty());
  NSREL_EXPECTS(initial < chain.state_count());
  NSREL_EXPECTS(chain.state(initial).kind == StateKind::kTransient);

  const auto transient = chain.transient_states();
  const std::size_t n = transient.size();
  std::vector<std::size_t> index(chain.state_count(), n);
  for (std::size_t i = 0; i < n; ++i) index[transient[i]] = i;
  NSREL_ASSERT(index[initial] < n);

  obs::Span span(obs::probe::kSpanEliminationSolve,
                 obs::probe::kSpanCategoryCtmc);
  if (span.armed()) span.arg("states", static_cast<std::uint64_t>(n));

  // Exit rates (held in c until inverted below) and the split into
  // transient jumps vs absorption flow, accumulated in transition order.
  // Chain::add_transition merges duplicate edges and forbids self-loops,
  // so each (from, to) cell receives exactly one rate.
  JumpSystem system(n);
  std::vector<std::uint32_t> row_size(n, 0);
  for (const auto& t : chain.transitions()) {
    if (index[t.to] < n) ++row_size[index[t.from]];
  }
  for (std::size_t i = 0; i < n; ++i) system.rows[i].reserve(row_size[i]);
  for (const auto& t : chain.transitions()) {
    const std::size_t from = index[t.from];
    NSREL_ASSERT(from < n);
    system.c[from] += t.rate;
    const std::size_t to = index[t.to];
    if (to < n) {
      system.rows[from].push_back({static_cast<std::uint32_t>(to), t.rate});
    } else {
      system.ab[from] += t.rate;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    NSREL_ASSERT(system.c[i] > 0.0);
    const double inv_exit = 1.0 / system.c[i];
    system.c[i] = inv_exit;
    system.ab[i] *= inv_exit;
    auto& row = system.rows[i];
    std::sort(row.begin(), row.end(),
              [](const Entry& a, const Entry& b) { return a.col < b.col; });
    for (Entry& e : row) e.value *= inv_exit;
  }
  return eliminate(std::move(system), index[initial]);
}

}  // namespace nsrel::ctmc
