// The unified evaluation engine: one parallel, memoizing grid-evaluation
// path shared by the CLI, the scenario runner, and every figure bench.
//
// evaluate() fans the grid's cells (points x configurations) out over a
// util::ThreadPool. Each cell is computed independently into its own
// preassigned slot, so the ResultSet's contents are identical at any
// jobs count — parallelism never changes output, only wall clock (the
// same discipline as sim::run_trials). Chain solves are memoized through
// core::SolveCache: cells whose swept parameter does not change the
// underlying Markov model — and repeated configurations across sweeps
// sharing a cache — skip the elimination solve entirely, and a cache
// hit is bit-identical to a fresh solve by construction.
//
// Fault isolation: a failing cell (singular chain, non-finite result,
// invalid swept parameter, or any exception escaping the model stack)
// is captured as a typed Error in that cell's slot instead of tearing
// down the whole evaluation. Cell indices are claimed monotonically
// from an atomic counter and a claimed cell always completes and
// records its outcome, so the set of failures below the first failing
// index — and therefore the error evaluate() reports — is identical at
// any jobs count.
#pragma once

#include <cstddef>
#include <string>
#include <variant>
#include <vector>

#include "core/analyzer.hpp"
#include "core/solve_cache.hpp"
#include "engine/grid.hpp"
#include "sim/estimate.hpp"
#include "util/error.hpp"

namespace nsrel::obs {
class ProgressMeter;
}  // namespace nsrel::obs

namespace nsrel::engine {

/// What evaluate() does when a cell fails.
enum class OnError : unsigned char {
  /// Stop claiming new cells once a failure is recorded and throw
  /// ErrorException for the lowest-indexed failing cell. Cells already
  /// claimed still complete, so the thrown error is jobs-invariant.
  /// The engine's default: library callers that do not opt into
  /// partial results keep exception semantics.
  kFailFast,
  /// Evaluate every cell and return the ResultSet with failures
  /// recorded in their slots; never throws for cell failures. The CLI
  /// and scenario-runner default.
  kSkip,
  /// Evaluate every cell (so all failures are recorded), then throw
  /// ErrorException for the lowest-indexed failing cell.
  kAbort,
};

/// Parses the canonical policy names shared by the CLI's --on-error
/// flag and scenario files' [output] on_error key: "skip" | "fail".
/// Throws ContractViolation on anything else.
[[nodiscard]] OnError parse_on_error(const std::string& name);

struct EvalOptions {
  /// Worker threads. 1 evaluates inline on the caller (no pool);
  /// 0 means "all hardware threads". Never changes results.
  int jobs = 1;

  /// Optional externally-owned solve cache, shared across evaluate()
  /// calls (the benches reuse one per binary so repeated configurations
  /// across figures hit it). When null the engine uses a private cache
  /// scoped to the single call.
  core::SolveCache* cache = nullptr;

  /// Failure policy; identical observable behavior at any `jobs`.
  OnError on_error = OnError::kFailFast;

  /// Optional progress meter stepped once per completed cell (stderr
  /// only — rendered results are unaffected). Not owned.
  obs::ProgressMeter* progress = nullptr;
};

/// One failed cell: its grid coordinates plus the typed error.
struct CellError {
  std::size_t point = 0;
  std::size_t configuration = 0;
  Error error;
};

/// What a successful cell holds: an analytic solve result, or — when the
/// grid carries a SimSpec — a Monte-Carlo estimate. One variant (rather
/// than two ResultSet types) so renderers, the solve-cache bypass, the
/// JSON writer/reader, and the --on-error machinery are shared verbatim
/// between `nsrel sweep` and `nsrel simulate` sweeps.
using CellValue = std::variant<core::AnalysisResult, sim::SimEstimate>;

/// The evaluated grid: one Expected<CellValue> per
/// (point, configuration) cell in deterministic row-major order, plus
/// the grid that produced it and a snapshot of the solve-cache counters
/// after the run.
class ResultSet {
 public:
  using Cell = Expected<CellValue>;

  ResultSet(Grid grid, std::vector<Cell> cells,
            core::SolveCache::Stats cache_stats);

  [[nodiscard]] const Grid& grid() const { return grid_; }
  [[nodiscard]] std::size_t point_count() const { return grid_.points.size(); }
  [[nodiscard]] std::size_t configuration_count() const {
    return grid_.configurations.size();
  }

  /// The full cell outcome: a result or a typed error.
  [[nodiscard]] const Cell& cell(std::size_t point,
                                 std::size_t configuration) const;

  /// True when the cell holds a result.
  [[nodiscard]] bool ok(std::size_t point, std::size_t configuration) const;

  /// True when the cell holds a Monte-Carlo estimate. Precondition:
  /// ok(point, configuration). A grid's cells are homogeneous — this is
  /// `grid().is_simulation()` restated per cell for renderer symmetry.
  [[nodiscard]] bool is_sim(std::size_t point, std::size_t configuration) const;

  /// The cell's analytic result. Precondition: ok(point, configuration)
  /// and the cell is analytic — the benches and renderers that index
  /// unconditionally run under fail-fast on analytic grids, where every
  /// returned cell is a success.
  [[nodiscard]] const core::AnalysisResult& at(std::size_t point,
                                               std::size_t configuration) const;

  /// The cell's Monte-Carlo estimate. Precondition:
  /// ok(point, configuration) and the cell is a sim cell.
  [[nodiscard]] const sim::SimEstimate& sim_at(std::size_t point,
                                               std::size_t configuration) const;

  /// Number of cells holding results.
  [[nodiscard]] std::size_t ok_count() const;

  /// All failed cells in row-major (point-major) order.
  [[nodiscard]] std::vector<CellError> errors() const;

  /// Cache counters as of the end of this run. With a shared external
  /// cache the numbers are cumulative across runs; with the engine's
  /// private cache they cover exactly this grid. Counters depend on the
  /// thread schedule for jobs > 1 (two workers can race to first solve
  /// of a key) and are exact for jobs == 1. Never rendered into
  /// table/CSV/JSON output, which stays jobs-invariant.
  [[nodiscard]] const core::SolveCache::Stats& cache_stats() const {
    return cache_stats_;
  }

 private:
  Grid grid_;
  std::vector<Cell> cells_;  // row-major: point * C + config
  core::SolveCache::Stats cache_stats_;
};

/// Evaluates every cell of the grid, isolating failures per cell (see
/// OnError). Under kFailFast and kAbort a failing cell surfaces as an
/// ErrorException for the lowest-indexed failure — jobs-invariant by
/// the claiming discipline above; under kSkip failures are returned in
/// their slots and evaluate() only throws for violated preconditions
/// (empty grid, negative jobs).
[[nodiscard]] ResultSet evaluate(const Grid& grid,
                                 const EvalOptions& options = {});

}  // namespace nsrel::engine
