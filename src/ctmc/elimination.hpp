// The one CTMC solver: cancellation-free state elimination (GTH-style).
//
// Why: the LU route computes MTTDL ~ 1e19 hours from matrix entries of
// order 1, which requires resolving cancellations beyond double precision
// once the chain is reliable enough (observed as a NEGATIVE MTTDL at fault
// tolerance 6). Grassmann-Taksar-Heyman elimination avoids subtraction
// entirely: writing the mean-absorption-time system as
//     m_i = c_i + sum_j b_ij m_j,   with  sum_j b_ij + ab_i = 1,
// (b_ij = jump probabilities, ab_i = absorption probability, c_i = mean
// hold time), eliminating a state divides by D_s = 1 - b_ss, and the
// row-sum invariant lets D_s be computed as the POSITIVE SUM
// sum_{j != s} b_sj + ab_s. Every update is add/multiply of non-negative
// numbers, so the result is accurate to machine epsilon at ANY condition
// number.
//
// One kernel: b is stored as flat, column-sorted per-row vectors of its
// nonzero jump probabilities, eliminated last state to first (skipping
// `initial`). On the no-internal-RAID binary-tree chains that order
// is leaf-first, so there is no off-diagonal fill-in and the solve runs
// in O(n); arbitrary chains may fill in, and the rows grow to hold it.
// One front end feeds it: a labelled Chain, whose transitions give the
// jump rates and the exact per-state absorption rates directly.
//
// The kernel has three instantiations:
//   - the lean double form behind mean_absorption_time_hours (MTTDL);
//   - a double form that also logs each pivot's D_s and its nonzero
//     weights w_is = b_is / D_s, behind analyze(). Back substitution over
//     that log and the pivot rows elimination leaves in place gives the
//     mean time from every state, m_s = (c_s + sum_{j != s} b_sj m_j) / D_s,
//     and the expected visits v_s = sum_i v_i w_is (v_initial =
//     1 / ab_initial), so occupancy tau_s = v_s / q_s. Both are sums of
//     non-negative terms;
//   - a std::complex<double> form for complex-step derivatives
//     (sensitivity.hpp). Pivots are tested on their real parts.
#pragma once

#include <complex>
#include <span>
#include <vector>

#include "ctmc/chain.hpp"
#include "util/error.hpp"

namespace nsrel::ctmc {

/// Everything back substitution gives, indexed like
/// Chain::transient_states().
struct EliminationAnalysis {
  /// Mean time to absorption from `initial` (hours): bit-equal to
  /// EliminationSolver::mean_absorption_time_hours.
  double mean_hours = 0.0;
  /// Expected time spent in each transient state before absorption,
  /// starting from `initial` (hours).
  std::vector<double> occupancy_hours;
  /// Mean time to absorption starting from each transient state (hours).
  std::vector<double> mean_hours_from;
};

class EliminationSolver {
 public:
  /// Mean time to absorption (hours) from `initial`, built directly from
  /// the chain's transition rates (no subtractions anywhere).
  /// Preconditions: chain.validate() passes; initial is transient.
  /// Numerical failures (degenerate elimination pivot, non-finite
  /// result) throw ErrorException; use the try_ form for typed errors.
  [[nodiscard]] static double mean_absorption_time_hours(const Chain& chain,
                                                         StateId initial);

  /// Non-throwing form: a vanishing elimination pivot (no remaining path
  /// to absorption — a numerically singular generator) or a non-finite
  /// mean comes back as a typed error.
  [[nodiscard]] static Expected<double> try_mean_absorption_time_hours(
      const Chain& chain, StateId initial);

  /// Complex-rate form: the mean with transition k's rate replaced by
  /// rates[k] (indexed like chain.transitions()), for complex-step
  /// differentiation. Same preconditions and error taxonomy; real parts
  /// must be the chain's rates.
  [[nodiscard]] static Expected<std::complex<double>>
  try_mean_absorption_time_hours(const Chain& chain, StateId initial,
                                 std::span<const std::complex<double>> rates);

  /// The mean plus per-state occupancy and mean times from one
  /// elimination with back substitution. Same preconditions and error
  /// taxonomy as try_mean_absorption_time_hours.
  [[nodiscard]] static Expected<EliminationAnalysis> try_analyze(
      const Chain& chain, StateId initial);
};

}  // namespace nsrel::ctmc
