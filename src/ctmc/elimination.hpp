// Cancellation-free mean-absorption-time solver (GTH-style state
// elimination).
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
#pragma once

#include <cstddef>
#include <vector>

#include "ctmc/chain.hpp"
#include "util/error.hpp"

namespace nsrel::ctmc {

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
};

}  // namespace nsrel::ctmc
