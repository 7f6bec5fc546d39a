// Absorbing-chain analysis: mean time to absorption (the paper's MTTDL),
// per-state occupancy times, absorption probabilities and the standard
// deviation of the absorption time.
//
// Method (paper appendix, after Trivedi): with B the transient states,
// occupancy times tau solve tau_B * Q_B = -pi_B(0), and
// MTTDL = sum_i tau_i. Everything here comes from one cancellation-free
// GTH elimination (elimination.hpp): the MTTDL is the kernel's c / ab,
// and back substitution over the pivots it keeps gives tau and the mean
// time m_i from every state, so E[T^2] = 2 * tau . m (phase-type second
// moment) and P(absorb into a) = sum_i tau_i * rate(i -> a).
#pragma once

#include <vector>

#include "ctmc/chain.hpp"
#include "util/error.hpp"

namespace nsrel::ctmc {

struct AbsorbingAnalysis {
  /// Expected total time spent in each transient state before absorption,
  /// indexed like Chain::transient_states(). Hours.
  std::vector<double> occupancy_hours;

  /// Mean time to absorption: bit-equal to mttdl_hours(). Hours.
  double mean_time_to_absorption_hours = 0.0;

  /// Standard deviation of the absorption time (phase-type second moment).
  double stddev_time_to_absorption_hours = 0.0;

  /// Probability of eventually absorbing into each absorbing state,
  /// indexed like Chain::absorbing_states(). Sums to 1.
  std::vector<double> absorption_probability;
};

class AbsorbingSolver {
 public:
  /// Analyzes the chain starting from transient state `initial`
  /// (a full-state id; defaults to state 0).
  /// Preconditions: chain.validate() passes; `initial` is transient.
  /// Numerical failures (a vanishing elimination pivot, non-finite
  /// results) throw ErrorException; use try_analyze to get the typed
  /// error without an exception.
  [[nodiscard]] static AbsorbingAnalysis analyze(const Chain& chain,
                                                 StateId initial = 0);

  /// Non-throwing form: numerical-health failures come back as typed
  /// errors (singular_generator, non_finite_result). Caller-bug
  /// preconditions (bad initial state, invalid chain) still throw
  /// ContractViolation.
  [[nodiscard]] static Expected<AbsorbingAnalysis> try_analyze(
      const Chain& chain, StateId initial = 0);

  /// Convenience: just the MTTDL in hours from transient state `initial`.
  [[nodiscard]] static double mttdl_hours(const Chain& chain,
                                          StateId initial = 0);
};

}  // namespace nsrel::ctmc
