// Parameter sensitivities of the mean time to absorption, by complex-step
// differentiation (Squire & Trapp, SIAM Review 1998).
//
// Section 7 of the paper explores sensitivity by sweeping one parameter
// at a time. This solver gives the local view exactly: for a parameter
// theta that multiplicatively scales a chosen subset S of transition
// rates (e.g. "all drive-failure transitions" or "all repairs"),
// evaluating MTTA at theta = 1 + i*h with the GTH kernel's complex
// instantiation gives
//     dMTTA/dtheta = Im MTTA(1 + i*h) / h     (h = 1e-100).
// No difference is formed, so the derivative is accurate to machine
// precision at any fault tolerance, for one O(n) elimination per
// selector. The ELASTICITY (theta/MTTA)*dMTTA/dtheta is the
// dimensionless "% change in MTTDL per % change in the rate" — scaling
// every transition at once gives exactly -1 (pure time rescaling), a
// property the tests pin down.
#pragma once

#include <functional>

#include "ctmc/chain.hpp"
#include "util/error.hpp"

namespace nsrel::ctmc {

class SensitivitySolver {
 public:
  using TransitionSelector = std::function<bool(const Transition&)>;

  /// d(MTTA)/d(theta) at theta = 1, where theta scales the rates of all
  /// transitions matched by `selector`.
  /// Preconditions: chain.validate() passes; initial is transient.
  /// Numerical failures (a vanishing elimination pivot, non-finite
  /// derivative) throw ErrorException; use the try_ form for the typed
  /// error.
  [[nodiscard]] static double mtta_derivative(
      const Chain& chain, StateId initial, const TransitionSelector& selector);

  /// Non-throwing form: a vanishing pivot comes back as
  /// kSingularGenerator, and a non-finite MTTA or derivative as
  /// kNonFiniteResult.
  [[nodiscard]] static Expected<double> try_mtta_derivative(
      const Chain& chain, StateId initial, const TransitionSelector& selector);

  /// Dimensionless elasticity: (theta / MTTA) * dMTTA/dtheta at theta=1.
  [[nodiscard]] static double mtta_elasticity(
      const Chain& chain, StateId initial, const TransitionSelector& selector);

  /// Non-throwing form of mtta_elasticity, same taxonomy as
  /// try_mtta_derivative.
  [[nodiscard]] static Expected<double> try_mtta_elasticity(
      const Chain& chain, StateId initial, const TransitionSelector& selector);
};

}  // namespace nsrel::ctmc
