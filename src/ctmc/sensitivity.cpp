#include "ctmc/sensitivity.hpp"

#include <cmath>
#include <complex>
#include <vector>

#include "ctmc/elimination.hpp"
#include "util/assert.hpp"

namespace nsrel::ctmc {

namespace {

/// The complex step: small enough that h^2 terms vanish below the last
/// bit of any real part, large enough that h times the smallest rate
/// stays a normal double.
constexpr double kStep = 1e-100;

/// MTTA at theta = 1 + i*kStep: the selected rates times (1 + i*kStep).
[[nodiscard]] Expected<std::complex<double>> complex_step_mtta(
    const Chain& chain, StateId initial,
    const SensitivitySolver::TransitionSelector& selector) {
  NSREL_EXPECTS(selector != nullptr);
  std::vector<std::complex<double>> rates;
  rates.reserve(chain.transitions().size());
  for (const auto& t : chain.transitions()) {
    rates.emplace_back(t.rate, selector(t) ? t.rate * kStep : 0.0);
  }
  return EliminationSolver::try_mean_absorption_time_hours(chain, initial,
                                                           rates);
}

}  // namespace

double SensitivitySolver::mtta_derivative(const Chain& chain, StateId initial,
                                          const TransitionSelector& selector) {
  return try_mtta_derivative(chain, initial, selector).value_or_throw();
}

[[nodiscard]] Expected<double> SensitivitySolver::try_mtta_derivative(
    const Chain& chain, StateId initial, const TransitionSelector& selector) {
  const auto mtta = complex_step_mtta(chain, initial, selector);
  if (!mtta.has_value()) return mtta.error();
  const double derivative = mtta.value().imag() / kStep;
  if (!std::isfinite(derivative)) {
    return Error{ErrorCode::kNonFiniteResult, "ctmc.sensitivity",
                 "MTTA derivative is non-finite"};
  }
  return derivative;
}

double SensitivitySolver::mtta_elasticity(const Chain& chain, StateId initial,
                                          const TransitionSelector& selector) {
  return try_mtta_elasticity(chain, initial, selector).value_or_throw();
}

[[nodiscard]] Expected<double> SensitivitySolver::try_mtta_elasticity(
    const Chain& chain, StateId initial, const TransitionSelector& selector) {
  const auto mtta = complex_step_mtta(chain, initial, selector);
  if (!mtta.has_value()) return mtta.error();
  const double elasticity =
      mtta.value().imag() / kStep / mtta.value().real();
  if (!std::isfinite(elasticity)) {
    return Error{ErrorCode::kNonFiniteResult, "ctmc.sensitivity",
                 "MTTA elasticity is non-finite"};
  }
  return elasticity;
}

}  // namespace nsrel::ctmc
