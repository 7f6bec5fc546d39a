#include "ctmc/absorbing.hpp"

#include <cmath>
#include <cstddef>
#include <vector>

#include "ctmc/elimination.hpp"
#include "util/math.hpp"

namespace nsrel::ctmc {

AbsorbingAnalysis AbsorbingSolver::analyze(const Chain& chain,
                                           StateId initial) {
  return try_analyze(chain, initial).value_or_throw();
}

[[nodiscard]] Expected<AbsorbingAnalysis> AbsorbingSolver::try_analyze(
    const Chain& chain, StateId initial) {
  const auto solved = EliminationSolver::try_analyze(chain, initial);
  if (!solved.has_value()) return solved.error();
  const EliminationAnalysis& elimination = solved.value();

  AbsorbingAnalysis result;
  result.occupancy_hours = elimination.occupancy_hours;
  result.mean_time_to_absorption_hours = elimination.mean_hours;

  // E[T^2] = 2 * sum_i tau_i * m_i (phase-type second moment).
  KahanSum second_moment;
  for (std::size_t i = 0; i < result.occupancy_hours.size(); ++i) {
    second_moment.add(2.0 * result.occupancy_hours[i] *
                      elimination.mean_hours_from[i]);
  }
  const double variance =
      second_moment.value() - result.mean_time_to_absorption_hours *
                                  result.mean_time_to_absorption_hours;
  result.stddev_time_to_absorption_hours =
      variance > 0.0 ? std::sqrt(variance) : 0.0;

  // P(absorb into a) = sum_i tau_i * rate(i -> a).
  for (const StateId a : chain.absorbing_states()) {
    const std::vector<double> rates = chain.rates_into(a);
    KahanSum p;
    for (std::size_t i = 0; i < rates.size(); ++i) {
      p.add(result.occupancy_hours[i] * rates[i]);
    }
    result.absorption_probability.push_back(p.value());
  }

  // Health check on everything the back substitution produced: an
  // overflowing occupancy or second moment shows up as NaN or infinity.
  bool finite = std::isfinite(result.stddev_time_to_absorption_hours);
  for (const double tau : result.occupancy_hours) {
    finite = finite && std::isfinite(tau);
  }
  for (const double p : result.absorption_probability) {
    finite = finite && std::isfinite(p);
  }
  if (!finite) {
    return Error{ErrorCode::kNonFiniteResult, "ctmc.absorbing",
                 "absorption analysis produced a non-finite result"};
  }
  return result;
}

double AbsorbingSolver::mttdl_hours(const Chain& chain, StateId initial) {
  return EliminationSolver::mean_absorption_time_hours(chain, initial);
}

}  // namespace nsrel::ctmc
