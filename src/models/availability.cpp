#include "models/availability.hpp"

#include <cstddef>
#include <vector>

#include "ctmc/elimination.hpp"
#include "util/assert.hpp"

namespace nsrel::models {

AvailabilityResult AvailabilityModel::analyze(
    const ctmc::Chain& absorbing_chain, ctmc::StateId healthy,
    Hours restore_time) {
  NSREL_EXPECTS(restore_time.value() > 0.0);
  const ctmc::EliminationAnalysis analysis =
      ctmc::EliminationSolver::try_analyze(absorbing_chain, healthy)
          .value_or_throw();

  AvailabilityResult result;
  result.mttdl = Hours(analysis.mean_hours);
  const double cycle = result.mttdl.value() + restore_time.value();
  const double lost_fraction = restore_time.value() / cycle;
  result.availability = 1.0 - lost_fraction;
  result.downtime_minutes_per_year =
      lost_fraction * kHoursPerYear * 60.0;
  const std::vector<ctmc::StateId> transient =
      absorbing_chain.transient_states();
  double degraded_hours = 0.0;
  for (std::size_t j = 0; j < transient.size(); ++j) {
    if (transient[j] != healthy) {
      degraded_hours += analysis.occupancy_hours[j];
    }
  }
  result.degraded_fraction = degraded_hours / cycle;
  return result;
}

}  // namespace nsrel::models
