// Availability extension: what happens AFTER a data-loss event.
//
// The paper's models are absorbing — they stop at the first loss. A
// deployed system restores the lost data from a backup tier and continues,
// so the operational questions become: what fraction of time is data
// available (steady-state availability), how many minutes per year are
// lost, and how much time does the system spend rebuilding (degraded
// exposure)? This module turns any absorbing data-loss chain into its
// repairable counterpart by adding a "restoring" state that returns to
// full health at the restore rate. Renewal-reward gives the exact
// identity
//     A = MTTDL / (MTTDL + MTTR_restore),
// which analyze() evaluates with the cancellation-free MTTDL (so the
// downtime stays positive and accurate at any fault tolerance); the
// degraded exposure comes from the stationary distribution.
#pragma once

#include "ctmc/chain.hpp"
#include "util/units.hpp"

namespace nsrel::models {

struct AvailabilityResult {
  double availability = 0.0;          ///< long-run P(data not lost)
  double downtime_minutes_per_year = 0.0;
  /// Long-run fraction of time spent in degraded (non-healthy, non-lost)
  /// states: rebuilds in progress.
  double degraded_fraction = 0.0;
  Hours mttdl{0.0};                   ///< of the underlying absorbing model
};

class AvailabilityModel {
 public:
  /// Wraps an absorbing chain: every absorbing state becomes a
  /// "restoring" state returning to `healthy` at `restore_rate`.
  /// Preconditions: chain.validate() passes; healthy is transient;
  /// restore_rate > 0.
  [[nodiscard]] static ctmc::Chain make_repairable(
      const ctmc::Chain& absorbing_chain, ctmc::StateId healthy,
      PerHour restore_rate);

  /// Full availability analysis of the absorbing model + restore process.
  [[nodiscard]] static AvailabilityResult analyze(
      const ctmc::Chain& absorbing_chain, ctmc::StateId healthy,
      Hours restore_time);
};

}  // namespace nsrel::models
