// Availability extension: what happens AFTER a data-loss event.
//
// The paper's models are absorbing — they stop at the first loss. A
// deployed system restores the lost data from a backup tier and continues,
// so the operational questions become: what fraction of time is data
// available (steady-state availability), how many minutes per year are
// lost, and how much time does the system spend rebuilding (degraded
// exposure)? Each loss starts a restore of mean length T_r, after which
// the system is back at full health: a renewal cycle of mean length
// MTTDL + T_r. Renewal-reward then gives every long-run fraction from
// the absorbing chain alone:
//     lost fraction     = T_r / (MTTDL + T_r),   A = 1 - lost fraction,
//     degraded fraction = sum_{j != healthy} tau_j / (MTTDL + T_r),
// with MTTDL and the occupancy times tau from one cancellation-free GTH
// elimination (ctmc/elimination.hpp). Both numerators are sums of
// non-negative terms, so the downtime and the degraded share stay
// positive and accurate at any fault tolerance.
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
  /// Full availability analysis of the absorbing model + restore process.
  /// Preconditions: chain.validate() passes; healthy is transient;
  /// restore_time > 0.
  [[nodiscard]] static AvailabilityResult analyze(
      const ctmc::Chain& absorbing_chain, ctmc::StateId healthy,
      Hours restore_time);
};

}  // namespace nsrel::models
