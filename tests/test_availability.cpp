// Tests for the availability extension: the renewal-reward identities
// A = MTTDL/(MTTDL + MTTR) and degraded = sum tau / (MTTDL + MTTR)
// against a dense stationary solve of the restart chain, and
// plausibility at the paper's baseline.
#include <gtest/gtest.h>

#include <vector>

#include "core/analyzer.hpp"
#include "ctmc/absorbing.hpp"
#include "diffharness/dense_oracle.hpp"
#include "models/availability.hpp"
#include "models/internal_raid.hpp"
#include "models/no_internal_raid.hpp"
#include "util/assert.hpp"

namespace nsrel::models {
namespace {

ctmc::Chain simple_loss_chain(double lambda, double mu) {
  ctmc::Chain c;
  const auto s0 = c.add_state("ok");
  const auto s1 = c.add_state("deg");
  const auto s2 = c.add_state("lost", ctmc::StateKind::kAbsorbing);
  c.add_transition(s0, s1, 2.0 * lambda);
  c.add_transition(s1, s0, mu);
  c.add_transition(s1, s2, lambda);
  return c;
}

/// The absorbing chain with its loss state restored to `ok` at
/// 1 / restore_hours: the irreducible restart chain whose stationary
/// distribution the renewal-reward identities predict.
ctmc::Chain restart_chain(const ctmc::Chain& absorbing, double restore_hours) {
  ctmc::Chain c;
  for (ctmc::StateId s = 0; s < absorbing.state_count(); ++s) {
    c.add_state(absorbing.state(s).label);
  }
  for (const auto& t : absorbing.transitions()) {
    c.add_transition(t.from, t.to, t.rate);
  }
  for (const ctmc::StateId lost : absorbing.absorbing_states()) {
    c.add_transition(lost, 0, 1.0 / restore_hours);
  }
  return c;
}

TEST(Availability, RenewalRewardIdentityHoldsExactly) {
  // A = MTTDL / (MTTDL + restore_time): cycles of up-time (mean MTTDL)
  // and down-time (mean restore_time) renew at each restore; the
  // degraded share is the cycle's expected degraded time over its
  // length. On this well-conditioned chain a dense stationary solve of
  // the restart chain resolves every state, and must agree.
  for (const double restore_hours : {1.0, 24.0, 720.0}) {
    const ctmc::Chain absorbing = simple_loss_chain(0.01, 1.0);
    const double mttdl = ctmc::AbsorbingSolver::mttdl_hours(absorbing, 0);
    const AvailabilityResult result =
        AvailabilityModel::analyze(absorbing, 0, Hours(restore_hours));
    const double expected = mttdl / (mttdl + restore_hours);
    EXPECT_NEAR(result.availability, expected, 1e-9 * expected)
        << restore_hours;
    EXPECT_NEAR(result.mttdl.value(), mttdl, 1e-9 * mttdl);
    const auto pi = diffharness::stationary_distribution(
        restart_chain(absorbing, restore_hours));
    ASSERT_TRUE(pi.has_value());
    EXPECT_NEAR(1.0 - (*pi)[2], expected, 1e-9 * expected) << restore_hours;
    EXPECT_NEAR(result.degraded_fraction, (*pi)[1], 1e-9 * (*pi)[1])
        << restore_hours;
  }
}

TEST(Availability, DowntimeIsPositiveAtEveryFaultTolerance) {
  // Highly reliable chains put the lost state's stationary probability
  // far below what an LU solve resolves; the downtime must still be the
  // positive renewal-reward value T_r / (MTTDL + T_r) with MTTDL from
  // the analyze() path.
  core::SystemConfig system = core::SystemConfig::baseline();
  system.redundancy_set_size = 16;
  const core::Analyzer analyzer(system);
  std::vector<core::Configuration> configurations;
  for (int ft = 1; ft <= 8; ++ft) {
    configurations.push_back({core::InternalScheme::kNone, ft});
  }
  for (const auto scheme :
       {core::InternalScheme::kRaid5, core::InternalScheme::kRaid6}) {
    for (int ft = 1; ft <= 3; ++ft) configurations.push_back({scheme, ft});
  }
  const double restore_hours = 24.0;
  for (const core::Configuration& configuration : configurations) {
    const auto built = analyzer.build_chain(configuration);
    const AvailabilityResult result = AvailabilityModel::analyze(
        built.chain, built.healthy, Hours(restore_hours));
    const double mttdl = analyzer.analyze(configuration).mttdl.value();
    const double expected =
        restore_hours / (mttdl + restore_hours) * kHoursPerYear * 60.0;
    EXPECT_GT(result.downtime_minutes_per_year, 0.0)
        << core::name(configuration);
    EXPECT_NEAR(result.downtime_minutes_per_year, expected, 1e-12 * expected)
        << core::name(configuration);
  }
}

TEST(Availability, DowntimeMinutesConsistentWithAvailability) {
  const ctmc::Chain absorbing = simple_loss_chain(0.05, 0.5);
  const AvailabilityResult result =
      AvailabilityModel::analyze(absorbing, 0, Hours(48.0));
  EXPECT_NEAR(result.downtime_minutes_per_year,
              (1.0 - result.availability) * kHoursPerYear * 60.0, 1e-9);
}

TEST(Availability, DegradedFractionMatchesRateRatio) {
  // In the simple chain, long-run P(degraded)/P(ok) ~ 2*lambda/mu when
  // loss is rare.
  const double lambda = 1e-4;
  const double mu = 1.0;
  const ctmc::Chain absorbing = simple_loss_chain(lambda, mu);
  const AvailabilityResult result =
      AvailabilityModel::analyze(absorbing, 0, Hours(1.0));
  EXPECT_NEAR(result.degraded_fraction, 2.0 * lambda / mu,
              0.01 * 2.0 * lambda / mu);
}

TEST(Availability, BaselineNirFt2FiveNines) {
  // At the paper's baseline, FT2-NIR has MTTDL ~ 1.4e7 h; even a week-long
  // restore from backup leaves many nines of availability.
  const core::Analyzer analyzer(core::SystemConfig::baseline());
  const auto detail = analyzer.analyze({core::InternalScheme::kNone, 2});
  NoInternalRaidParams p;
  const auto& sys = analyzer.config();
  p.node_set_size = sys.node_set_size;
  p.redundancy_set_size = sys.redundancy_set_size;
  p.fault_tolerance = 2;
  p.drives_per_node = sys.drives_per_node;
  p.node_failure = rate_of(sys.node_mttf);
  p.drive_failure = rate_of(sys.drive.mttf);
  p.node_rebuild = detail.rebuild.node_rebuild_rate;
  p.drive_rebuild = detail.rebuild.drive_rebuild_rate;
  p.capacity = sys.drive.capacity;
  p.her_per_byte = sys.drive.her_per_byte;
  const NoInternalRaidModel model(p);
  const AvailabilityResult result = AvailabilityModel::analyze(
      model.chain(), NoInternalRaidModel::root_state(),
      Hours(7.0 * 24.0));
  EXPECT_GT(result.availability, 0.99998);
  EXPECT_LT(result.availability, 1.0);
  // The system is rebuilding a meaningful fraction of the time: 64 node
  // failures/400kh at ~5.3 h rebuilds plus 768 drive failures/300kh at
  // ~0.44 h rebuilds => ~0.2% of hours have a rebuild in flight.
  EXPECT_GT(result.degraded_fraction, 0.001);
  EXPECT_LT(result.degraded_fraction, 0.01);
}

TEST(Availability, ShorterRestoreImprovesAvailability) {
  const ctmc::Chain absorbing = simple_loss_chain(0.05, 0.5);
  const double fast =
      AvailabilityModel::analyze(absorbing, 0, Hours(1.0)).availability;
  const double slow =
      AvailabilityModel::analyze(absorbing, 0, Hours(100.0)).availability;
  EXPECT_GT(fast, slow);
}

TEST(Availability, ValidatesInputs) {
  const ctmc::Chain absorbing = simple_loss_chain(0.01, 1.0);
  EXPECT_THROW((void)AvailabilityModel::analyze(absorbing, 2, Hours(1.0)),
               ContractViolation);
  EXPECT_THROW((void)AvailabilityModel::analyze(absorbing, 3, Hours(1.0)),
               ContractViolation);
  EXPECT_THROW((void)AvailabilityModel::analyze(absorbing, 0, Hours(0.0)),
               ContractViolation);
}

}  // namespace
}  // namespace nsrel::models
