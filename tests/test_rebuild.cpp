// Tests for the section-5.1 rebuild-rate model: drive service times, link
// throughput, flow accounting and the disk/network bottleneck crossover.
#include <gtest/gtest.h>

#include "rebuild/degraded.hpp"
#include "rebuild/drive_model.hpp"
#include "rebuild/link_model.hpp"
#include "rebuild/planner.hpp"
#include "util/assert.hpp"

namespace nsrel::rebuild {
namespace {

RebuildParams baseline_params() {
  return RebuildParams{};  // defaults are the paper's section-6 baseline
}

TEST(DriveModel, EffectiveRateMatchesServiceTimeModel) {
  const DriveModel drive{DriveParams{}};
  // 128 KiB: 1/150 s seek + 131072/40e6 s transfer.
  const double expected_time = 1.0 / 150.0 + 131072.0 / 40e6;
  EXPECT_NEAR(drive.command_time(kilobytes(128.0)).value(), expected_time,
              1e-12);
  EXPECT_NEAR(drive.effective_rate(kilobytes(128.0)).value(),
              131072.0 / expected_time, 1e-6);
}

TEST(DriveModel, EffectiveRateIncreasesWithCommandSize) {
  const DriveModel drive{DriveParams{}};
  double previous = 0.0;
  for (const double kb : {4.0, 16.0, 64.0, 128.0, 512.0, 1024.0}) {
    const double rate = drive.effective_rate(kilobytes(kb)).value();
    EXPECT_GT(rate, previous) << kb << " KiB";
    previous = rate;
  }
}

TEST(DriveModel, EffectiveRateSaturatesTowardSustained) {
  const DriveModel drive{DriveParams{}};
  EXPECT_LT(drive.effective_rate(megabytes(64.0)).value(), 40e6);
  EXPECT_GT(drive.effective_rate(megabytes(64.0)).value(), 0.9 * 40e6);
  EXPECT_NEAR(drive.efficiency(megabytes(64.0)), 1.0, 0.1);
}

TEST(DriveModel, SmallCommandsAreSeekBound) {
  const DriveModel drive{DriveParams{}};
  // At 4 KiB, throughput is close to B * IOPS.
  const double rate = drive.effective_rate(kilobytes(4.0)).value();
  EXPECT_NEAR(rate, 4096.0 * 150.0, 0.02 * 4096.0 * 150.0);
}

TEST(DriveModel, FailureRateAndHardErrors) {
  const DriveModel drive{DriveParams{}};
  EXPECT_DOUBLE_EQ(drive.failure_rate().value(), 1.0 / 300'000.0);
  // Reading a full 300 GB drive at HER 8e-14/byte: p = 0.024.
  EXPECT_DOUBLE_EQ(drive.hard_error_probability(gigabytes(300.0)), 0.024);
}

TEST(DriveModel, RejectsInvalidParams) {
  DriveParams bad;
  bad.max_iops = 0.0;
  EXPECT_THROW(DriveModel{bad}, ContractViolation);
  DriveParams negative_her;
  negative_her.her_per_byte = -1.0;
  EXPECT_THROW(DriveModel{negative_her}, ContractViolation);
}

TEST(LinkModel, PaperBaselineSustainedRate) {
  const LinkModel link{LinkParams{}};
  // 10 Gb/s raw at 64% efficiency = 800 MB/s, as quoted in section 6.
  EXPECT_NEAR(link.sustained().value(), 800e6, 1.0);
}

TEST(LinkModel, ScalesLinearlyWithRawSpeed) {
  LinkParams one;
  one.raw_speed = gigabits_per_second(1.0);
  const LinkModel link{one};
  EXPECT_NEAR(link.sustained().value(), 80e6, 1.0);
}

TEST(LinkModel, RejectsInvalidEfficiency) {
  LinkParams bad;
  bad.efficiency = 0.0;
  EXPECT_THROW(LinkModel{bad}, ContractViolation);
  bad.efficiency = 1.5;
  EXPECT_THROW(LinkModel{bad}, ContractViolation);
}

TEST(Planner, FlowAccountingMatchesSection51) {
  // N=64, R=8, t=2: rebuilt 1/63, received/sourced 6/63, in+out 12/63,
  // disk traffic 7/63, interconnect total 6.
  const RebuildPlanner planner(baseline_params());
  const DataFlows f = planner.flows();
  EXPECT_DOUBLE_EQ(f.rebuilt_per_node, 1.0 / 63.0);
  EXPECT_DOUBLE_EQ(f.received_per_node, 6.0 / 63.0);
  EXPECT_DOUBLE_EQ(f.sourced_per_node, 6.0 / 63.0);
  EXPECT_DOUBLE_EQ(f.node_network_inout, 12.0 / 63.0);
  EXPECT_DOUBLE_EQ(f.node_disk_traffic, 7.0 / 63.0);
  EXPECT_DOUBLE_EQ(f.interconnect_total, 6.0);
}

TEST(Planner, FlowConservation) {
  // Total received across survivors equals total sourced (section 5.1).
  for (int t = 1; t <= 3; ++t) {
    RebuildParams p = baseline_params();
    p.fault_tolerance = t;
    const DataFlows f = RebuildPlanner(p).flows();
    const double survivors = p.node_set_size - 1;
    EXPECT_NEAR(f.received_per_node * survivors, f.interconnect_total, 1e-12);
    EXPECT_NEAR(f.sourced_per_node * survivors, f.interconnect_total, 1e-12);
  }
}

TEST(Planner, NodeDataAccounting) {
  const RebuildPlanner planner(baseline_params());
  EXPECT_DOUBLE_EQ(planner.node_data().value(), 12.0 * 3e11 * 0.75);
  EXPECT_DOUBLE_EQ(planner.drive_data().value(), 3e11 * 0.75);
}

TEST(Planner, BaselineIsDiskBound) {
  // Paper: at 10 Gb/s the rebuild is constrained by the drives.
  const RebuildPlanner planner(baseline_params());
  EXPECT_GT(planner.node_disk_time().value(),
            planner.node_network_time().value());
  EXPECT_EQ(planner.rates().node_bottleneck, Bottleneck::kDisk);
}

TEST(Planner, OneGigabitIsNetworkBound) {
  RebuildParams p = baseline_params();
  p.link.raw_speed = gigabits_per_second(1.0);
  const RebuildPlanner planner(p);
  EXPECT_EQ(planner.rates().node_bottleneck, Bottleneck::kNetwork);
}

TEST(Planner, CrossoverNearThreeGigabit) {
  // Paper: "constrained by the link speed up to around 3 Gb/s".
  const RebuildPlanner planner(baseline_params());
  const double crossover_gbps =
      planner.link_speed_crossover().value() / 1e9;
  EXPECT_GT(crossover_gbps, 2.0);
  EXPECT_LT(crossover_gbps, 4.5);
}

TEST(Planner, CrossoverIsConsistent) {
  // Just below the crossover: network-bound; just above: disk-bound.
  const RebuildPlanner baseline(baseline_params());
  const double crossover = baseline.link_speed_crossover().value();
  RebuildParams below = baseline_params();
  below.link.raw_speed = BitsPerSecond(crossover * 0.95);
  RebuildParams above = baseline_params();
  above.link.raw_speed = BitsPerSecond(crossover * 1.05);
  EXPECT_EQ(RebuildPlanner(below).rates().node_bottleneck,
            Bottleneck::kNetwork);
  EXPECT_EQ(RebuildPlanner(above).rates().node_bottleneck, Bottleneck::kDisk);
}

TEST(Planner, RatesAboveCrossoverAreLinkInsensitive) {
  // Figure 17: no reliability difference between 5 and 10 Gb/s.
  RebuildParams five = baseline_params();
  five.link.raw_speed = gigabits_per_second(5.0);
  RebuildParams ten = baseline_params();
  ten.link.raw_speed = gigabits_per_second(10.0);
  EXPECT_DOUBLE_EQ(RebuildPlanner(five).rates().node_rebuild_rate.value(),
                   RebuildPlanner(ten).rates().node_rebuild_rate.value());
}

TEST(Planner, DriveRebuildIsDTimesFaster) {
  const RebuildPlanner planner(baseline_params());
  const RebuildRates r = planner.rates();
  EXPECT_NEAR(r.drive_rebuild_rate.value(),
              12.0 * r.node_rebuild_rate.value(), 1e-9);
}

TEST(Planner, BaselineRatesAreInExpectedRanges) {
  const RebuildPlanner planner(baseline_params());
  const RebuildRates r = planner.rates();
  // Node rebuild ~5.3 hours at baseline (disk-bound).
  EXPECT_NEAR(to_hours(r.node_rebuild_time).value(), 5.27, 0.3);
  // Re-stripe ~39 hours (2 * 225 GB per drive at ~3.2 MB/s).
  EXPECT_NEAR(to_hours(r.restripe_time).value(), 39.0, 3.0);
  // Rates are reciprocals.
  EXPECT_NEAR(r.node_rebuild_rate.value(),
              1.0 / to_hours(r.node_rebuild_time).value(), 1e-12);
  EXPECT_NEAR(r.restripe_rate.value(),
              1.0 / to_hours(r.restripe_time).value(), 1e-12);
}

TEST(Planner, LargerRebuildCommandsSpeedUpRebuild) {
  // Figure 16's mechanism: bigger blocks -> higher effective drive rate.
  double previous_rate = 0.0;
  for (const double kb : {4.0, 16.0, 64.0, 256.0, 1024.0}) {
    RebuildParams p = baseline_params();
    p.rebuild_command = kilobytes(kb);
    const double rate = RebuildPlanner(p).rates().node_rebuild_rate.value();
    EXPECT_GT(rate, previous_rate) << kb << " KiB";
    previous_rate = rate;
  }
}

TEST(Planner, HigherFaultToleranceMovesLessData) {
  // R-t inputs per stripe: higher t means fewer survivors must be read.
  RebuildParams t1 = baseline_params();
  t1.fault_tolerance = 1;
  RebuildParams t3 = baseline_params();
  t3.fault_tolerance = 3;
  EXPECT_GT(RebuildPlanner(t3).rates().node_rebuild_rate.value(),
            RebuildPlanner(t1).rates().node_rebuild_rate.value());
}

TEST(Degraded, BaselineImpactValues) {
  DegradedParams p;
  p.rebuild = baseline_params();
  const DegradedImpact impact = DegradedModel(p).impact();
  // 10% reserved for rebuild.
  EXPECT_DOUBLE_EQ(impact.foreground_share, 0.90);
  // 1 + (R-t-1)/N = 1 + 5/64.
  EXPECT_NEAR(impact.read_amplification, 1.0 + 5.0 / 64.0, 1e-12);
  // 64 node failures/400kh x 5.27h + 768 drive failures/300kh x 0.44h
  // ~= 0.00197 of calendar time rebuilding.
  EXPECT_NEAR(impact.rebuilding_fraction, 0.00197, 0.0003);
  // Net long-run throughput loss is a fraction of a percent.
  EXPECT_GT(impact.throughput_efficiency, 0.999);
  EXPECT_LT(impact.throughput_efficiency, 1.0);
}

TEST(Degraded, MatchesAvailabilityDegradedFraction) {
  // The rebuilding fraction computed here agrees with the degraded
  // share of the availability model (same physics, two derivations) —
  // cross-checked in test_availability at ~0.2%.
  DegradedParams p;
  p.rebuild = baseline_params();
  const DegradedImpact impact = DegradedModel(p).impact();
  EXPECT_GT(impact.rebuilding_fraction, 0.001);
  EXPECT_LT(impact.rebuilding_fraction, 0.01);
}

TEST(Degraded, WorseHardwareMeansMoreRebuilding) {
  DegradedParams good;
  good.rebuild = baseline_params();
  DegradedParams bad = good;
  bad.node_mttf = Hours(100'000.0);
  bad.rebuild.drive.mttf = Hours(100'000.0);
  const double good_fraction = DegradedModel(good).impact().rebuilding_fraction;
  const double bad_fraction = DegradedModel(bad).impact().rebuilding_fraction;
  EXPECT_GT(bad_fraction, 2.5 * good_fraction);
  EXPECT_LT(DegradedModel(bad).impact().throughput_efficiency,
            DegradedModel(good).impact().throughput_efficiency);
}

TEST(Degraded, BiggerRebuildBudgetTradesForegroundForExposure) {
  // Doubling the rebuild bandwidth fraction halves rebuild windows but
  // takes twice the bandwidth while they run.
  DegradedParams narrow;
  narrow.rebuild = baseline_params();
  DegradedParams wide = narrow;
  wide.rebuild.rebuild_bandwidth_fraction = 0.20;
  const DegradedImpact n_impact = DegradedModel(narrow).impact();
  const DegradedImpact w_impact = DegradedModel(wide).impact();
  EXPECT_LT(w_impact.foreground_share, n_impact.foreground_share);
  EXPECT_LT(w_impact.rebuilding_fraction, n_impact.rebuilding_fraction);
}

TEST(Planner, RejectsInvalidConfigurations) {
  RebuildParams p = baseline_params();
  p.fault_tolerance = 8;  // t >= R
  EXPECT_THROW(RebuildPlanner{p}, ContractViolation);
  p = baseline_params();
  p.node_set_size = 1;
  EXPECT_THROW(RebuildPlanner{p}, ContractViolation);
  p = baseline_params();
  p.rebuild_bandwidth_fraction = 0.0;
  EXPECT_THROW(RebuildPlanner{p}, ContractViolation);
}

}  // namespace
}  // namespace nsrel::rebuild
