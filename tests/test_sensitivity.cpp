// Tests for the complex-step MTTA sensitivity solver: exact identities
// (time-rescaling elasticity = -1), agreement with central finite
// differences (also at the fault tolerances no LU can solve), and the
// paper's section-7 directions at baseline.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/analyzer.hpp"
#include "ctmc/absorbing.hpp"
#include "ctmc/sensitivity.hpp"
#include "models/no_internal_raid.hpp"
#include "util/assert.hpp"
#include "util/error.hpp"

namespace nsrel::ctmc {
namespace {

Chain repairable_pair(double lambda, double mu) {
  Chain c;
  const StateId s0 = c.add_state("ok");
  const StateId s1 = c.add_state("deg");
  const StateId s2 = c.add_state("loss", StateKind::kAbsorbing);
  c.add_transition(s0, s1, 2.0 * lambda);
  c.add_transition(s1, s0, mu);
  c.add_transition(s1, s2, lambda);
  return c;
}

/// Rebuilds the chain with matched transitions scaled by `theta` and
/// returns its MTTA — the reference for finite differences.
double mtta_scaled(const Chain& chain, StateId initial,
                   const SensitivitySolver::TransitionSelector& selector,
                   double theta) {
  Chain scaled;
  for (StateId s = 0; s < chain.state_count(); ++s) {
    scaled.add_state(chain.state(s).label, chain.state(s).kind);
  }
  for (const auto& t : chain.transitions()) {
    scaled.add_transition(t.from, t.to,
                          selector(t) ? t.rate * theta : t.rate);
  }
  return AbsorbingSolver::mttdl_hours(scaled, initial);
}

double finite_difference(const Chain& chain, StateId initial,
                         const SensitivitySolver::TransitionSelector& s) {
  const double h = 1e-6;
  return (mtta_scaled(chain, initial, s, 1.0 + h) -
          mtta_scaled(chain, initial, s, 1.0 - h)) /
         (2.0 * h);
}

TEST(Sensitivity, ScalingEverythingGivesElasticityMinusOne) {
  // MTTA(theta * all rates) = MTTA / theta exactly.
  const Chain c = repairable_pair(0.01, 5.0);
  const auto all = [](const Transition&) { return true; };
  EXPECT_NEAR(SensitivitySolver::mtta_elasticity(c, 0, all), -1.0, 1e-10);
}

TEST(Sensitivity, DerivativeMatchesFiniteDifference) {
  const Chain c = repairable_pair(0.02, 3.0);
  const auto failures = [](const Transition& t) { return t.rate < 1.0; };
  const auto repairs = [](const Transition& t) { return t.rate >= 1.0; };
  const double fd_failures = finite_difference(c, 0, failures);
  const double fd_repairs = finite_difference(c, 0, repairs);
  EXPECT_NEAR(SensitivitySolver::mtta_derivative(c, 0, failures), fd_failures,
              1e-4 * std::abs(fd_failures));
  EXPECT_NEAR(SensitivitySolver::mtta_derivative(c, 0, repairs), fd_repairs,
              1e-4 * std::abs(fd_repairs));
}

TEST(Sensitivity, SignsAreIntuitive) {
  const Chain c = repairable_pair(0.02, 3.0);
  // Faster failures -> shorter life; faster repairs -> longer life.
  const auto failures = [](const Transition& t) { return t.rate < 1.0; };
  const auto repairs = [](const Transition& t) { return t.rate >= 1.0; };
  EXPECT_LT(SensitivitySolver::mtta_derivative(c, 0, failures), 0.0);
  EXPECT_GT(SensitivitySolver::mtta_derivative(c, 0, repairs), 0.0);
}

TEST(Sensitivity, ElasticitiesDecomposeAcrossDisjointGroups) {
  // Sum of elasticities over a partition of all transitions = -1
  // (Euler's theorem: MTTA is homogeneous of degree -1 in the rates).
  const Chain c = repairable_pair(0.05, 2.0);
  const auto failures = [](const Transition& t) { return t.rate < 1.0; };
  const auto repairs = [](const Transition& t) { return t.rate >= 1.0; };
  const double sum = SensitivitySolver::mtta_elasticity(c, 0, failures) +
                     SensitivitySolver::mtta_elasticity(c, 0, repairs);
  EXPECT_NEAR(sum, -1.0, 1e-9);
}

TEST(Sensitivity, NirBaselineRepairElasticityNearFaultTolerance) {
  // MTTDL ~ mu^k in the closed form, so the repair elasticity at FT2
  // should be close to +2 (slightly below: mu also appears in h terms'
  // denominators only through the flows, not the chain).
  models::NoInternalRaidParams p;
  p.node_set_size = 16;
  p.redundancy_set_size = 8;
  p.fault_tolerance = 2;
  p.drives_per_node = 4;
  p.node_failure = PerHour(1e-5);
  p.drive_failure = PerHour(1e-5);
  p.node_rebuild = PerHour(0.5);
  p.drive_rebuild = PerHour(2.0);
  p.capacity = gigabytes(300.0);
  p.her_per_byte = 0.0;  // isolate the failure path
  const models::NoInternalRaidModel model(p);
  const auto chain = model.chain();
  const auto repairs = [](const Transition& t) { return t.rate >= 0.4; };
  const double elasticity = SensitivitySolver::mtta_elasticity(
      chain, models::NoInternalRaidModel::root_state(), repairs);
  EXPECT_NEAR(elasticity, 2.0, 0.1);
}

TEST(Sensitivity, ValidatesInputs) {
  const Chain c = repairable_pair(0.01, 1.0);
  EXPECT_THROW((void)SensitivitySolver::mtta_derivative(c, 2, nullptr),
               ContractViolation);
}

TEST(Sensitivity, TypedFormMatchesThrowingFormOnHealthyChains) {
  const Chain c = repairable_pair(0.02, 3.0);
  const auto all = [](const Transition&) { return true; };
  const auto typed = SensitivitySolver::try_mtta_derivative(c, 0, all);
  ASSERT_TRUE(typed.has_value());
  EXPECT_DOUBLE_EQ(typed.value(),
                   SensitivitySolver::mtta_derivative(c, 0, all));
  const auto elasticity = SensitivitySolver::try_mtta_elasticity(c, 0, all);
  ASSERT_TRUE(elasticity.has_value());
  EXPECT_NEAR(elasticity.value(), -1.0, 1e-10);
}

TEST(Sensitivity, EmptySelectionHasZeroDerivative) {
  // A selector matching nothing: D = 0, so the derivative is exactly 0
  // (and the elasticity is 0 too — MTTA does not depend on theta).
  const Chain c = repairable_pair(0.05, 2.0);
  const auto none = [](const Transition&) { return false; };
  const auto derivative = SensitivitySolver::try_mtta_derivative(c, 0, none);
  ASSERT_TRUE(derivative.has_value());
  EXPECT_DOUBLE_EQ(derivative.value(), 0.0);
  const auto elasticity = SensitivitySolver::try_mtta_elasticity(c, 0, none);
  ASSERT_TRUE(elasticity.has_value());
  EXPECT_DOUBLE_EQ(elasticity.value(), 0.0);
}

TEST(Sensitivity, ComplexStepMatchesCentralDifferencesAtHighFaultTolerance) {
  // NIR with a 20-node redundancy set at ft 8, 12 and 16 (511 to 131071
  // transient states, MTTDL up to ~1e41 h): far beyond what a dense LU
  // can hold or resolve. The complex step must still agree with central
  // differences of the GTH MTTDL, and the three groups partition every
  // transition, so their elasticities sum to -1 (Euler).
  core::SystemConfig system = core::SystemConfig::baseline();
  system.redundancy_set_size = 20;
  const core::Analyzer analyzer(system);
  for (const int ft : {8, 12, 16}) {
    const core::Configuration configuration{core::InternalScheme::kNone, ft};
    const auto detail = analyzer.analyze(configuration);
    const double mu_n = detail.rebuild.node_rebuild_rate.value();
    const double mu_d = detail.rebuild.drive_rebuild_rate.value();
    const auto built = analyzer.build_chain(configuration);
    const SensitivitySolver::TransitionSelector groups[] = {
        [mu_n](const Transition& t) { return t.rate == mu_n; },
        [mu_d](const Transition& t) { return t.rate == mu_d; },
        [mu_n, mu_d](const Transition& t) {
          return t.rate != mu_n && t.rate != mu_d;
        }};
    const double mtta =
        AbsorbingSolver::mttdl_hours(built.chain, built.healthy);
    double sum = 0.0;
    for (const auto& group : groups) {
      const double elasticity =
          SensitivitySolver::mtta_elasticity(built.chain, built.healthy, group);
      const double central =
          finite_difference(built.chain, built.healthy, group) / mtta;
      EXPECT_NEAR(elasticity, central, 1e-5 * std::abs(central))
          << "ft " << ft;
      sum += elasticity;
    }
    EXPECT_NEAR(sum, -1.0, 1e-9) << "ft " << ft;
  }
}

}  // namespace
}  // namespace nsrel::ctmc
