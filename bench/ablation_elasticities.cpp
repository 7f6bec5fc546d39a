// Ablation (extension): exact MTTDL elasticities at the baseline point —
// "% change in MTTDL per % change in each rate" — computed by
// ctmc::SensitivitySolver's complex-step differentiation. This is the
// local, exact version of the paper's section-7 sensitivity sweeps: one
// table shows at a glance which knob each configuration actually
// responds to, and the row sums check Euler's identity (homogeneity
// degree -1 in the rates).
#include "bench_common.hpp"

#include "ctmc/sensitivity.hpp"
#include "models/internal_raid.hpp"
#include "models/no_internal_raid.hpp"

int main(int argc, char** argv) {
  using namespace nsrel;
  bench::init(argc, argv, "ablation_elasticities");
  bench::preamble("Ablation", "exact MTTDL elasticities at baseline");

  const core::Analyzer analyzer(core::SystemConfig::baseline());
  const core::SystemConfig& sys = analyzer.config();

  report::Table table({"configuration", "failures", "node repairs",
                       "drive repairs", "sum (Euler: -1)"});

  for (const auto& configuration : core::sensitivity_configurations()) {
    const auto detail = analyzer.analyze(configuration);
    ctmc::Chain chain;
    ctmc::StateId root = 0;
    double mu_n = detail.rebuild.node_rebuild_rate.value();
    double mu_d = detail.rebuild.drive_rebuild_rate.value();
    if (configuration.internal == core::InternalScheme::kNone) {
      models::NoInternalRaidParams p;
      p.node_set_size = sys.node_set_size;
      p.redundancy_set_size = sys.redundancy_set_size;
      p.fault_tolerance = configuration.node_fault_tolerance;
      p.drives_per_node = sys.drives_per_node;
      p.node_failure = rate_of(sys.node_mttf);
      p.drive_failure = rate_of(sys.drive.mttf);
      p.node_rebuild = detail.rebuild.node_rebuild_rate;
      p.drive_rebuild = detail.rebuild.drive_rebuild_rate;
      p.capacity = sys.drive.capacity;
      p.her_per_byte = sys.drive.her_per_byte;
      chain = models::NoInternalRaidModel(p).chain();
      root = models::NoInternalRaidModel::root_state();
    } else {
      models::InternalRaidParams p;
      p.node_set_size = sys.node_set_size;
      p.redundancy_set_size = sys.redundancy_set_size;
      p.fault_tolerance = configuration.node_fault_tolerance;
      p.node_failure = rate_of(sys.node_mttf);
      p.node_rebuild = detail.rebuild.node_rebuild_rate;
      p.array_failure = detail.array_failure_rate;
      p.sector_error = detail.sector_error_rate;
      chain = models::InternalRaidNodeModel(p).chain();
      mu_d = 0.0;  // no drive-repair transitions in the IR chain
    }

    // Classify transitions by rate: repairs are mu_N or mu_d exactly;
    // everything else is a failure/hard-error flow.
    const auto is_node_repair = [mu_n](const ctmc::Transition& t) {
      return t.rate == mu_n;
    };
    const auto is_drive_repair = [mu_d](const ctmc::Transition& t) {
      return mu_d > 0.0 && t.rate == mu_d;
    };
    const auto is_failure = [&](const ctmc::Transition& t) {
      return !is_node_repair(t) && !is_drive_repair(t);
    };

    const double e_fail =
        ctmc::SensitivitySolver::mtta_elasticity(chain, root, is_failure);
    const double e_node =
        ctmc::SensitivitySolver::mtta_elasticity(chain, root, is_node_repair);
    const double e_drive =
        mu_d > 0.0 ? ctmc::SensitivitySolver::mtta_elasticity(chain, root,
                                                              is_drive_repair)
                   : 0.0;
    table.add_row({core::name(configuration), fixed(e_fail, 3),
                   fixed(e_node, 3), fixed(e_drive, 3),
                   fixed(e_fail + e_node + e_drive, 4)});
  }
  table.print(std::cout);
  std::cout
      << "\n(reading: FT2-IR5's +2 node-repair elasticity is Figure 16's\n"
      << " rebuild-block leverage; failure elasticities near -(t+1) echo\n"
      << " the lambda^(t+1) shape of the closed forms)\n";
  return bench::finish();
}
