// Ablation (appendix): the recursive construction at arbitrary fault
// tolerance k. Compares, for k = 1..6:
//   - the exact chain solve (2^(k+1)-1 states),
//   - the general theorem's closed form (L_k recursion),
//   - and for k <= 3, the printed section-4.3 / Figure-12 formulas.
#include <chrono>
#include <cstddef>
#include <string>

#include "bench_common.hpp"

#include "models/closed_forms.hpp"
#include "models/no_internal_raid.hpp"

int main(int argc, char** argv) {
  using namespace nsrel;
  bench::init(argc, argv, "ablation_recursive_k");
  bench::preamble("Ablation", "recursive solution for arbitrary k");

  report::Table table({"k", "states", "exact chain (h)",
                       "theorem closed form", "printed formula",
                       "closed/exact", "solve us"});
  for (int k = 1; k <= 6; ++k) {
    models::NoInternalRaidParams p;
    p.node_set_size = 64;
    p.redundancy_set_size = 12;  // wide enough for k up to 6
    p.fault_tolerance = k;
    p.drives_per_node = 12;
    p.node_failure = PerHour(1.0 / 400'000.0);
    p.drive_failure = PerHour(1.0 / 300'000.0);
    p.node_rebuild = PerHour(0.19);
    p.drive_rebuild = PerHour(2.28);
    p.capacity = gigabytes(300.0);
    p.her_per_byte = 8e-14;

    const models::NoInternalRaidModel model(p);
    const auto start = std::chrono::steady_clock::now();
    const double exact = model.mttdl_exact().value();
    const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    const double theorem = model.mttdl_closed_form().value();
    std::string printed = "-";
    if (k == 1) printed = sci(models::nir_ft1_printed(p).value());
    if (k == 2) printed = sci(models::nir_ft2_printed(p).value());
    if (k == 3) printed = sci(models::nir_ft3_printed(p).value());

    table.add_row({std::to_string(k),
                   std::to_string((std::size_t{2} << k) - 1), sci(exact),
                   sci(theorem), printed,
                   fixed(theorem / exact, 4),
                   std::to_string(elapsed)});
  }
  table.print(std::cout);
  std::cout << "(theorem tracks exact within the mu >> N*lambda regime)\n";
  return bench::finish();
}
