#include "diffharness/appendix_oracle.hpp"

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "combinat/critical_sets.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"

namespace nsrel::diffharness {

namespace {

using models::NoInternalRaidParams;

/// Appendix block recursion for R^(k), emitted as triplets at offset
/// `base` into `out`. `h` spans the 2^k h_alpha values for this subtree,
/// in combinat::h_set order. The parent's mu contribution to a
/// sub-block root's diagonal is pushed AFTER the sub-block's own
/// entries, so CsrMatrix::from_triplets (which accumulates duplicates in
/// triplet order) computes the appendix's `R^(k-1) + mu * U` sum.
/// Returns the block's dimension.
std::size_t append_absorption_triplets(
    int k, double n_eff, const NoInternalRaidParams& p,
    std::span<const double> h, std::uint32_t base,
    std::vector<linalg::sparse::Triplet>& out) {
  NSREL_ASSERT(h.size() == (std::size_t{1} << k));
  const double lambda_n = p.node_failure.value();
  const double d_lambda_d =
      static_cast<double>(p.drives_per_node) * p.drive_failure.value();
  const double mu_n = p.node_rebuild.value();
  const double mu_d = p.drive_rebuild.value();

  if (k == 1) {
    // Same saturation as ChainBuilder so the two constructions agree.
    const double h_n = saturated_probability(h[0]);
    const double h_d = saturated_probability(h[1]);
    const double exhausted = (n_eff - 1.0) * (lambda_n + d_lambda_d);
    out.push_back({base, base, n_eff * (lambda_n + d_lambda_d)});
    out.push_back({base, base + 1, -n_eff * lambda_n * (1.0 - h_n)});
    out.push_back({base, base + 2, -n_eff * d_lambda_d * (1.0 - h_d)});
    out.push_back({base + 1, base, -mu_n});
    out.push_back({base + 1, base + 1, mu_n + exhausted});
    out.push_back({base + 2, base, -mu_d});
    out.push_back({base + 2, base + 2, mu_d + exhausted});
    return 3;
  }

  const std::size_t half = h.size() / 2;
  const std::uint32_t sub =
      static_cast<std::uint32_t>((std::size_t{1} << k) - 1);
  // r^(k): the root of a k>1 block has no direct absorption.
  out.push_back({base, base, n_eff * (lambda_n + d_lambda_d)});
  out.push_back({base, base + 1, -n_eff * lambda_n});
  out.push_back({base, base + 1 + sub, -n_eff * d_lambda_d});
  out.push_back({base + 1, base, -mu_n});
  out.push_back({base + 1 + sub, base, -mu_d});
  // R_x^(k) = R^(k-1)(N-1, h_x . h^(k-1)) + mu_x * U  (appendix A.4).
  const std::size_t sub_n = append_absorption_triplets(
      k - 1, n_eff - 1.0, p, h.first(half), base + 1, out);
  out.push_back({base + 1, base + 1, mu_n});
  const std::size_t sub_d = append_absorption_triplets(
      k - 1, n_eff - 1.0, p, h.last(half), base + 1 + sub, out);
  out.push_back({base + 1 + sub, base + 1 + sub, mu_d});
  NSREL_ASSERT(sub_n == sub && sub_d == sub);
  return 2 * std::size_t{sub} + 1;
}

/// Absorption rates per state, in the same recursive state order as
/// append_absorption_triplets. Only the bottom two levels absorb: depth
/// k-1 states via the pre-sampled hard-error flow, depth k states via any
/// further failure.
void append_absorption_rates(int k, double n_eff,
                             const NoInternalRaidParams& p,
                             std::span<const double> h,
                             std::vector<double>& out) {
  const double lambda_n = p.node_failure.value();
  const double d_lambda_d =
      static_cast<double>(p.drives_per_node) * p.drive_failure.value();
  if (k == 1) {
    const double h_n = saturated_probability(h[0]);
    const double h_d = saturated_probability(h[1]);
    out.push_back(n_eff * (lambda_n * h_n + d_lambda_d * h_d));
    out.push_back((n_eff - 1.0) * (lambda_n + d_lambda_d));
    out.push_back((n_eff - 1.0) * (lambda_n + d_lambda_d));
    return;
  }
  out.push_back(0.0);  // the root of a k>1 block never absorbs directly
  const std::size_t half = h.size() / 2;
  append_absorption_rates(k - 1, n_eff - 1.0, p, h.first(half), out);
  append_absorption_rates(k - 1, n_eff - 1.0, p, h.last(half), out);
}

}  // namespace

AppendixSystem appendix_system(const models::NoInternalRaidModel& model) {
  const NoInternalRaidParams& p = model.params();
  NSREL_EXPECTS(p.repair_policy == models::RepairPolicy::kSingle);
  const std::vector<double> h = combinat::h_set(model.h_params());
  const std::size_t dim = (std::size_t{2} << p.fault_tolerance) - 1;
  const double n = static_cast<double>(p.node_set_size);
  std::vector<linalg::sparse::Triplet> triplets;
  // Each state row holds at most 3 structural entries plus the parent's
  // mu contribution.
  triplets.reserve(4 * dim);
  const std::size_t built =
      append_absorption_triplets(p.fault_tolerance, n, p, h, 0, triplets);
  NSREL_ENSURES(built == dim);
  AppendixSystem system;
  system.r = linalg::sparse::CsrMatrix::from_triplets(dim, dim, triplets);
  system.absorption_rates.reserve(dim);
  append_absorption_rates(p.fault_tolerance, n, p, h,
                          system.absorption_rates);
  NSREL_ENSURES(system.absorption_rates.size() == dim);
  return system;
}

}  // namespace nsrel::diffharness
