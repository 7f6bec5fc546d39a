// The appendix's block recursion R^(k) for the no-internal-RAID model,
// kept as an independent test oracle for NoInternalRaidModel::chain().
//
// The model builds its chain by walking failure words; this file builds
// the absorption matrix R = -Q_B straight from the appendix equations
// (A.4: R_x^(k) = R^(k-1)(N-1, h_x . h^(k-1)) + mu_x * U) and the exact
// per-state absorption rates, in the same root / N-subtree / d-subtree
// state order. The differential harness checks the chain against it
// entry by entry. Single (LIFO) repair only: the appendix's block
// structure encodes it.
#pragma once

#include <vector>

#include "diffharness/sparse_matrix.hpp"
#include "models/no_internal_raid.hpp"

namespace nsrel::diffharness {

/// R^(k) for the model's parameters (dimension 2^(k+1)-1) and each
/// state's absorption rate, both in the appendix's recursive state order.
struct AppendixSystem {
  linalg::sparse::CsrMatrix r;
  std::vector<double> absorption_rates;
};

/// Preconditions: the model uses RepairPolicy::kSingle.
[[nodiscard]] AppendixSystem appendix_system(
    const models::NoInternalRaidModel& model);

}  // namespace nsrel::diffharness
