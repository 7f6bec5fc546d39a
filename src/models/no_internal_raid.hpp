// Node-level models for nodes WITHOUT internal RAID (paper section 4.3,
// Figures 8, 9, 10, and the appendix's recursive construction for
// arbitrary node fault tolerance k).
//
// Without internal RAID, drive failures and node failures are distinct
// degraded states, so the chain is a binary tree of failure words over
// {N, d}: the state "Nd0" means a node failure followed by a drive failure
// with one more failure tolerated. Each state at depth j < k fails further
// at rate (N-j)(lambda_N + d lambda_d) split by failure type; the last
// tolerated transition pre-samples whether the in-progress critical
// rebuild will encounter a hard error (the h_alpha parameters of section
// 5.2.2); full-depth states absorb at rate (N-k)(lambda_N + d lambda_d);
// repairs undo the most recent failure at mu_N or mu_d.
//
// The chain is built by one walk over the failure words in preorder
// (root, N-subtree, d-subtree), emitted into one of two sinks: a labelled
// ctmc::Chain (chain(), for `nsrel chain`, availability, sensitivity and
// the simulator) or the GTH kernel's rows (kernel_rows(), which
// mttdl_exact() solves without building a Chain). Both see the same
// states, edges, order and rate bits. The preorder numbering is the
// appendix's block order, so chain()'s absorption matrix is the block
// recursion R^(k) state for state. The recursion itself is kept only as a test oracle
// (tests/diffharness/appendix_oracle.*) that rebuilds R^(k) and checks
// chain() against it entry by entry.
#pragma once

#include <vector>

#include "combinat/critical_sets.hpp"
#include "ctmc/chain.hpp"
#include "ctmc/elimination.hpp"
#include "models/internal_raid.hpp"  // RepairPolicy
#include "util/units.hpp"

namespace nsrel::models {

struct NoInternalRaidParams {
  int node_set_size = 64;       ///< N
  int redundancy_set_size = 8;  ///< R
  int fault_tolerance = 2;      ///< k across nodes
  int drives_per_node = 12;     ///< d
  PerHour node_failure{0.0};    ///< lambda_N
  PerHour drive_failure{0.0};   ///< lambda_d
  PerHour node_rebuild{0.0};    ///< mu_N
  PerHour drive_rebuild{0.0};   ///< mu_d (distributed drive rebuild)
  Bytes capacity = gigabytes(300.0);  ///< C per drive
  double her_per_byte = 8e-14;        ///< HER, errors per byte read
  /// kSingle repairs only the most recent failure (the paper's chains);
  /// kConcurrent repairs every outstanding failure at its own rate (the
  /// appendix recursion and the closed forms assume kSingle).
  RepairPolicy repair_policy = RepairPolicy::kSingle;
};

class NoInternalRaidModel {
 public:
  /// Preconditions: k >= 1, k < R <= N, N > k, d >= 1, rates > 0,
  /// fault_tolerance <= 16. The absorption matrix has 2^(k+1)-1 states
  /// (131071 at the k=16 cap); chain() and mttdl_exact() are linear in
  /// that size. At k=16 mttdl_exact() takes about 25 ms and chain() about
  /// 80 ms (4-vCPU VM, RelWithDebInfo).
  explicit NoInternalRaidModel(const NoInternalRaidParams& params);

  [[nodiscard]] const NoInternalRaidParams& params() const { return params_; }

  /// h-parameter family for this configuration (section 5.2.2).
  [[nodiscard]] combinat::HParams h_params() const;

  /// The exact chain. State 0 is the absorbing data-loss state "A"; the
  /// fully-operational root follows at state 1 (see root_state()).
  [[nodiscard]] ctmc::Chain chain() const;

  /// Id of the fully-operational root state within chain().
  [[nodiscard]] static ctmc::StateId root_state() { return 1; }

  /// The same walk as chain(), emitted straight into the GTH kernel's
  /// rows: no labels, no Chain. State ids, edge order and rate bits are
  /// chain()'s, so jump_system() of these rows equals that of
  /// ctmc::kernel_rows(chain()) bit for bit.
  [[nodiscard]] ctmc::RowSink<double> kernel_rows() const;

  /// MTTDL by numerically solving the exact chain (GTH elimination over
  /// kernel_rows(); no Chain is built).
  [[nodiscard]] Hours mttdl_exact() const;

  /// The paper's closed-form approximation. For k = 1, 2, 3 this equals
  /// the printed formulas (section 4.3 and Figure 12); for larger k it is
  /// the appendix theorem's general form with the L_k recursion.
  [[nodiscard]] Hours mttdl_closed_form() const;

 private:
  NoInternalRaidParams params_;
};

/// The appendix's L_k recursion: L(x,y) = x*lambda_N + y*d*lambda_d,
/// L_1(H) = L(H[0], H[1]),
/// L_k(H) = L(mu_d * L_{k-1}(first half), mu_N * L_{k-1}(second half)).
/// `h_values` must have size 2^k, ordered as combinat::h_set.
[[nodiscard]] double l_recursion(int k, const std::vector<double>& h_values,
                                 double lambda_n, double d_lambda_d,
                                 double mu_n, double mu_d);

}  // namespace nsrel::models
