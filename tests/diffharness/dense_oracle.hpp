// Dense CTMC oracles over the test-only linear algebra (matrix.hpp,
// lu.hpp): the generator Q, its transient restriction Q_B, the appendix's
// absorption matrix R = -Q_B, a dense stationary solve, and dense
// uniformization. The library never forms these n x n matrices — its
// solvers run in O(S + T) over the chain's transition lists — so the
// tests use them to check those solvers on small chains.
#pragma once

#include <optional>

#include "ctmc/chain.hpp"
#include "diffharness/matrix.hpp"

namespace nsrel::diffharness {

/// Full infinitesimal generator Q: off-diagonal entries are transition
/// rates, diagonal entries make each row sum to zero.
[[nodiscard]] linalg::Matrix generator(const ctmc::Chain& chain);

/// Q_B: Q restricted to the transient states, in
/// Chain::transient_states() order. The diagonal reflects ALL outflow,
/// including flow into absorbing states.
[[nodiscard]] linalg::Matrix transient_generator(const ctmc::Chain& chain);

/// R = -Q_B, the appendix's absorption matrix: positive diagonal,
/// non-positive off-diagonal entries.
[[nodiscard]] linalg::Matrix absorption_matrix(const ctmc::Chain& chain);

/// Stationary distribution of a chain with no absorbing states: dense LU
/// of Q^T with its last row replaced by the normalization sum(pi) = 1.
/// nullopt when that system is singular (a reducible chain).
[[nodiscard]] std::optional<linalg::Vector> stationary_distribution(
    const ctmc::Chain& chain);

/// pi(t) from `initial` by uniformization over the dense kernel
/// P = I + Q / Lambda, Lambda = max_i |q_ii| (1 for a zero-rate chain),
/// truncated once the Poisson weights cover 1 - tol.
/// Preconditions: t_hours >= 0 and Lambda * t_hours finite.
[[nodiscard]] linalg::Vector uniformized_distribution(
    const ctmc::Chain& chain, double t_hours, ctmc::StateId initial,
    double tol = 1e-12);

}  // namespace nsrel::diffharness
