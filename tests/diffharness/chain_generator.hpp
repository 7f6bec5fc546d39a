// Seeded random-chain generators for the differential-testing harness
// (tests/test_diffharness.cpp): every family the CTMC solvers accept,
// plus deterministic degenerate chains whose solves MUST fail with a
// typed error.
//
// Everything here is a pure function of its Xoshiro256 stream (or fully
// deterministic), so a failing seed reproduces exactly.
#pragma once

#include <cstddef>

#include "ctmc/chain.hpp"
#include "models/no_internal_raid.hpp"
#include "util/rng.hpp"

namespace nsrel::diffharness {

/// Log-uniform rate in [1e-3, 1e3) per hour: wide enough to stress the
/// solvers across six decades, narrow enough that random chains stay
/// well-conditioned (the agreement bound in DESIGN.md §11 assumes this).
[[nodiscard]] double random_rate(Xoshiro256& rng);

/// Absorbing birth-death chain (the internal-RAID shape): `transient`
/// degraded states 0..transient-1, one absorbing loss state. Every state
/// fails forward (so absorption is always reachable); repairs backward
/// appear with probability 0.8 per state.
[[nodiscard]] ctmc::Chain birth_death(Xoshiro256& rng, std::size_t transient);

/// Arbitrary absorbing chain with guaranteed absorption reachability: a
/// forward backbone 0 -> 1 -> ... -> first absorbing state, plus random
/// extra transient-to-transient and transient-to-absorbing edges, each
/// present with probability `extra_density`.
[[nodiscard]] ctmc::Chain random_absorbing(Xoshiro256& rng,
                                           std::size_t transient,
                                           std::size_t absorbing,
                                           double extra_density);

/// Irreducible chain (no absorbing states) for the stationary solver: a
/// directed cycle over all n states plus random extra edges with
/// probability `extra_density` per ordered pair.
[[nodiscard]] ctmc::Chain random_irreducible(Xoshiro256& rng, std::size_t n,
                                             double extra_density);

/// Random parameters for the appendix's recursive construction at the
/// given fault tolerance (the binary-tree chain shape): random set sizes
/// satisfying k < R <= N and log-uniform failure/rebuild rates.
[[nodiscard]] models::NoInternalRaidParams random_recursive_params(
    Xoshiro256& rng, int fault_tolerance);

/// A degenerate absorbing chain that passes validate() but whose only
/// path to absorption underflows: s0 -> s1 (rate 1) into a trap where a
/// 1e300 rate swamps a 1e-300 absorbing exit, so that exit's jump
/// probability rounds to exactly zero and GTH elimination from s0
/// reaches an exactly-zero pivot. With traps_initial the trap is
/// s0 <-> s1 itself and the failure surfaces instead as a vanished
/// initial absorption probability.
[[nodiscard]] ctmc::Chain underflowing_trap(bool traps_initial);

}  // namespace nsrel::diffharness
