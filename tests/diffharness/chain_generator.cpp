#include "diffharness/chain_generator.hpp"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/assert.hpp"
#include "util/units.hpp"

namespace nsrel::diffharness {

double random_rate(Xoshiro256& rng) {
  // 10^u for u uniform in [-3, 3).
  return std::pow(10.0, -3.0 + 6.0 * rng.uniform());
}

ctmc::Chain birth_death(Xoshiro256& rng, std::size_t transient) {
  NSREL_EXPECTS(transient >= 1);
  ctmc::Chain chain;
  for (std::size_t i = 0; i < transient; ++i) {
    chain.add_state(std::string("d").append(std::to_string(i)),
                    ctmc::StateKind::kTransient);
  }
  const ctmc::StateId loss =
      chain.add_state("loss", ctmc::StateKind::kAbsorbing);
  for (std::size_t i = 0; i < transient; ++i) {
    const ctmc::StateId next = i + 1 < transient ? i + 1 : loss;
    chain.add_transition(i, next, random_rate(rng));
    if (i > 0 && rng.bernoulli(0.8)) {
      chain.add_transition(i, i - 1, random_rate(rng));
    }
  }
  return chain;
}

ctmc::Chain random_absorbing(Xoshiro256& rng, std::size_t transient,
                             std::size_t absorbing, double extra_density) {
  NSREL_EXPECTS(transient >= 1);
  NSREL_EXPECTS(absorbing >= 1);
  ctmc::Chain chain;
  for (std::size_t i = 0; i < transient; ++i) {
    chain.add_state(std::string("t").append(std::to_string(i)),
                    ctmc::StateKind::kTransient);
  }
  std::vector<ctmc::StateId> sinks;
  for (std::size_t a = 0; a < absorbing; ++a) {
    sinks.push_back(
        chain.add_state(std::string("a").append(std::to_string(a)),
                        ctmc::StateKind::kAbsorbing));
  }
  // Backbone: every transient state walks forward into the first sink,
  // so validate()'s reachability check passes by construction.
  for (std::size_t i = 0; i < transient; ++i) {
    const ctmc::StateId next = i + 1 < transient ? i + 1 : sinks.front();
    chain.add_transition(i, next, random_rate(rng));
  }
  // Random extra edges (duplicates accumulate rates, which is fine).
  for (std::size_t i = 0; i < transient; ++i) {
    for (std::size_t j = 0; j < transient; ++j) {
      if (i != j && rng.bernoulli(extra_density)) {
        chain.add_transition(i, j, random_rate(rng));
      }
    }
    for (const ctmc::StateId sink : sinks) {
      if (rng.bernoulli(extra_density / 2.0)) {
        chain.add_transition(i, sink, random_rate(rng));
      }
    }
  }
  return chain;
}

ctmc::Chain random_irreducible(Xoshiro256& rng, std::size_t n,
                               double extra_density) {
  NSREL_EXPECTS(n >= 2);
  ctmc::Chain chain;
  for (std::size_t i = 0; i < n; ++i) {
    chain.add_state(std::string("s").append(std::to_string(i)),
                    ctmc::StateKind::kTransient);
  }
  for (std::size_t i = 0; i < n; ++i) {
    chain.add_transition(i, (i + 1) % n, random_rate(rng));
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && rng.bernoulli(extra_density)) {
        chain.add_transition(i, j, random_rate(rng));
      }
    }
  }
  return chain;
}

models::NoInternalRaidParams random_recursive_params(Xoshiro256& rng,
                                                     int fault_tolerance) {
  NSREL_EXPECTS(fault_tolerance >= 1);
  models::NoInternalRaidParams p;
  p.fault_tolerance = fault_tolerance;
  p.node_set_size =
      fault_tolerance + 2 + static_cast<int>(rng.below(32));
  p.redundancy_set_size =
      fault_tolerance + 1 +
      static_cast<int>(rng.below(
          static_cast<std::uint64_t>(p.node_set_size - fault_tolerance)));
  p.drives_per_node = 1 + static_cast<int>(rng.below(16));
  // Failures around 1e-6..1e-4 per hour, rebuilds around 1e-2..1: the
  // repair-dominant regime the models target.
  p.node_failure = PerHour{1e-6 * std::pow(100.0, rng.uniform())};
  p.drive_failure = PerHour{1e-6 * std::pow(100.0, rng.uniform())};
  p.node_rebuild = PerHour{1e-2 * std::pow(100.0, rng.uniform())};
  p.drive_rebuild = PerHour{1e-2 * std::pow(100.0, rng.uniform())};
  return p;
}

ctmc::Chain underflowing_trap(bool traps_initial) {
  // A rate-1 path s0 -> ... -> last, whose last state jumps back at 1e300
  // and absorbs at 1e-300.
  const std::size_t n = traps_initial ? 2 : 3;
  ctmc::Chain chain;
  for (std::size_t i = 0; i < n; ++i) {
    chain.add_state(std::string("s").append(std::to_string(i)));
  }
  const ctmc::StateId loss = chain.add_state("A", ctmc::StateKind::kAbsorbing);
  for (std::size_t i = 0; i + 1 < n; ++i) chain.add_transition(i, i + 1, 1.0);
  chain.add_transition(n - 1, n - 2, 1e300);
  chain.add_transition(n - 1, loss, 1e-300);
  return chain;
}

}  // namespace nsrel::diffharness
