// Trajectory sampler for any absorbing ctmc::Chain: an independent
// numerical path to MTTDL that shares nothing with the GTH elimination, so
// it cross-validates the AbsorbingSolver. estimate() routes through the
// shared parallel engine (sim/parallel.hpp) and is bit-identical for a
// fixed seed regardless of options.jobs.
#pragma once

#include <cstdint>
#include <vector>

#include "ctmc/chain.hpp"
#include "sim/estimate.hpp"
#include "sim/parallel.hpp"
#include "util/rng.hpp"

namespace nsrel::sim {

class ChainSimulator {
 public:
  /// Preconditions: chain.validate() passes. The chain must outlive the
  /// simulator.
  explicit ChainSimulator(const ctmc::Chain& chain,
                          std::uint64_t seed = 0x5EEDULL);

  /// One sampled time-to-absorption (hours) from the given transient
  /// state, drawn from the simulator's own stream (serial use).
  [[nodiscard]] double sample_absorption_time(ctmc::StateId initial);

  /// Same, from a caller-supplied stream (thread-safe: the transition
  /// table is read-only).
  [[nodiscard]] double sample_absorption_time(ctmc::StateId initial,
                                              Xoshiro256& rng) const;

  /// Mean time to absorption over `trials` independent trajectories.
  /// Precondition: trials >= 2.
  [[nodiscard]] MttdlEstimate estimate(
      int trials, ctmc::StateId initial,
      const ParallelOptions& options = {}) const;

 private:
  struct Outgoing {
    std::vector<ctmc::StateId> targets;
    std::vector<double> rates;
    double total_rate = 0.0;
  };
  const ctmc::Chain& chain_;
  std::vector<Outgoing> outgoing_;  // indexed by full state id
  std::uint64_t seed_;
  Xoshiro256 rng_;
};

}  // namespace nsrel::sim
