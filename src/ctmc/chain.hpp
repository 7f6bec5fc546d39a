// Continuous-time Markov chain representation.
//
// A `Chain` is a labeled state space with exponential transition rates,
// some states marked absorbing (data-loss states in this library's models).
// It holds the generator Q only as its transition list and per-state
// out-edge lists; the solvers (elimination.hpp, transient.hpp) read those
// directly and never form a dense matrix.
//
// Assembly is linear in the chain's size: each state keeps the ids of its
// outgoing transitions, so add_transition costs O(out-degree of `from`)
// and validate() costs O(S + T) for S states and T transitions.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace nsrel::ctmc {

using StateId = std::size_t;

enum class StateKind : unsigned char { kTransient, kAbsorbing };

struct State {
  std::string label;
  StateKind kind = StateKind::kTransient;
};

struct Transition {
  StateId from = 0;
  StateId to = 0;
  double rate = 0.0;  ///< events per hour
};

class Chain {
 public:
  /// Adds a state; returns its id (ids are dense, in insertion order).
  StateId add_state(std::string label,
                    StateKind kind = StateKind::kTransient);

  /// Adds a transition with the given rate (> 0). Transitions out of
  /// absorbing states are rejected; a parallel transition accumulates into
  /// the first-inserted (from, to) slot, so transitions() keeps insertion
  /// order. O(out-degree of `from`).
  void add_transition(StateId from, StateId to, double rate);

  [[nodiscard]] std::size_t state_count() const { return states_.size(); }
  [[nodiscard]] std::size_t transient_count() const;
  [[nodiscard]] std::size_t absorbing_count() const;
  [[nodiscard]] const State& state(StateId id) const;
  [[nodiscard]] const std::vector<Transition>& transitions() const {
    return transitions_;
  }

  /// Id of the state with the given label; throws if absent or ambiguous.
  [[nodiscard]] StateId find_state(const std::string& label) const;

  /// Ids of transient states, in insertion order. This ordering indexes
  /// every per-transient-state result (occupancy, rates_into()).
  [[nodiscard]] std::vector<StateId> transient_states() const;
  [[nodiscard]] std::vector<StateId> absorbing_states() const;

  /// Indices into transitions() of the state's outgoing transitions,
  /// ascending (i.e. in transitions() order).
  [[nodiscard]] const std::vector<std::size_t>& out_edges(StateId id) const;

  /// For each transient state (in transient_states() order), the total rate
  /// into the given absorbing state.
  [[nodiscard]] std::vector<double> rates_into(StateId absorbing) const;

  /// Total exit rate of a state (sum of outgoing transition rates, added
  /// in transitions() order). O(out-degree).
  [[nodiscard]] double exit_rate(StateId id) const;

  /// Structural sanity checks: at least one transient and one absorbing
  /// state, and every transient state can reach an absorbing state.
  /// Returns an empty string when valid, else a description of the defect
  /// naming the lowest-id state that cannot reach absorption. O(S + T).
  [[nodiscard]] std::string validate() const;

 private:
  std::vector<State> states_;
  std::vector<Transition> transitions_;
  /// Per state, the indices into transitions_ of its outgoing transitions,
  /// ascending (i.e. in transitions() order).
  std::vector<std::vector<std::size_t>> out_edges_;
};

}  // namespace nsrel::ctmc
