// The one CTMC solver: cancellation-free state elimination (GTH-style).
//
// Why: the LU route computes MTTDL ~ 1e19 hours from matrix entries of
// order 1, which requires resolving cancellations beyond double precision
// once the chain is reliable enough (observed as a NEGATIVE MTTDL at fault
// tolerance 6). Grassmann-Taksar-Heyman elimination avoids subtraction
// entirely: writing the mean-absorption-time system as
//     m_i = c_i + sum_j b_ij m_j,   with  sum_j b_ij + ab_i = 1,
// (b_ij = jump probabilities, ab_i = absorption probability, c_i = mean
// hold time), eliminating a state divides by D_s = 1 - b_ss, and the
// row-sum invariant lets D_s be computed as the POSITIVE SUM
// sum_{j != s} b_sj + ab_s. Every update is add/multiply of non-negative
// numbers, so the result is accurate to machine epsilon at ANY condition
// number.
//
// One kernel: b is stored as column-sorted rows of its nonzero jump
// probabilities, held back to back in one flat arena with per-row slack
// (FlatRows), and eliminated last state to first (skipping `initial`). On
// the no-internal-RAID binary-tree chains that order is leaf-first, so
// there is no off-diagonal fill-in and the solve runs in O(n); arbitrary
// chains may fill in, and a row that outgrows its slack moves to the end
// of the arena.
//
// One row assembly feeds it: a RowSink collects each state's out-edges
// (rates, in emission order, parallel edges merged into the first slot
// exactly as Chain::add_transition merges them), and jump_system() turns
// them into the kernel's rows, summing each exit rate in that order. A
// labelled Chain reaches the sink through kernel_rows(chain), its
// out-edges in transitions() order; a model walk can emit into a sink
// directly and skip the Chain (NoInternalRaidModel::mttdl_exact does).
//
// The kernel has three instantiations:
//   - the lean double form behind mean_absorption_time_hours (MTTDL);
//   - a double form that also logs each pivot's D_s and its nonzero
//     weights w_is = b_is / D_s, behind analyze(). Back substitution over
//     that log and the pivot rows elimination leaves in place gives the
//     mean time from every state, m_s = (c_s + sum_{j != s} b_sj m_j) / D_s,
//     and the expected visits v_s = sum_i v_i w_is (v_initial =
//     1 / ab_initial), so occupancy tau_s = v_s / q_s. Both are sums of
//     non-negative terms;
//   - a std::complex<double> form for complex-step derivatives
//     (sensitivity.hpp). Pivots are tested on their real parts.
#pragma once

#include <algorithm>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "ctmc/chain.hpp"
#include "util/assert.hpp"
#include "util/error.hpp"

namespace nsrel::ctmc {

/// Rows of entries held back to back in one arena. Row i occupies
/// arena[begin_i, begin_i + size_i) and owns capacity_i slots from
/// begin_i (its slack); a row that outgrows them is copied to the end of
/// the arena with twice the room, leaving its old slots unused.
template <typename E>
class FlatRows {
 public:
  /// Appends an empty row with room for `capacity` entries.
  void add_row(std::size_t capacity) {
    slots_.push_back({used_, 0, checked(capacity)});
    claim(capacity);
  }

  /// Makes room for `rows` rows holding `entries` entries in all, so
  /// that adding them allocates nothing more.
  void reserve(std::size_t rows, std::size_t entries) {
    slots_.reserve(rows);
    if (entries > arena_.size()) arena_.resize(entries);
  }

  [[nodiscard]] std::size_t size() const { return slots_.size(); }

  [[nodiscard]] std::span<E> operator[](std::size_t i) {
    const Slot& slot = slots_[i];
    return {arena_.data() + slot.begin, slot.size};
  }
  [[nodiscard]] std::span<const E> operator[](std::size_t i) const {
    const Slot& slot = slots_[i];
    return {arena_.data() + slot.begin, slot.size};
  }

  /// Appends `entry` to row i. May move the arena: spans into it from
  /// before the call are invalid after it.
  void push_back(std::size_t i, const E& entry) {
    Slot& slot = slots_[i];
    if (slot.size == slot.capacity) {
      move_to_end(slot, 2 * std::size_t{slot.size} + 1);
    }
    arena_[slot.begin + slot.size++] = entry;
  }

  /// Replaces row i with `entries`, which must not point into this
  /// arena. May move the arena, as push_back.
  void assign(std::size_t i, std::span<const E> entries) {
    Slot& slot = slots_[i];
    slot.size = 0;
    if (entries.size() > slot.capacity) {
      move_to_end(slot,
                  std::max(entries.size(), 2 * std::size_t{slot.capacity}));
    }
    std::copy(entries.begin(), entries.end(),
              arena_.begin() + static_cast<std::ptrdiff_t>(slot.begin));
    slot.size = checked(entries.size());
  }

  /// Keeps the first `size` entries of row i.
  void truncate(std::size_t i, std::size_t size) {
    NSREL_ASSERT(size <= slots_[i].size);
    slots_[i].size = static_cast<std::uint32_t>(size);
  }

  /// Removes the entry at `position` of row i, keeping the others' order.
  void erase(std::size_t i, std::size_t position) {
    const std::span<E> row = (*this)[i];
    std::copy(row.begin() + static_cast<std::ptrdiff_t>(position) + 1,
              row.end(), row.begin() + static_cast<std::ptrdiff_t>(position));
    --slots_[i].size;
  }

 private:
  struct Slot {
    std::size_t begin = 0;
    std::uint32_t size = 0;
    std::uint32_t capacity = 0;
  };

  static std::uint32_t checked(std::size_t count) {
    NSREL_EXPECTS(count <= std::numeric_limits<std::uint32_t>::max());
    return static_cast<std::uint32_t>(count);
  }

  /// Takes `count` more slots at the end of the arena, growing the
  /// storage geometrically.
  void claim(std::size_t count) {
    used_ += count;
    if (used_ > arena_.size()) {
      arena_.resize(std::max(used_, 2 * arena_.size()));
    }
  }

  void move_to_end(Slot& slot, std::size_t capacity) {
    const std::size_t begin = used_;
    claim(capacity);
    std::copy_n(arena_.begin() + static_cast<std::ptrdiff_t>(slot.begin),
                slot.size,
                arena_.begin() + static_cast<std::ptrdiff_t>(begin));
    slot.begin = begin;
    slot.capacity = checked(capacity);
  }

  std::vector<Slot> slots_;
  std::vector<E> arena_;
  std::size_t used_ = 0;  ///< arena slots claimed by rows
};

/// One stored row entry: a jump probability b_ij of the kernel's system
/// (col = j's row), or, inside a RowSink, a rate to state `col`.
template <typename T>
struct RowEntry {
  std::uint32_t col = 0;
  T value{};
};

/// The kernel's embedded-jump form
///   m_i = c[i] + sum_j b[i][j] * m_j,   sum_j b[i][j] + ab[i] = 1,
/// one row per transient state (in state-id order), each row of b
/// column-sorted. Every b/ab/c value is >= 0, so an entry that is absent
/// and one that holds 0.0 are interchangeable: adding an exact zero to a
/// non-negative sum is a no-op.
template <typename T>
struct JumpSystem {
  FlatRows<RowEntry<T>> rows;
  std::vector<T> ab;
  std::vector<T> c;
};

/// Collects a chain's out-edges as the kernel's rows, without labels:
/// states in id order, each transient state's out-edges in the order
/// they are added. Same contract as Chain's add_state/add_transition,
/// which it mirrors edge for edge (a parallel edge adds into the slot
/// first made for its target), so a walk that feeds either gives the
/// same rates in the same order.
template <typename T>
class RowSink {
 public:
  static constexpr std::uint32_t kNoRow =
      std::numeric_limits<std::uint32_t>::max();

  /// Makes room for `states` states with `edges` out-edges in all.
  void reserve(std::size_t states, std::size_t edges) {
    row_of_.reserve(states);
    edges_.reserve(states, edges);
  }

  /// Adds the next state; a transient one gets a row with room for
  /// `out_degree` out-edges (more still fit, by moving the row).
  StateId add_state(StateKind kind, std::size_t out_degree) {
    NSREL_EXPECTS(row_of_.size() < kNoRow);
    const StateId id = row_of_.size();
    if (kind == StateKind::kTransient) {
      row_of_.push_back(static_cast<std::uint32_t>(edges_.size()));
      edges_.add_row(out_degree);
    } else {
      row_of_.push_back(kNoRow);
    }
    return id;
  }

  /// Adds an edge with the given rate (real part > 0); transitions out
  /// of absorbing states and self-loops are rejected.
  void add_transition(StateId from, StateId to, const T& rate) {
    NSREL_EXPECTS(from < row_of_.size());
    NSREL_EXPECTS(to < row_of_.size());
    NSREL_EXPECTS(from != to);
    NSREL_EXPECTS(std::real(rate) > 0.0);
    const std::uint32_t row = row_of_[from];
    NSREL_EXPECTS(row != kNoRow);
    for (RowEntry<T>& edge : edges_[row]) {
      if (edge.col == to) {
        edge.value += rate;
        return;
      }
    }
    edges_.push_back(row, {static_cast<std::uint32_t>(to), rate});
  }

  [[nodiscard]] std::size_t state_count() const { return row_of_.size(); }

  /// The kernel row of state `id`, or kNoRow for an absorbing state.
  [[nodiscard]] std::uint32_t row_of(StateId id) const {
    NSREL_EXPECTS(id < row_of_.size());
    return row_of_[id];
  }

 private:
  template <typename U>
  friend JumpSystem<U> jump_system(RowSink<U>&& sink);

  std::vector<std::uint32_t> row_of_;
  FlatRows<RowEntry<T>> edges_;
};

/// The kernel's system from a sink's edges, row by row: the exit rate
/// and the absorption flow are summed in edge order (from +0.0), c is
/// its inverse, and the transient entries are relabelled to rows,
/// column-sorted and scaled by c. Precondition: every transient state
/// has an out-edge.
template <typename T>
[[nodiscard]] JumpSystem<T> jump_system(RowSink<T>&& sink);

/// A labelled chain's out-edges, state by state in transitions() order,
/// fed through a sink: the rows every Chain solve assembles.
[[nodiscard]] RowSink<double> kernel_rows(const Chain& chain);

/// Everything back substitution gives, indexed like
/// Chain::transient_states().
struct EliminationAnalysis {
  /// Mean time to absorption from `initial` (hours): bit-equal to
  /// EliminationSolver::mean_absorption_time_hours.
  double mean_hours = 0.0;
  /// Expected time spent in each transient state before absorption,
  /// starting from `initial` (hours).
  std::vector<double> occupancy_hours;
  /// Mean time to absorption starting from each transient state (hours).
  std::vector<double> mean_hours_from;
};

class EliminationSolver {
 public:
  /// Mean time to absorption (hours) from `initial`, built directly from
  /// the chain's transition rates (no subtractions anywhere).
  /// Preconditions: chain.validate() passes; initial is transient.
  /// Numerical failures (degenerate elimination pivot, non-finite
  /// result) throw ErrorException; use the try_ form for typed errors.
  [[nodiscard]] static double mean_absorption_time_hours(const Chain& chain,
                                                         StateId initial);

  /// Non-throwing form: a vanishing elimination pivot (no remaining path
  /// to absorption — a numerically singular generator) or a non-finite
  /// mean comes back as a typed error.
  [[nodiscard]] static Expected<double> try_mean_absorption_time_hours(
      const Chain& chain, StateId initial);

  /// The same solve from rows a model walk emitted straight into a sink,
  /// with no Chain and no validate(). Preconditions: `initial` is
  /// transient and every transient state has an out-edge. A state that
  /// cannot reach absorption still fails as a typed singular_generator
  /// error: the states that cannot reach it never gain absorption flow
  /// or an entry outside their own set, so their elimination ends in an
  /// exactly zero pivot or initial absorption probability.
  [[nodiscard]] static Expected<double> try_mean_absorption_time_hours(
      RowSink<double>&& rows, StateId initial);

  /// Complex-rate form: the mean with transition k's rate replaced by
  /// rates[k] (indexed like chain.transitions()), for complex-step
  /// differentiation. Same preconditions and error taxonomy; real parts
  /// must be the chain's rates.
  [[nodiscard]] static Expected<std::complex<double>>
  try_mean_absorption_time_hours(const Chain& chain, StateId initial,
                                 std::span<const std::complex<double>> rates);

  /// The mean plus per-state occupancy and mean times from one
  /// elimination with back substitution. Same preconditions and error
  /// taxonomy as try_mean_absorption_time_hours.
  [[nodiscard]] static Expected<EliminationAnalysis> try_analyze(
      const Chain& chain, StateId initial);
};

}  // namespace nsrel::ctmc
