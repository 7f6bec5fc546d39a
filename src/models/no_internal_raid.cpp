#include "models/no_internal_raid.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "ctmc/elimination.hpp"
#include "obs/probe_names.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"

namespace nsrel::models {

namespace {

using combinat::FailureKind;
using combinat::FailureWord;

std::string word_label(const FailureWord& word, int fault_tolerance) {
  std::string label;
  for (const FailureKind kind : word) {
    label += (kind == FailureKind::kNode) ? 'N' : 'd';
  }
  label.append(
      static_cast<std::size_t>(fault_tolerance) - word.size(), '0');
  return label.empty() ? "0" : label;
}

/// chain()'s sink: the labelled Chain.
class LabelledSink {
 public:
  LabelledSink(ctmc::Chain& chain, int fault_tolerance)
      : chain_(chain), fault_tolerance_(fault_tolerance) {}

  /// A Chain grows as it goes.
  void reserve(std::size_t /*states*/, std::size_t /*edges*/) {}
  ctmc::StateId add_state(ctmc::StateKind kind, const FailureWord& word,
                          std::size_t /*out_degree*/) {
    return chain_.add_state(kind == ctmc::StateKind::kAbsorbing
                                ? std::string("A")
                                : word_label(word, fault_tolerance_),
                            kind);
  }
  void add_transition(ctmc::StateId from, ctmc::StateId to, double rate) {
    chain_.add_transition(from, to, rate);
  }

 private:
  ctmc::Chain& chain_;
  int fault_tolerance_;
};

/// kernel_rows()'s sink: the GTH kernel's rows, with no labels.
class KernelRowsSink {
 public:
  explicit KernelRowsSink(ctmc::RowSink<double>& rows) : rows_(rows) {}

  void reserve(std::size_t states, std::size_t edges) {
    rows_.reserve(states, edges);
  }
  ctmc::StateId add_state(ctmc::StateKind kind, const FailureWord& /*word*/,
                          std::size_t out_degree) {
    return rows_.add_state(kind, out_degree);
  }
  void add_transition(ctmc::StateId from, ctmc::StateId to, double rate) {
    rows_.add_transition(from, to, rate);
  }

 private:
  ctmc::RowSink<double>& rows_;
};

/// The one chain construction, a recursive walk over the failure words
/// that emits every state and transition into `Sink` (LabelledSink or
/// KernelRowsSink; either sees the same calls in the same order). `build`
/// adds the subtree rooted at `prefix` (root first, then the N-subtree,
/// then the d-subtree — the appendix's block order) and returns the
/// subtree root id. Failure and absorbing edges are added during the walk; repair
/// edges are added afterwards by `add_repairs`, because the concurrent
/// policy connects states across subtrees (removing a MIDDLE failure
/// from the word).
///
/// States are numbered in that preorder, so a word's id is arithmetic:
/// the N-child of a depth-q state is the next id and its d-child follows
/// the N-subtree's 2^(k-q) - 1 states (see `word_id`).
template <typename Sink>
class ChainBuilder {
 public:
  ChainBuilder(Sink& sink, const NoInternalRaidParams& p,
               const combinat::HParams& hp)
      : sink_(sink),
        loss_(sink.add_state(ctmc::StateKind::kAbsorbing, FailureWord{}, 0)),
        params_(p) {
    // h_for_word depends on a full-depth word only through its number of
    // drive failures, so k + 1 evaluations cover all 2^k words.
    const int k = p.fault_tolerance;
    for (int drives = 0; drives <= k; ++drives) {
      FailureWord word(static_cast<std::size_t>(k), FailureKind::kNode);
      std::fill_n(word.begin(), drives, FailureKind::kDrive);
      h_by_drives_.push_back(
          saturated_probability(combinat::h_for_word(hp, word)));
    }
    std::size_t edges = 0;
    for (int depth = 0; depth <= k; ++depth) {
      edges += (std::size_t{1} << depth) * out_degree(depth);
    }
    sink_.reserve(std::size_t{2} << k, edges);
  }

  /// Adds every repair edge of the subtree rooted at `word` (whose id is
  /// `id`, its parent's `parent`), state by state in id order (the global
  /// transition order of the chain depends on it).
  void add_repairs(FailureWord& word, ctmc::StateId id, ctmc::StateId parent) {
    if (!word.empty()) {
      const double mu_n = params_.node_rebuild.value();
      const double mu_d = params_.drive_rebuild.value();
      const auto rate = [&](std::size_t i) {
        return word[i] == FailureKind::kNode ? mu_n : mu_d;
      };
      if (params_.repair_policy == RepairPolicy::kSingle) {
        sink_.add_transition(id, parent, rate(word.size() - 1));
      } else {
        for (std::size_t i = 0; i < word.size(); ++i) {
          sink_.add_transition(id, word_id(word, i), rate(i));
        }
      }
    }
    const int depth = static_cast<int>(word.size());
    if (depth == params_.fault_tolerance) return;
    word.push_back(FailureKind::kNode);
    add_repairs(word, id + 1, id);
    word.back() = FailureKind::kDrive;
    add_repairs(word, id + d_child_offset(depth), id);
    word.pop_back();
  }

  ctmc::StateId build(FailureWord& prefix) {
    const int depth = static_cast<int>(prefix.size());
    const int k = params_.fault_tolerance;
    const double n_eff =
        static_cast<double>(params_.node_set_size - depth);
    const double lambda_n = params_.node_failure.value();
    const double d_lambda_d = static_cast<double>(params_.drives_per_node) *
                              params_.drive_failure.value();

    const ctmc::StateId root = sink_.add_state(
        ctmc::StateKind::kTransient, prefix, out_degree(depth));

    if (depth == k) {
      // Fully degraded: any further failure in the node set loses data.
      sink_.add_transition(root, loss_, n_eff * (lambda_n + d_lambda_d));
      return root;
    }

    double rate_n = n_eff * lambda_n;
    double rate_d = n_eff * d_lambda_d;
    if (depth == k - 1) {
      // The next failure makes some redundancy sets critical: pre-sample
      // whether the ensuing rebuild will hit a hard error (h_alpha terms).
      // Saturate the paper's linear hard-error probabilities (h_N can
      // exceed 1 at fault tolerance 1 with baseline parameters).
      const auto drives = static_cast<std::size_t>(
          std::count(prefix.begin(), prefix.end(), FailureKind::kDrive));
      const double h_n = h_by_drives_[drives];
      const double h_d = h_by_drives_[drives + 1];
      const double loss_rate = n_eff * (lambda_n * h_n + d_lambda_d * h_d);
      if (loss_rate > 0.0) sink_.add_transition(root, loss_, loss_rate);
      rate_n *= 1.0 - h_n;
      rate_d *= 1.0 - h_d;
    }

    // A certain hard error (h saturated to exactly 1) sends the whole
    // failure flow to the loss edge; the child it would have reached
    // keeps its subtree, unreachable from the root.
    prefix.push_back(FailureKind::kNode);
    const ctmc::StateId child_n = build(prefix);
    prefix.pop_back();
    if (rate_n > 0.0) sink_.add_transition(root, child_n, rate_n);

    prefix.push_back(FailureKind::kDrive);
    const ctmc::StateId child_d = build(prefix);
    prefix.pop_back();
    if (rate_d > 0.0) sink_.add_transition(root, child_d, rate_d);
    return root;
  }

 private:
  /// Most out-edges a depth-q state can have: two failure children
  /// (q < k), the loss edge (q >= k - 1) and its repairs (one under
  /// single repair, one per letter under concurrent repair).
  [[nodiscard]] std::size_t out_degree(int depth) const {
    const int k = params_.fault_tolerance;
    const int repairs = params_.repair_policy == RepairPolicy::kSingle
                            ? (depth > 0 ? 1 : 0)
                            : depth;
    return static_cast<std::size_t>((depth < k ? 2 : 0) +
                                    (depth >= k - 1 ? 1 : 0) + repairs);
  }

  /// How far past a depth-q state its d-child is: its N-child's
  /// subtree of 2^(k-q) - 1 states comes first.
  [[nodiscard]] ctmc::StateId d_child_offset(int depth) const {
    return ctmc::StateId{1} << (params_.fault_tolerance - depth);
  }

  /// Id of `word` with the letter at position `skip` removed.
  [[nodiscard]] ctmc::StateId word_id(const FailureWord& word,
                                      std::size_t skip) const {
    ctmc::StateId id = NoInternalRaidModel::root_state();
    int q = 0;  // position in the reduced word
    for (std::size_t i = 0; i < word.size(); ++i) {
      if (i == skip) continue;
      id += word[i] == FailureKind::kNode ? 1 : d_child_offset(q);
      ++q;
    }
    return id;
  }

  Sink& sink_;
  ctmc::StateId loss_;
  const NoInternalRaidParams& params_;
  /// Saturated h_alpha of a full-depth word, by its drive-failure count.
  std::vector<double> h_by_drives_;
};

/// Walks the whole chain into `sink`: state 0 is the loss state "A",
/// the root follows, then the rest in preorder.
template <typename Sink>
void walk(Sink& sink, const NoInternalRaidParams& params,
          const combinat::HParams& hp) {
  const obs::Span span(obs::probe::kSpanChainBuild,
                       obs::probe::kSpanCategoryModels);
  ChainBuilder<Sink> builder(sink, params, hp);
  FailureWord prefix;
  const ctmc::StateId root = builder.build(prefix);
  NSREL_ENSURES(root == NoInternalRaidModel::root_state());
  builder.add_repairs(prefix, root, root);
}

}  // namespace

NoInternalRaidModel::NoInternalRaidModel(const NoInternalRaidParams& params)
    : params_(params) {
  NSREL_EXPECTS(params_.fault_tolerance >= 1);
  NSREL_EXPECTS(params_.fault_tolerance <= 16);
  NSREL_EXPECTS(params_.node_set_size > params_.fault_tolerance);
  NSREL_EXPECTS(params_.redundancy_set_size > params_.fault_tolerance);
  NSREL_EXPECTS(params_.redundancy_set_size <= params_.node_set_size);
  NSREL_EXPECTS(params_.drives_per_node >= 1);
  NSREL_EXPECTS(params_.node_failure.value() > 0.0);
  NSREL_EXPECTS(params_.drive_failure.value() > 0.0);
  NSREL_EXPECTS(params_.node_rebuild.value() > 0.0);
  NSREL_EXPECTS(params_.drive_rebuild.value() > 0.0);
  NSREL_EXPECTS(params_.capacity.value() > 0.0);
  NSREL_EXPECTS(params_.her_per_byte >= 0.0);
}

combinat::HParams NoInternalRaidModel::h_params() const {
  combinat::HParams hp;
  hp.node_set_size = params_.node_set_size;
  hp.redundancy_set_size = params_.redundancy_set_size;
  hp.drives_per_node = params_.drives_per_node;
  hp.fault_tolerance = params_.fault_tolerance;
  hp.capacity_bytes = params_.capacity.value();
  hp.her_per_byte = params_.her_per_byte;
  return hp;
}

ctmc::Chain NoInternalRaidModel::chain() const {
  ctmc::Chain c;
  LabelledSink sink(c, params_.fault_tolerance);
  walk(sink, params_, h_params());
  NSREL_ENSURES(c.state_count() ==
                (std::size_t{2} << params_.fault_tolerance));
  NSREL_ENSURES(c.validate().empty());
  return c;
}

ctmc::RowSink<double> NoInternalRaidModel::kernel_rows() const {
  ctmc::RowSink<double> rows;
  KernelRowsSink sink(rows);
  walk(sink, params_, h_params());
  NSREL_ENSURES(rows.state_count() ==
                (std::size_t{2} << params_.fault_tolerance));
  return rows;
}

Hours NoInternalRaidModel::mttdl_exact() const {
  return Hours(ctmc::EliminationSolver::try_mean_absorption_time_hours(
                   kernel_rows(), root_state())
                   .value_or_throw());
}

double l_recursion(int k, const std::vector<double>& h_values, double lambda_n,
                   double d_lambda_d, double mu_n, double mu_d) {
  NSREL_EXPECTS(k >= 1);
  NSREL_EXPECTS(h_values.size() == (std::size_t{1} << k));
  if (k == 1) return h_values[0] * lambda_n + h_values[1] * d_lambda_d;
  const std::size_t half = h_values.size() / 2;
  const std::vector<double> first(h_values.begin(),
                                  h_values.begin() + static_cast<long>(half));
  const std::vector<double> second(h_values.begin() + static_cast<long>(half),
                                   h_values.end());
  const double l_first =
      l_recursion(k - 1, first, lambda_n, d_lambda_d, mu_n, mu_d);
  const double l_second =
      l_recursion(k - 1, second, lambda_n, d_lambda_d, mu_n, mu_d);
  return mu_d * l_first * lambda_n + mu_n * l_second * d_lambda_d;
}

Hours NoInternalRaidModel::mttdl_closed_form() const {
  // Appendix Figure A1:
  //   MTTDL ~= (mu_N mu_d)^k /
  //     ( N(N-1)...(N-k+1) [ (N-k)(lambda_N + d lambda_d) L(mu_d, mu_N)^k
  //                          + (mu_N mu_d) L_k(h^(k)) ] )
  const int k = params_.fault_tolerance;
  const double n = params_.node_set_size;
  const double lambda_n = params_.node_failure.value();
  const double d_lambda_d = static_cast<double>(params_.drives_per_node) *
                            params_.drive_failure.value();
  const double mu_n = params_.node_rebuild.value();
  const double mu_d = params_.drive_rebuild.value();

  const std::vector<double> h = combinat::h_set(h_params());
  const double l_k = l_recursion(k, h, lambda_n, d_lambda_d, mu_n, mu_d);
  const double l_mu = mu_d * lambda_n + mu_n * d_lambda_d;  // L(mu_d, mu_N)
  const double bracket =
      (n - k) * (lambda_n + d_lambda_d) * std::pow(l_mu, k) + mu_n * mu_d * l_k;
  const double denominator =
      falling_factorial(params_.node_set_size, k) * bracket;
  NSREL_ASSERT(denominator > 0.0);
  return Hours(std::pow(mu_n * mu_d, k) / denominator);
}

}  // namespace nsrel::models
