#include "models/no_internal_raid.hpp"

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "ctmc/absorbing.hpp"
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

/// Recursive chain builder. Adds the subtree rooted at `prefix` (root
/// first, then the N-subtree, then the d-subtree — the appendix's block
/// order) and returns the subtree root id. Failure and absorbing edges
/// are added during the walk; repair edges are added afterwards by
/// `add_repairs`, because the concurrent policy connects states across
/// subtrees (removing a MIDDLE failure from the word).
///
/// States are numbered in that preorder, so a word's id is arithmetic:
/// the N-child of a depth-q state is the next id and its d-child follows
/// the N-subtree's 2^(k-q) - 1 states (see `word_id`).
class ChainBuilder {
 public:
  ChainBuilder(ctmc::Chain& chain, ctmc::StateId loss,
               const NoInternalRaidParams& p, const combinat::HParams& hp)
      : chain_(chain), loss_(loss), params_(p), h_params_(hp) {}

  /// Adds every repair edge, state by state in id order (the global
  /// transition order of the chain depends on it).
  void add_repairs(FailureWord& word) {
    if (!word.empty()) {
      const ctmc::StateId id = word_id(word, word.size());
      const double mu_n = params_.node_rebuild.value();
      const double mu_d = params_.drive_rebuild.value();
      const auto repair = [&](std::size_t i) {
        chain_.add_transition(id, word_id(word, i),
                              word[i] == FailureKind::kNode ? mu_n : mu_d);
      };
      if (params_.repair_policy == RepairPolicy::kSingle) {
        repair(word.size() - 1);
      } else {
        for (std::size_t i = 0; i < word.size(); ++i) repair(i);
      }
    }
    if (static_cast<int>(word.size()) == params_.fault_tolerance) return;
    word.push_back(FailureKind::kNode);
    add_repairs(word);
    word.back() = FailureKind::kDrive;
    add_repairs(word);
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

    const ctmc::StateId root = chain_.add_state(word_label(prefix, k));

    if (depth == k) {
      // Fully degraded: any further failure in the node set loses data.
      chain_.add_transition(root, loss_, n_eff * (lambda_n + d_lambda_d));
      return root;
    }

    double rate_n = n_eff * lambda_n;
    double rate_d = n_eff * d_lambda_d;
    if (depth == k - 1) {
      // The next failure makes some redundancy sets critical: pre-sample
      // whether the ensuing rebuild will hit a hard error (h_alpha terms).
      // Saturate the paper's linear hard-error probabilities (h_N can
      // exceed 1 at fault tolerance 1 with baseline parameters).
      prefix.push_back(FailureKind::kNode);
      const double h_n =
          saturated_probability(combinat::h_for_word(h_params_, prefix));
      prefix.back() = FailureKind::kDrive;
      const double h_d =
          saturated_probability(combinat::h_for_word(h_params_, prefix));
      prefix.pop_back();
      const double loss_rate = n_eff * (lambda_n * h_n + d_lambda_d * h_d);
      if (loss_rate > 0.0) chain_.add_transition(root, loss_, loss_rate);
      rate_n *= 1.0 - h_n;
      rate_d *= 1.0 - h_d;
    }

    prefix.push_back(FailureKind::kNode);
    const ctmc::StateId child_n = build(prefix);
    prefix.pop_back();
    chain_.add_transition(root, child_n, rate_n);

    prefix.push_back(FailureKind::kDrive);
    const ctmc::StateId child_d = build(prefix);
    prefix.pop_back();
    chain_.add_transition(root, child_d, rate_d);
    return root;
  }

 private:
  /// Id of `word` with the letter at position `skip` removed (pass
  /// word.size() to remove none).
  [[nodiscard]] ctmc::StateId word_id(const FailureWord& word,
                                      std::size_t skip) const {
    ctmc::StateId id = NoInternalRaidModel::root_state();
    int q = 0;  // position in the reduced word
    for (std::size_t i = 0; i < word.size(); ++i) {
      if (i == skip) continue;
      id += word[i] == FailureKind::kNode
                ? 1
                : ctmc::StateId{1} << (params_.fault_tolerance - q);
      ++q;
    }
    return id;
  }

  ctmc::Chain& chain_;
  ctmc::StateId loss_;
  const NoInternalRaidParams& params_;
  const combinat::HParams& h_params_;
};

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
  const ctmc::StateId loss = c.add_state("A", ctmc::StateKind::kAbsorbing);
  const combinat::HParams hp = h_params();
  ChainBuilder builder(c, loss, params_, hp);
  FailureWord prefix;
  const ctmc::StateId root = builder.build(prefix);
  builder.add_repairs(prefix);
  NSREL_ENSURES(root == root_state());
  NSREL_ENSURES(c.state_count() ==
                (std::size_t{2} << params_.fault_tolerance));
  NSREL_ENSURES(c.validate().empty());
  return c;
}

Hours NoInternalRaidModel::mttdl_exact() const {
  return Hours(ctmc::AbsorbingSolver::mttdl_hours(chain(), root_state()));
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
