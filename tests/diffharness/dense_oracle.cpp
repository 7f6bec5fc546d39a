#include "diffharness/dense_oracle.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "diffharness/lu.hpp"
#include "util/assert.hpp"

namespace nsrel::diffharness {

linalg::Matrix generator(const ctmc::Chain& chain) {
  const std::size_t n = chain.state_count();
  linalg::Matrix q(n, n);
  for (const auto& t : chain.transitions()) {
    q(t.from, t.to) += t.rate;
    q(t.from, t.from) -= t.rate;
  }
  return q;
}

linalg::Matrix transient_generator(const ctmc::Chain& chain) {
  const auto transient = chain.transient_states();
  const std::size_t n = chain.state_count();
  // Map full state id -> transient index.
  std::vector<std::size_t> index(n, n);
  for (std::size_t i = 0; i < transient.size(); ++i) index[transient[i]] = i;

  linalg::Matrix qb(transient.size(), transient.size());
  for (const auto& t : chain.transitions()) {
    const std::size_t from = index[t.from];
    NSREL_ASSERT(from != n);
    qb(from, from) -= t.rate;
    const std::size_t to = index[t.to];
    if (to != n) qb(from, to) += t.rate;
  }
  return qb;
}

linalg::Matrix absorption_matrix(const ctmc::Chain& chain) {
  linalg::Matrix r = transient_generator(chain);
  r *= -1.0;
  return r;
}

std::optional<linalg::Vector> stationary_distribution(
    const ctmc::Chain& chain) {
  NSREL_EXPECTS(chain.absorbing_count() == 0);
  const std::size_t n = chain.state_count();
  linalg::Matrix a = generator(chain).transpose();
  for (std::size_t j = 0; j < n; ++j) a(n - 1, j) = 1.0;
  linalg::Vector b(n, 0.0);
  b[n - 1] = 1.0;
  return linalg::solve(a, b);
}

linalg::Vector uniformized_distribution(const ctmc::Chain& chain,
                                        double t_hours, ctmc::StateId initial,
                                        double tol) {
  NSREL_EXPECTS(t_hours >= 0.0);
  const linalg::Matrix q = generator(chain);
  const std::size_t n = q.rows();
  double lambda = 0.0;
  for (std::size_t i = 0; i < n; ++i) lambda = std::max(lambda, -q(i, i));
  if (lambda == 0.0) lambda = 1.0;
  linalg::Matrix p = linalg::Matrix::identity(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) p(i, j) += q(i, j) / lambda;
  }

  linalg::Vector v(n, 0.0);
  v[initial] = 1.0;
  if (t_hours == 0.0) return v;
  const double a = lambda * t_hours;
  NSREL_EXPECTS(std::isfinite(a));
  linalg::Vector result(n, 0.0);
  double log_weight = -a;
  double accumulated = 0.0;
  const auto max_terms =
      static_cast<std::size_t>(a + 12.0 * std::sqrt(a) + 64.0);
  for (std::size_t k = 0; k <= max_terms; ++k) {
    if (k > 0) {
      log_weight += std::log(a / static_cast<double>(k));
      linalg::Vector next(n, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        const double vi = v[i];
        if (vi == 0.0) continue;
        for (std::size_t j = 0; j < n; ++j) next[j] += vi * p(i, j);
      }
      v = std::move(next);
    }
    const double weight = std::exp(log_weight);
    if (weight > 0.0) {
      for (std::size_t i = 0; i < n; ++i) result[i] += weight * v[i];
      accumulated += weight;
      if (1.0 - accumulated < tol) break;
    }
  }
  return result;
}

}  // namespace nsrel::diffharness
