#include "workload/workload.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/probe_names.hpp"
#include "obs/journal.hpp"
#include "util/assert.hpp"
#include "util/error.hpp"

namespace nsrel::workload {

ZipfSampler::ZipfSampler(std::size_t n, double exponent) {
  NSREL_EXPECTS(n >= 1);
  NSREL_EXPECTS(exponent >= 0.0);
  cdf_.resize(n);
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), exponent);
    cdf_[k] = total;
  }
  for (double& value : cdf_) value /= total;
  cdf_.back() = 1.0;  // guard against round-off at the top
}

std::size_t ZipfSampler::sample(Xoshiro256& rng) const {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::size_t>(it - cdf_.begin());
}

double ZipfSampler::probability(std::size_t k) const {
  NSREL_EXPECTS(k < cdf_.size());
  return k == 0 ? cdf_[0] : cdf_[k] - cdf_[k - 1];
}

WorkloadResult run_read_workload(brick::ObjectStore& store,
                                 const std::vector<brick::ObjectId>& objects,
                                 const std::vector<std::size_t>& object_sizes,
                                 const WorkloadParams& params) {
  NSREL_EXPECTS(!objects.empty());
  NSREL_EXPECTS(objects.size() == object_sizes.size());
  NSREL_EXPECTS(params.operations >= 1);
  NSREL_EXPECTS(params.read_bytes >= 1);
  for (const std::size_t size : object_sizes) {
    NSREL_EXPECTS(size >= params.read_bytes);
  }

  store.reset_io_stats();
  Xoshiro256 rng(params.seed);
  const ZipfSampler popularity(objects.size(), params.zipf_exponent);

  WorkloadResult result;
  result.operations = params.operations;
  std::uint64_t decodes_before = 0;
  const auto chunk =
      static_cast<std::size_t>(store.params().chunk_size.value());
  for (int op = 0; op < params.operations; ++op) {
    const std::size_t pick = popularity.sample(rng);
    // Chunk-aligned offsets (the natural client block boundary): a
    // healthy read then touches exactly ceil(read_bytes/chunk) chunks,
    // making amplification 1.0 the clean baseline.
    const std::size_t span = object_sizes[pick] - params.read_bytes;
    const std::size_t aligned_slots = span / chunk + 1;
    const std::size_t offset = chunk * rng.below(aligned_slots);
    const Expected<std::vector<std::uint8_t>> read =
        store.try_read_range(objects[pick], offset, params.read_bytes);
    if (!read.has_value()) {
      ++result.failed_reads;
      if (obs::Journal::enabled()) {
        obs::Journal::instance().record(
            obs::seq_event(obs::event::kWorkloadReadFailed));
      }
    }
    const std::uint64_t decodes_now = store.io_stats().decode_operations;
    if (decodes_now > decodes_before) ++result.degraded_reads;
    decodes_before = decodes_now;
  }
  result.io = store.io_stats();
  result.read_amplification =
      result.io.read_amplification(store.params().chunk_size.value());
  return result;
}

}  // namespace nsrel::workload
