#include "obs/metrics.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <ostream>
#include <string_view>
#include <utility>
#include <vector>

#include "util/sync.hpp"

namespace nsrel::obs {

namespace {

// Fixed shard capacity: registrations beyond these land in the reserved
// overflow slot 0 ("obs.dropped*") instead of failing the caller.
constexpr std::size_t kMaxCounters = 192;
constexpr std::size_t kMaxHistograms = 64;

std::size_t bucket_of(std::uint64_t value) {
  const auto width = static_cast<std::size_t>(std::bit_width(value));
  return std::min(width, kHistogramBuckets - 1);
}

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One thread's private cells. Only the owning thread writes (relaxed
/// fetch_add / CAS); snapshot() reads concurrently, also relaxed — every
/// cell is an atomic, so reads are never torn.
struct Registry::Shard {
  std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
  struct HistogramCells {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> min{std::numeric_limits<std::uint64_t>::max()};
    std::atomic<std::uint64_t> max{0};
    std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
  };
  std::array<HistogramCells, kMaxHistograms> histograms{};

  void clear() {
    for (auto& c : counters) c.store(0, std::memory_order_relaxed);
    for (auto& h : histograms) {
      h.count.store(0, std::memory_order_relaxed);
      h.sum.store(0, std::memory_order_relaxed);
      h.min.store(std::numeric_limits<std::uint64_t>::max(),
                  std::memory_order_relaxed);
      h.max.store(0, std::memory_order_relaxed);
      for (auto& b : h.buckets) b.store(0, std::memory_order_relaxed);
    }
  }
};

/// Folded totals of shards whose threads have exited, merged under the
/// registry mutex so exited workers keep contributing to snapshots.
struct Registry::Retired {
  std::array<std::uint64_t, kMaxCounters> counters{};
  struct HistogramCells {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t max = 0;
    std::array<std::uint64_t, kHistogramBuckets> buckets{};
  };
  std::array<HistogramCells, kMaxHistograms> histograms{};

  void clear() { *this = Retired{}; }
};

/// Thread-local shard ownership: acquired lazily on the first probe a
/// thread fires, returned to the registry's free list at thread exit so
/// short-lived pool workers do not grow memory without bound. At
/// namespace scope (not anonymous) so the Registry friend declaration
/// names this exact type.
struct ShardHolder {
  Registry::Shard* shard = nullptr;
  ~ShardHolder() {
    if (shard != nullptr) Registry::instance().retire(shard);
  }
};

namespace {
thread_local ShardHolder tls_shard;
}  // namespace

Registry::Registry() : retired_(new Retired) {
  // Slot 0 of both tables is the overflow sink for registrations past
  // capacity; real registrations start at slot 1.
  counter_names_.emplace_back("obs.dropped");
  histogram_names_.emplace_back("obs.dropped_ns");
}

Registry& Registry::instance() {
  static Registry* leaked = new Registry;  // never destroyed, see header
  return *leaked;
}

Counter Registry::counter(std::string_view name) {
  const util::MutexLock lock(mutex_);
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    if (counter_names_[i] == name) return Counter{static_cast<std::uint32_t>(i)};
  }
  if (counter_names_.size() >= kMaxCounters) return Counter{0};
  counter_names_.emplace_back(name);
  return Counter{static_cast<std::uint32_t>(counter_names_.size() - 1)};
}

Histogram Registry::histogram(std::string_view name) {
  const util::MutexLock lock(mutex_);
  for (std::size_t i = 0; i < histogram_names_.size(); ++i) {
    if (histogram_names_[i] == name) {
      return Histogram{static_cast<std::uint32_t>(i)};
    }
  }
  if (histogram_names_.size() >= kMaxHistograms) return Histogram{0};
  histogram_names_.emplace_back(name);
  return Histogram{static_cast<std::uint32_t>(histogram_names_.size() - 1)};
}

Registry::Shard& Registry::local_shard() {
  if (tls_shard.shard == nullptr) {
    const util::MutexLock lock(mutex_);
    if (!free_.empty()) {
      tls_shard.shard = free_.back();
      free_.pop_back();
    } else {
      owned_.push_back(std::make_unique<Shard>());
      tls_shard.shard = owned_.back().get();
    }
    active_.push_back(tls_shard.shard);
  }
  return *tls_shard.shard;
}

void Registry::retire(Shard* shard) {
  const util::MutexLock lock(mutex_);
  for (std::size_t i = 0; i < kMaxCounters; ++i) {
    retired_->counters[i] += shard->counters[i].load(std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < kMaxHistograms; ++i) {
    const auto& from = shard->histograms[i];
    auto& to = retired_->histograms[i];
    to.count += from.count.load(std::memory_order_relaxed);
    to.sum += from.sum.load(std::memory_order_relaxed);
    to.min = std::min(to.min, from.min.load(std::memory_order_relaxed));
    to.max = std::max(to.max, from.max.load(std::memory_order_relaxed));
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      to.buckets[b] += from.buckets[b].load(std::memory_order_relaxed);
    }
  }
  shard->clear();
  active_.erase(std::find(active_.begin(), active_.end(), shard));
  free_.push_back(shard);
}

void Registry::add(Counter counter, std::uint64_t delta) {
  if (!enabled()) return;
  local_shard().counters[counter.slot].fetch_add(delta,
                                                 std::memory_order_relaxed);
}

void Registry::record(Histogram histogram, std::uint64_t value) {
  if (!enabled()) return;
  auto& cells = local_shard().histograms[histogram.slot];
  cells.count.fetch_add(1, std::memory_order_relaxed);
  cells.sum.fetch_add(value, std::memory_order_relaxed);
  std::uint64_t seen = cells.min.load(std::memory_order_relaxed);
  while (value < seen &&
         !cells.min.compare_exchange_weak(seen, value,
                                          std::memory_order_relaxed)) {
  }
  seen = cells.max.load(std::memory_order_relaxed);
  while (value > seen &&
         !cells.max.compare_exchange_weak(seen, value,
                                          std::memory_order_relaxed)) {
  }
  cells.buckets[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
}

Registry::Snapshot Registry::snapshot() const {
  const util::MutexLock lock(mutex_);
  Snapshot snap;

  std::vector<std::uint64_t> counters(counter_names_.size(), 0);
  std::vector<Retired::HistogramCells> histograms(histogram_names_.size());
  for (std::size_t i = 0; i < counters.size(); ++i) {
    counters[i] = retired_->counters[i];
  }
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    histograms[i] = retired_->histograms[i];
  }
  for (const Shard* shard : active_) {
    for (std::size_t i = 0; i < counters.size(); ++i) {
      counters[i] += shard->counters[i].load(std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < histograms.size(); ++i) {
      const auto& from = shard->histograms[i];
      auto& to = histograms[i];
      to.count += from.count.load(std::memory_order_relaxed);
      to.sum += from.sum.load(std::memory_order_relaxed);
      to.min = std::min(to.min, from.min.load(std::memory_order_relaxed));
      to.max = std::max(to.max, from.max.load(std::memory_order_relaxed));
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        to.buckets[b] += from.buckets[b].load(std::memory_order_relaxed);
      }
    }
  }

  for (std::size_t i = 0; i < counters.size(); ++i) {
    snap.counters.push_back({counter_names_[i], counters[i]});
  }
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    HistogramRow row;
    row.name = histogram_names_[i];
    row.count = histograms[i].count;
    row.sum = histograms[i].sum;
    row.min = histograms[i].count == 0 ? 0 : histograms[i].min;
    row.max = histograms[i].max;
    row.buckets = histograms[i].buckets;
    snap.histograms.push_back(std::move(row));
  }

  const auto by_name = [](const auto& a, const auto& b) {
    return a.name < b.name;
  };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

void Registry::reset() {
  const util::MutexLock lock(mutex_);
  retired_->clear();
  for (const auto& shard : owned_) shard->clear();
}

std::uint64_t Registry::HistogramRow::quantile_bound(double q) const {
  if (count == 0) return 0;
  const auto rank = static_cast<std::uint64_t>(
      q * static_cast<double>(count - 1));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    seen += buckets[i];
    if (seen > rank) return i == 0 ? 0 : (std::uint64_t{1} << i) - 1;
  }
  return max;
}

void print_metrics_block(const Registry::Snapshot& snapshot,
                         std::ostream& out) {
  out << "== nsrel metrics ==\n";
  for (const auto& row : snapshot.counters) {
    if (row.value == 0 && row.name.rfind("obs.", 0) == 0) continue;
    out << "  " << row.name << " = " << row.value << "\n";
  }
  for (const auto& row : snapshot.histograms) {
    if (row.count == 0) continue;
    out << "  " << row.name << "  count=" << row.count
        << " sum=" << row.sum << " mean=" << static_cast<std::uint64_t>(row.mean())
        << " min=" << row.min << " max=" << row.max
        << " p50<" << row.quantile_bound(0.50)
        << " p90<" << row.quantile_bound(0.90)
        << " p99<" << row.quantile_bound(0.99) << "\n";
  }
  out << "== end metrics ==\n";
}

}  // namespace nsrel::obs
