#include "core/solve_cache.hpp"

#include <cstddef>
#include <optional>
#include <string>
#include <utility>

#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/probe.hpp"
#include "obs/probe_names.hpp"
#include "util/sync.hpp"

namespace nsrel::core {

namespace {

struct CacheProbes {
  obs::Counter hits;
  obs::Counter misses;
  obs::Counter inserts;
};

CacheProbes cache_probes() {
  auto& registry = obs::Registry::instance();
  return {registry.counter(obs::probe::kSolveCacheHits),
          registry.counter(obs::probe::kSolveCacheMisses),
          registry.counter(obs::probe::kSolveCacheInserts)};
}

}  // namespace

[[nodiscard]] std::optional<Expected<double>> SolveCache::lookup(const std::string& key) {
  std::optional<Expected<double>> found;
  {
    const util::MutexLock lock(mutex_);
    const auto it = values_.find(key);
    if (it != values_.end()) found = it->second;
  }
  // Counters live outside the map mutex: relaxed atomics keep the Stats
  // façade exact per instance without extending the critical section.
  if (found.has_value()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    if (obs::Registry::enabled()) {
      obs::Registry::instance().add(cache_probes().hits);
    }
    if (obs::Journal::enabled()) {
      obs::Journal::instance().record(obs::seq_event(obs::event::kCacheHit));
    }
    return found;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  if (obs::Registry::enabled()) {
    obs::Registry::instance().add(cache_probes().misses);
  }
  if (obs::Journal::enabled()) {
    obs::Journal::instance().record(obs::seq_event(obs::event::kCacheMiss));
  }
  return std::nullopt;
}

void SolveCache::store(const std::string& key, Expected<double> outcome) {
  const obs::Probe probe(obs::layer::kCacheInsert);
  bool inserted = false;
  {
    const util::MutexLock lock(mutex_);
    inserted = values_.emplace(key, std::move(outcome)).second;
  }
  if (inserted && obs::Registry::enabled()) {
    obs::Registry::instance().add(cache_probes().inserts);
  }
}

SolveCache::Stats SolveCache::stats() const {
  Stats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  return stats;
}

std::size_t SolveCache::size() const {
  const util::MutexLock lock(mutex_);
  return values_.size();
}

}  // namespace nsrel::core
