// Memoization of Markov-chain MTTDL solves across Analyzer instances.
//
// Many grid cells share the same underlying model: a swept parameter that
// only touches normalization (or a different front-end re-evaluating the
// same configuration) produces bit-identical NoInternalRaidParams /
// InternalRaidParams, so re-running the elimination solve is pure
// waste. The cache is keyed by the *exact bytes* of those parameter
// structs (plus the solution method), so a hit is guaranteed to return
// the same doubles a fresh solve would — caching never changes results,
// only skips work.
//
// Thread-safe: the evaluation engine shares one cache across all worker
// threads. Two threads racing on the same key may both solve and store;
// both compute identical values, so the race is benign (the hit/miss
// counters reflect the actual schedule and are only deterministic for
// single-threaded runs).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>

#include "util/error.hpp"
#include "util/sync.hpp"

namespace nsrel::core {

class SolveCache {
 public:
  /// Per-instance hit/miss totals. This is a façade over atomic counters
  /// owned by the cache itself: exact for *this* cache even when many
  /// threads share it. The process-wide obs metrics registry additionally
  /// aggregates `solve_cache.hits` / `solve_cache.misses` /
  /// `solve_cache.inserts` across every cache instance when enabled.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

    [[nodiscard]] std::uint64_t lookups() const { return hits + misses; }
  };

  SolveCache() = default;
  SolveCache(const SolveCache&) = delete;
  SolveCache& operator=(const SolveCache&) = delete;

  /// Returns the cached outcome for `key` (counting a hit), or nullopt
  /// (counting a miss). Failed solves are cached like successful ones:
  /// a hit replays the original typed error bit-identically instead of
  /// re-running a solve that is known to fail.
  [[nodiscard]] std::optional<Expected<double>> lookup(const std::string& key);

  /// Stores a solve outcome (value or typed error) under `key`.
  /// Idempotent for identical outcomes; a second store of the same key
  /// keeps the first entry.
  void store(const std::string& key, Expected<double> outcome);

  [[nodiscard]] Stats stats() const;

  /// Number of distinct keys stored.
  [[nodiscard]] std::size_t size() const;

 private:
  mutable util::Mutex mutex_;
  std::unordered_map<std::string, Expected<double>> values_
      NSREL_GUARDED_BY(mutex_);
  // Relaxed probes (see tools/lint/atomics.tsv): bumped outside the map
  // mutex so the counters never extend the critical section.
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

/// Appends the raw bytes of a trivially-copyable value to a cache key.
/// Exact-byte keys make cache hits bitwise-faithful: two models collide
/// only when every parameter is identical, in which case their solves
/// are identical too.
template <typename T>
void append_key_bytes(std::string& key, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  const char* bytes = reinterpret_cast<const char*>(&value);
  key.append(bytes, sizeof(T));
}

}  // namespace nsrel::core
