// Process-wide metrics registry: named monotonic counters and duration
// histograms shared by every subsystem (thread pool, solve cache, engine,
// Monte-Carlo runner) and rendered as the CLI's `--metrics` block.
//
// Hot-path design: probes are compiled in everywhere and cost a single
// relaxed atomic load when the registry is disabled (the default): its
// gate is the metrics bit of the probe gate (obs/probe.hpp). When
// enabled, each thread increments its own shard — a fixed-size array of
// relaxed atomics it alone writes — so counters never contend. snapshot()
// merges the shards (plus the folded totals of threads that have exited)
// under the registry mutex; after all writers are joined the merged
// values are exact, which is what the TSan-covered merge tests assert.
//
// Handles (Counter/Histogram) are small indices resolved once by name;
// registration is idempotent and thread-safe. The registry deliberately
// never throws from a probe: registering more names than the fixed shard
// capacity routes the surplus into the reserved "obs.dropped" slot
// instead of failing the caller.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/probe.hpp"
#include "util/sync.hpp"

namespace nsrel::obs {

/// Handle to a named monotonic counter. Value-type, trivially copyable;
/// obtain via Registry::counter().
struct Counter {
  std::uint32_t slot = 0;
};

/// Handle to a named histogram (count/sum/min/max plus log2 buckets).
struct Histogram {
  std::uint32_t slot = 0;
};

/// Log2 buckets per histogram: bucket i counts values with bit width i
/// (2^47 ns is ~3.3 days, plenty for any duration this process records).
inline constexpr std::size_t kHistogramBuckets = 48;

/// Monotonic (steady-clock) nanoseconds; the time base for every probe.
[[nodiscard]] std::uint64_t now_ns();

class Registry {
 public:
  /// The process-wide registry. Deliberately leaked: thread-local shard
  /// destructors may run during late thread teardown and must always
  /// find a live instance.
  static Registry& instance();

  /// The metrics bit of the probe gate: one relaxed load. All probes
  /// no-op when off.
  [[nodiscard]] static bool enabled() {
    return (armed_sinks() & kMetricsSink) != 0;
  }
  static void set_enabled(bool on) { set_armed(kMetricsSink, on); }

  /// Returns the handle for `name`, registering it on first use.
  /// Idempotent and thread-safe; past capacity the reserved overflow
  /// slot is returned instead of throwing.
  [[nodiscard]] Counter counter(std::string_view name);
  [[nodiscard]] Histogram histogram(std::string_view name);

  /// Adds `delta` to the counter (no-op while disabled).
  void add(Counter counter, std::uint64_t delta = 1);

  /// Records one sample into the histogram (no-op while disabled).
  void record(Histogram histogram, std::uint64_t value);

  struct CounterRow {
    std::string name;
    std::uint64_t value = 0;
  };
  struct HistogramRow {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;  ///< 0 when count == 0
    std::uint64_t max = 0;
    std::array<std::uint64_t, kHistogramBuckets> buckets{};

    [[nodiscard]] double mean() const {
      return count == 0 ? 0.0
                        : static_cast<double>(sum) / static_cast<double>(count);
    }
    /// Upper bound (2^i) of the bucket holding quantile q in [0, 1] —
    /// an order-of-magnitude answer, which is all log2 buckets give.
    [[nodiscard]] std::uint64_t quantile_bound(double q) const;
  };
  struct Snapshot {
    std::vector<CounterRow> counters;      ///< sorted by name
    std::vector<HistogramRow> histograms;  ///< sorted by name
  };

  /// Merges every shard (live and retired). Exact once all incrementing
  /// threads have been joined; concurrent increments may or may not be
  /// included (each one atomically, never torn).
  [[nodiscard]] Snapshot snapshot() const;

  /// Zeroes every value (live shards and retired totals). Registered
  /// names and handles stay valid.
  void reset();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

 private:
  Registry();
  ~Registry() = default;

  struct Shard;
  struct Retired;

  Shard& local_shard();
  void retire(Shard* shard);

  friend struct ShardHolder;

  mutable util::Mutex mutex_;
  std::vector<std::string> counter_names_ NSREL_GUARDED_BY(mutex_);
  std::vector<std::string> histogram_names_ NSREL_GUARDED_BY(mutex_);
  std::vector<std::unique_ptr<Shard>> owned_ NSREL_GUARDED_BY(mutex_);
  std::vector<Shard*> active_ NSREL_GUARDED_BY(mutex_);
  std::vector<Shard*> free_ NSREL_GUARDED_BY(mutex_);
  std::unique_ptr<Retired> retired_ NSREL_GUARDED_BY(mutex_);
};

/// Renders the snapshot as the CLI's `--metrics` stderr block: counters
/// then histogram summaries, both sorted by name.
void print_metrics_block(const Registry::Snapshot& snapshot,
                         std::ostream& out);

}  // namespace nsrel::obs
