#include "report/metrics_doc.hpp"

#include <cstddef>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "report/json.hpp"
#include "report/json_parse.hpp"

namespace nsrel::report {

namespace {

// --- writer -----------------------------------------------------------

void write_histogram(JsonWriter& json, const obs::Registry::HistogramRow& row) {
  json.begin_object();
  json.key("name").value(row.name);
  json.key("count").value(row.count);
  json.key("sum").value(row.sum);
  json.key("min").value(row.min);
  json.key("max").value(row.max);
  json.key("p50").value(row.quantile_bound(0.50));
  json.key("p90").value(row.quantile_bound(0.90));
  json.key("p99").value(row.quantile_bound(0.99));
  json.key("buckets").begin_array();
  for (std::size_t i = 0; i < obs::kHistogramBuckets; ++i) {
    if (row.buckets[i] == 0) continue;
    json.begin_array();
    json.value(static_cast<std::uint64_t>(i));
    json.value(row.buckets[i]);
    json.end_array();
  }
  json.end_array();
  json.end_object();
}

// --- reader -----------------------------------------------------------

/// Schema-validation failures throw internally and are converted to
/// Expected at the reader's boundary.
constexpr FieldReader kReader{"report.metrics"};

obs::Registry::CounterRow read_counter(const JsonValue& value,
                                       const std::string& path) {
  if (!value.is_object()) kReader.fail(path, "expected an object");
  kReader.check_keys(value, path, {"name", "value"});
  obs::Registry::CounterRow row;
  row.name = kReader.read_string(value, path, "name");
  if (row.name.empty()) kReader.fail(path + ".name", "must be non-empty");
  row.value = kReader.read_uint(value, path, "value");
  return row;
}

obs::Registry::HistogramRow read_histogram(const JsonValue& value,
                                           const std::string& path) {
  if (!value.is_object()) kReader.fail(path, "expected an object");
  kReader.check_keys(value, path,
                     {"name", "count", "sum", "min", "max", "p50", "p90", "p99",
              "buckets"});
  obs::Registry::HistogramRow row;
  row.name = kReader.read_string(value, path, "name");
  if (row.name.empty()) kReader.fail(path + ".name", "must be non-empty");
  row.count = kReader.read_uint(value, path, "count");
  row.sum = kReader.read_uint(value, path, "sum");
  row.min = kReader.read_uint(value, path, "min");
  row.max = kReader.read_uint(value, path, "max");

  const JsonValue& buckets = kReader.require(value, path, "buckets");
  const std::string buckets_path = path + ".buckets";
  if (!buckets.is_array()) kReader.fail(buckets_path, "expected an array");
  std::uint64_t total = 0;
  std::int64_t last_index = -1;
  for (std::size_t i = 0; i < buckets.items.size(); ++i) {
    const std::string entry_path =
        buckets_path + "[" + std::to_string(i) + "]";
    const JsonValue& entry = buckets.items[i];
    if (!entry.is_array() || entry.items.size() != 2) {
      kReader.fail(entry_path, "expected an [index, count] pair");
    }
    const std::uint64_t index =
        kReader.parse_uint(entry.items[0], entry_path + "[0]");
    const std::uint64_t count =
        kReader.parse_uint(entry.items[1], entry_path + "[1]");
    if (index >= obs::kHistogramBuckets) {
      kReader.fail(entry_path, "bucket index out of range");
    }
    if (static_cast<std::int64_t>(index) <= last_index) {
      kReader.fail(entry_path, "bucket indices must be strictly ascending");
    }
    if (count == 0) kReader.fail(entry_path, "sparse buckets must be non-zero");
    last_index = static_cast<std::int64_t>(index);
    row.buckets[index] = count;
    total += count;
  }
  if (total != row.count) {
    kReader.fail(buckets_path, "bucket counts must sum to 'count'");
  }
  if (row.count == 0 && (row.min != 0 || row.max != 0 || row.sum != 0)) {
    kReader.fail(path, "empty histogram must have zero sum/min/max");
  }

  // The percentile summary is derived data; a document that disagrees
  // with its own buckets was corrupted or hand-edited inconsistently.
  const struct {
    const char* key;
    double q;
  } summaries[] = {{"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}};
  for (const auto& summary : summaries) {
    if (kReader.read_uint(value, path, summary.key) !=
        row.quantile_bound(summary.q)) {
      kReader.fail(path + "." + summary.key,
                   "percentile summary does not match buckets");
    }
  }
  return row;
}

obs::MetricsSnapshot read_document(const JsonValue& root) {
  if (!root.is_object()) kReader.fail("document", "expected an object");
  kReader.check_keys(root, "document", {"schema", "counters", "histograms"});
  const std::string schema = kReader.read_string(root, "document", "schema");
  if (schema != kMetricsSchema) {
    kReader.fail("schema", "expected '" + std::string(kMetricsSchema) +
                               "', got '" + schema + "'");
  }

  obs::MetricsSnapshot snapshot;
  const JsonValue& counters = kReader.require(root, "document", "counters");
  if (!counters.is_array()) kReader.fail("counters", "expected an array");
  std::string last_name;
  for (std::size_t i = 0; i < counters.items.size(); ++i) {
    const std::string path = "counters[" + std::to_string(i) + "]";
    obs::Registry::CounterRow row = read_counter(counters.items[i], path);
    if (i > 0 && row.name <= last_name) {
      kReader.fail(path, "counter names must be strictly ascending");
    }
    last_name = row.name;
    snapshot.counters.push_back(std::move(row));
  }

  const JsonValue& histograms = kReader.require(root, "document", "histograms");
  if (!histograms.is_array()) kReader.fail("histograms", "expected an array");
  last_name.clear();
  for (std::size_t i = 0; i < histograms.items.size(); ++i) {
    const std::string path = "histograms[" + std::to_string(i) + "]";
    obs::Registry::HistogramRow row =
        read_histogram(histograms.items[i], path);
    if (i > 0 && row.name <= last_name) {
      kReader.fail(path, "histogram names must be strictly ascending");
    }
    last_name = row.name;
    snapshot.histograms.push_back(std::move(row));
  }
  return snapshot;
}

}  // namespace

void write_metrics_json(const obs::MetricsSnapshot& snapshot,
                        std::ostream& out) {
  JsonWriter json(out);
  json.begin_object();
  json.key("schema").value(kMetricsSchema);
  json.key("counters").begin_array();
  for (const auto& row : snapshot.counters) {
    json.begin_object();
    json.key("name").value(row.name);
    json.key("value").value(row.value);
    json.end_object();
  }
  json.end_array();
  json.key("histograms").begin_array();
  for (const auto& row : snapshot.histograms) write_histogram(json, row);
  json.end_array();
  json.end_object();
}

[[nodiscard]] Expected<obs::MetricsSnapshot> read_metrics_json(std::string_view text) {
  Expected<JsonValue> parsed = parse_json(text);
  if (!parsed.has_value()) return parsed.error();
  try {
    return read_document(parsed.value());
  } catch (const ErrorException& e) {
    return e.error();
  }
}

}  // namespace nsrel::report
