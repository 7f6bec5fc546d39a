#include "report/resultset_doc.hpp"

#include <cstddef>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "obs/probe.hpp"
#include "report/json.hpp"
#include "report/json_parse.hpp"

namespace nsrel::report {

namespace {

// --- writer -----------------------------------------------------------

void write_cell(JsonWriter& json, const CellDoc& cell) {
  json.begin_object();
  json.key("point").value(cell.point);
  json.key("configuration").value(cell.configuration);
  if (const auto* error = std::get_if<ErrorCellDoc>(&cell.data)) {
    json.key("error").begin_object();
    json.key("code").value(error->code);
    json.key("layer").value(error->layer);
    json.key("detail").value(error->detail);
    json.end_object();
    json.end_object();
    return;
  }
  json.key("error").null();
  if (const auto* analytic = std::get_if<AnalyticCellDoc>(&cell.data)) {
    json.key("kind").value("analytic");
    json.key("mttdl_hours").value(analytic->mttdl_hours);
    json.key("events_per_system_year").value(analytic->events_per_system_year);
    json.key("events_per_pb_year").value(analytic->events_per_pb_year);
    json.key("logical_capacity_bytes").value(analytic->logical_capacity_bytes);
    json.key("node_rebuild_hours").value(analytic->node_rebuild_hours);
    json.key("node_rebuild_bottleneck")
        .value(analytic->node_rebuild_bottleneck);
    if (analytic->has_internal_raid) {
      json.key("array_failure_per_hour")
          .value(analytic->array_failure_per_hour);
      json.key("sector_error_per_hour").value(analytic->sector_error_per_hour);
      json.key("restripe_hours").value(analytic->restripe_hours);
    }
  } else {
    const auto& sim = std::get<SimCellDoc>(cell.data);
    json.key("kind").value("sim");
    json.key("mean_hours").value(sim.mean_hours);
    json.key("stddev_hours").value(sim.stddev_hours);
    json.key("stderr_hours").value(sim.stderr_hours);
    json.key("ci95_low_hours").value(sim.ci95_low_hours);
    json.key("ci95_high_hours").value(sim.ci95_high_hours);
    json.key("trials").value(sim.trials);
    json.key("seed").value(sim.seed);
  }
  json.end_object();
}

// --- reader -----------------------------------------------------------

/// Schema-validation failures throw internally and are converted to
/// Expected at the reader's boundary.
constexpr FieldReader kReader{"report.resultset"};

CacheMetaDoc read_cache_meta(const JsonValue& meta, const std::string& path) {
  kReader.check_object(meta, path);
  kReader.check_keys(meta, path, {"cache"});
  const JsonValue& cache = kReader.require(meta, path, "cache");
  const std::string cache_path = path + ".cache";
  kReader.check_object(cache, cache_path);
  kReader.check_keys(cache, cache_path, {"hits", "misses", "lookups"});
  CacheMetaDoc doc;
  doc.hits = kReader.read_uint(cache, cache_path, "hits");
  doc.misses = kReader.read_uint(cache, cache_path, "misses");
  doc.lookups = kReader.read_uint(cache, cache_path, "lookups");
  return doc;
}

std::vector<AxisDoc> read_axes(const JsonValue& axes) {
  if (!axes.is_array()) kReader.fail("axes", "expected an array");
  std::vector<AxisDoc> out;
  out.reserve(axes.items.size());
  for (std::size_t i = 0; i < axes.items.size(); ++i) {
    const std::string path = "axes[" + std::to_string(i) + "]";
    const JsonValue& axis = axes.items[i];
    kReader.check_object(axis, path);
    kReader.check_keys(axis, path, {"name"});
    AxisDoc doc;
    doc.name = kReader.read_string(axis, path, "name");
    if (doc.name.empty()) {
      kReader.fail(path + ".name", "axis name must be non-empty");
    }
    out.push_back(std::move(doc));
  }
  return out;
}

std::vector<PointDoc> read_points(const JsonValue& points,
                                  std::size_t axis_count) {
  if (!points.is_array()) kReader.fail("points", "expected an array");
  if (points.items.empty()) kReader.fail("points", "must be non-empty");
  std::vector<PointDoc> out;
  out.reserve(points.items.size());
  for (std::size_t i = 0; i < points.items.size(); ++i) {
    const std::string path = "points[" + std::to_string(i) + "]";
    const JsonValue& point = points.items[i];
    kReader.check_object(point, path);
    PointDoc doc;
    doc.label = kReader.read_string(point, path, "label");
    if (axis_count == 0) {
      kReader.check_keys(point, path, {"label"});
    } else {
      kReader.check_keys(point, path, {"label", "x"});
      const JsonValue& x = kReader.require(point, path, "x");
      if (!x.is_array()) kReader.fail(path + ".x", "expected an array");
      if (x.items.size() != axis_count) {
        kReader.fail(path + ".x", "expected one coordinate per axis (" +
                              std::to_string(axis_count) + ")");
      }
      doc.x.reserve(x.items.size());
      for (std::size_t a = 0; a < x.items.size(); ++a) {
        if (!x.items[a].is_number()) {
          kReader.fail(path + ".x[" + std::to_string(a) + "]",
                       "expected a number");
        }
        doc.x.push_back(x.items[a].number);
      }
    }
    out.push_back(std::move(doc));
  }
  return out;
}

std::vector<std::string> read_configurations(const JsonValue& configurations) {
  if (!configurations.is_array()) {
    kReader.fail("configurations", "expected an array");
  }
  if (configurations.items.empty()) {
    kReader.fail("configurations", "must be non-empty");
  }
  std::vector<std::string> out;
  out.reserve(configurations.items.size());
  for (std::size_t i = 0; i < configurations.items.size(); ++i) {
    const JsonValue& name = configurations.items[i];
    if (!name.is_string()) {
      kReader.fail("configurations[" + std::to_string(i) + "]",
                   "expected a string");
    }
    out.push_back(name.text);
  }
  return out;
}

CellDoc read_cell(const JsonValue& cell, const std::string& path,
                  std::size_t points, std::size_t configurations) {
  kReader.check_object(cell, path);
  CellDoc doc;
  doc.point = kReader.read_uint(cell, path, "point");
  doc.configuration = kReader.read_uint(cell, path, "configuration");
  if (doc.point >= points) kReader.fail(path + ".point", "index out of range");
  if (doc.configuration >= configurations) {
    kReader.fail(path + ".configuration", "index out of range");
  }
  const JsonValue& error = kReader.require(cell, path, "error");
  if (error.is_object()) {
    const std::string error_path = path + ".error";
    kReader.check_keys(cell, path, {"point", "configuration", "error"});
    kReader.check_keys(error, error_path, {"code", "layer", "detail"});
    ErrorCellDoc failed;
    failed.code = kReader.read_string(error, error_path, "code");
    failed.layer = kReader.read_string(error, error_path, "layer");
    failed.detail = kReader.read_string(error, error_path, "detail");
    if (failed.code.empty()) {
      kReader.fail(error_path + ".code", "error code must be non-empty");
    }
    doc.data = std::move(failed);
    return doc;
  }
  if (!error.is_null()) {
    kReader.fail(path + ".error", "expected null or an object");
  }
  const std::string kind = kReader.read_string(cell, path, "kind");
  if (kind == "analytic") {
    AnalyticCellDoc analytic;
    analytic.has_internal_raid = cell.find("array_failure_per_hour") != nullptr;
    std::vector<std::string_view> allowed = {
        "point",
        "configuration",
        "error",
        "kind",
        "mttdl_hours",
        "events_per_system_year",
        "events_per_pb_year",
        "logical_capacity_bytes",
        "node_rebuild_hours",
        "node_rebuild_bottleneck"};
    if (analytic.has_internal_raid) {
      allowed.push_back("array_failure_per_hour");
      allowed.push_back("sector_error_per_hour");
      allowed.push_back("restripe_hours");
    }
    kReader.check_keys(cell, path, allowed);
    analytic.mttdl_hours = kReader.read_number(cell, path, "mttdl_hours");
    analytic.events_per_system_year =
        kReader.read_number(cell, path, "events_per_system_year");
    analytic.events_per_pb_year =
        kReader.read_number(cell, path, "events_per_pb_year");
    analytic.logical_capacity_bytes =
        kReader.read_number(cell, path, "logical_capacity_bytes");
    analytic.node_rebuild_hours =
        kReader.read_number(cell, path, "node_rebuild_hours");
    analytic.node_rebuild_bottleneck =
        kReader.read_string(cell, path, "node_rebuild_bottleneck");
    if (analytic.node_rebuild_bottleneck != "disk" &&
        analytic.node_rebuild_bottleneck != "network") {
      kReader.fail(path + ".node_rebuild_bottleneck",
                   "expected 'disk' or 'network'");
    }
    if (analytic.has_internal_raid) {
      analytic.array_failure_per_hour =
          kReader.read_number(cell, path, "array_failure_per_hour");
      analytic.sector_error_per_hour =
          kReader.read_number(cell, path, "sector_error_per_hour");
      analytic.restripe_hours =
          kReader.read_number(cell, path, "restripe_hours");
    }
    doc.data = std::move(analytic);
    return doc;
  }
  if (kind == "sim") {
    kReader.check_keys(cell, path,
                       {"point", "configuration", "error", "kind", "mean_hours",
                "stddev_hours", "stderr_hours", "ci95_low_hours",
                "ci95_high_hours", "trials", "seed"});
    SimCellDoc sim;
    sim.mean_hours = kReader.read_number(cell, path, "mean_hours");
    sim.stddev_hours = kReader.read_number(cell, path, "stddev_hours");
    sim.stderr_hours = kReader.read_number(cell, path, "stderr_hours");
    sim.ci95_low_hours = kReader.read_number(cell, path, "ci95_low_hours");
    sim.ci95_high_hours = kReader.read_number(cell, path, "ci95_high_hours");
    const std::uint64_t trials = kReader.read_uint(cell, path, "trials");
    if (trials >
        static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
      kReader.fail(path + ".trials", "unsigned integer out of range");
    }
    sim.trials = static_cast<int>(trials);
    sim.seed = kReader.read_uint(cell, path, "seed");
    doc.data = std::move(sim);
    return doc;
  }
  kReader.fail(path + ".kind", "expected 'analytic' or 'sim'");
}

ResultSetDoc read_document(const JsonValue& root) {
  kReader.check_object(root, "document");
  kReader.check_keys(root, "document",
                     {"schema", "method", "meta", "axes", "points",
                      "configurations", "cells"});
  const std::string schema = kReader.read_string(root, "document", "schema");
  if (schema != kResultSetSchema) {
    kReader.fail("schema", "expected '" + std::string(kResultSetSchema) +
                               "', got '" + schema + "'");
  }
  ResultSetDoc doc;
  doc.method = kReader.read_string(root, "document", "method");
  if (doc.method.empty()) kReader.fail("method", "must be non-empty");
  if (const JsonValue* meta = root.find("meta")) {
    doc.cache = read_cache_meta(*meta, "meta");
  }
  doc.axes = read_axes(kReader.require(root, "document", "axes"));
  doc.points = read_points(kReader.require(root, "document", "points"),
                           doc.axes.size());
  doc.configurations =
      read_configurations(kReader.require(root, "document", "configurations"));

  const JsonValue& cells = kReader.require(root, "document", "cells");
  if (!cells.is_array()) kReader.fail("cells", "expected an array");
  const std::size_t expected = doc.points.size() * doc.configurations.size();
  if (cells.items.size() != expected) {
    kReader.fail("cells", "expected " + std::to_string(expected) +
                      " cells (points x configurations), got " +
                      std::to_string(cells.items.size()));
  }
  doc.cells.reserve(cells.items.size());
  for (std::size_t i = 0; i < cells.items.size(); ++i) {
    const std::string path = "cells[" + std::to_string(i) + "]";
    CellDoc cell = read_cell(cells.items[i], path, doc.points.size(),
                             doc.configurations.size());
    const std::uint64_t expected_point = i / doc.configurations.size();
    const std::uint64_t expected_configuration =
        i % doc.configurations.size();
    if (cell.point != expected_point ||
        cell.configuration != expected_configuration) {
      kReader.fail(path, "cells must be in row-major (point-major) order");
    }
    doc.cells.push_back(std::move(cell));
  }
  return doc;
}

}  // namespace

void write_resultset_json(const ResultSetDoc& doc, std::ostream& out) {
  JsonWriter json(out);
  json.begin_object();
  json.key("schema").value(kResultSetSchema);
  json.key("method").value(doc.method);
  if (doc.cache.has_value()) {
    json.key("meta").begin_object();
    json.key("cache").begin_object();
    json.key("hits").value(doc.cache->hits);
    json.key("misses").value(doc.cache->misses);
    json.key("lookups").value(doc.cache->lookups);
    json.end_object();
    json.end_object();
  }
  json.key("axes").begin_array();
  for (const AxisDoc& axis : doc.axes) {
    json.begin_object();
    json.key("name").value(axis.name);
    json.end_object();
  }
  json.end_array();

  json.key("points").begin_array();
  for (const PointDoc& point : doc.points) {
    json.begin_object();
    json.key("label").value(point.label);
    if (!doc.axes.empty()) {
      json.key("x").begin_array();
      for (const double coordinate : point.x) json.value(coordinate);
      json.end_array();
    }
    json.end_object();
  }
  json.end_array();

  json.key("configurations").begin_array();
  for (const std::string& name : doc.configurations) json.value(name);
  json.end_array();

  json.key("cells").begin_array();
  for (const CellDoc& cell : doc.cells) write_cell(json, cell);
  json.end_array();
  json.end_object();
}

[[nodiscard]] Expected<ResultSetDoc> read_resultset_json(std::string_view text) {
  obs::Probe span(obs::layer::kResultSetRead);
  span.arg("bytes", static_cast<std::uint64_t>(text.size()));
  Expected<JsonValue> parsed = parse_json(text);
  if (!parsed.has_value()) return parsed.error();
  try {
    ResultSetDoc doc = read_document(parsed.value());
    span.arg("outcome", "ok");
    return doc;
  } catch (const ErrorException& e) {
    span.arg("outcome", error_code_name(e.error().code));
    return e.error();
  }
}

}  // namespace nsrel::report
