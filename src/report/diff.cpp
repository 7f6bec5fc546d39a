#include "report/diff.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "obs/probe.hpp"
#include "report/json.hpp"

namespace nsrel::report {

namespace {

/// Structural (shape) mismatch: the documents are not comparable runs.
[[nodiscard]] Error shape_error(const std::string& detail) {
  return Error{ErrorCode::kInvalidParameter, "report.diff", detail};
}

/// Collects one cell's drifting fields.
class CellDiff {
 public:
  CellDiff(const CellDoc& cell, const std::string& configuration_name,
           const DiffOptions& options, std::vector<DriftRow>& rows)
      : cell_(cell),
        configuration_name_(configuration_name),
        options_(options),
        rows_(rows) {}

  void field(const std::string& name, double a, double b) {
    const double magnitude = std::max(std::abs(a), std::abs(b));
    const double delta = std::abs(a - b);
    if (a == b || delta <= options_.abs_tol + options_.rel_tol * magnitude) {
      return;
    }
    DriftRow row = base(name);
    row.a = json_number(a);
    row.b = json_number(b);
    row.numeric = true;
    row.a_value = a;
    row.b_value = b;
    row.abs_delta = delta;
    row.rel_delta = magnitude > 0.0 ? delta / magnitude : 0.0;
    rows_.push_back(std::move(row));
  }

  void field(const std::string& name, const std::string& a,
             const std::string& b) {
    if (a == b) return;
    DriftRow row = base(name);
    row.a = a;
    row.b = b;
    rows_.push_back(std::move(row));
  }

 private:
  [[nodiscard]] DriftRow base(const std::string& name) const {
    DriftRow row;
    row.point = cell_.point;
    row.configuration = cell_.configuration;
    row.configuration_name = configuration_name_;
    row.field = name;
    return row;
  }

  const CellDoc& cell_;
  const std::string& configuration_name_;
  const DiffOptions& options_;
  std::vector<DriftRow>& rows_;
};

std::string kind_name(const CellDoc& cell) {
  if (std::holds_alternative<ErrorCellDoc>(cell.data)) return "error";
  if (std::holds_alternative<SimCellDoc>(cell.data)) return "sim";
  return "analytic";
}

void diff_cell(const CellDoc& a, const CellDoc& b,
               const std::string& configuration_name,
               const DiffOptions& options, std::vector<DriftRow>& rows) {
  CellDiff diff(a, configuration_name, options, rows);
  const std::string kind_a = kind_name(a);
  const std::string kind_b = kind_name(b);
  if (kind_a != kind_b) {
    diff.field("kind", kind_a, kind_b);
    return;
  }
  if (const auto* error_a = std::get_if<ErrorCellDoc>(&a.data)) {
    const auto& error_b = std::get<ErrorCellDoc>(b.data);
    diff.field("error.code", error_a->code, error_b.code);
    diff.field("error.layer", error_a->layer, error_b.layer);
    diff.field("error.detail", error_a->detail, error_b.detail);
    return;
  }
  if (const auto* sim_a = std::get_if<SimCellDoc>(&a.data)) {
    const auto& sim_b = std::get<SimCellDoc>(b.data);
    // Trials and seed are the estimate's identity, not measurements:
    // exact compare, tolerances do not apply.
    diff.field("trials", std::to_string(sim_a->trials),
               std::to_string(sim_b.trials));
    diff.field("seed", std::to_string(sim_a->seed),
               std::to_string(sim_b.seed));
    diff.field("mean_hours", sim_a->mean_hours, sim_b.mean_hours);
    diff.field("stddev_hours", sim_a->stddev_hours, sim_b.stddev_hours);
    diff.field("stderr_hours", sim_a->stderr_hours, sim_b.stderr_hours);
    diff.field("ci95_low_hours", sim_a->ci95_low_hours, sim_b.ci95_low_hours);
    diff.field("ci95_high_hours", sim_a->ci95_high_hours,
               sim_b.ci95_high_hours);
    return;
  }
  const auto& analytic_a = std::get<AnalyticCellDoc>(a.data);
  const auto& analytic_b = std::get<AnalyticCellDoc>(b.data);
  diff.field("mttdl_hours", analytic_a.mttdl_hours, analytic_b.mttdl_hours);
  diff.field("events_per_system_year", analytic_a.events_per_system_year,
             analytic_b.events_per_system_year);
  diff.field("events_per_pb_year", analytic_a.events_per_pb_year,
             analytic_b.events_per_pb_year);
  diff.field("logical_capacity_bytes", analytic_a.logical_capacity_bytes,
             analytic_b.logical_capacity_bytes);
  diff.field("node_rebuild_hours", analytic_a.node_rebuild_hours,
             analytic_b.node_rebuild_hours);
  diff.field("node_rebuild_bottleneck", analytic_a.node_rebuild_bottleneck,
             analytic_b.node_rebuild_bottleneck);
  if (analytic_a.has_internal_raid != analytic_b.has_internal_raid) {
    diff.field("internal_raid_fields",
               analytic_a.has_internal_raid ? "present" : "absent",
               analytic_b.has_internal_raid ? "present" : "absent");
    return;
  }
  if (analytic_a.has_internal_raid) {
    diff.field("array_failure_per_hour", analytic_a.array_failure_per_hour,
               analytic_b.array_failure_per_hour);
    diff.field("sector_error_per_hour", analytic_a.sector_error_per_hour,
               analytic_b.sector_error_per_hour);
    diff.field("restripe_hours", analytic_a.restripe_hours,
               analytic_b.restripe_hours);
  }
}

}  // namespace

[[nodiscard]] Expected<DiffReport> diff_resultsets(const ResultSetDoc& a,
                                     const ResultSetDoc& b,
                                     const DiffOptions& options) {
  obs::Probe span(obs::layer::kDiff);
  if (a.method != b.method) {
    return shape_error("method mismatch: '" + a.method + "' vs '" + b.method +
                       "'");
  }
  if (a.axes.size() != b.axes.size()) {
    return shape_error("axis count mismatch: " + std::to_string(a.axes.size()) +
                       " vs " + std::to_string(b.axes.size()));
  }
  for (std::size_t i = 0; i < a.axes.size(); ++i) {
    if (a.axes[i].name != b.axes[i].name) {
      return shape_error("axis " + std::to_string(i) + " mismatch: '" +
                         a.axes[i].name + "' vs '" + b.axes[i].name + "'");
    }
  }
  if (a.points.size() != b.points.size()) {
    return shape_error(
        "point count mismatch: " + std::to_string(a.points.size()) + " vs " +
        std::to_string(b.points.size()));
  }
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    if (a.points[i].label != b.points[i].label ||
        a.points[i].x != b.points[i].x) {
      return shape_error("point " + std::to_string(i) + " mismatch: '" +
                         a.points[i].label + "' vs '" + b.points[i].label +
                         "'");
    }
  }
  if (a.configurations != b.configurations) {
    return shape_error("configuration list mismatch");
  }
  // Comparable by shape; the readers guarantee both cell lists are
  // complete and row-major, so cells align index-for-index.
  DiffReport report;
  report.cells = a.cells.size();
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    diff_cell(a.cells[i], b.cells[i],
              a.configurations[a.cells[i].configuration], options,
              report.rows);
  }
  span.arg("cells", static_cast<std::uint64_t>(report.cells));
  span.arg("drift", static_cast<std::uint64_t>(report.rows.size()));
  return report;
}

Table diff_table(const DiffReport& report) {
  Table table(
      {"point", "configuration", "field", "a", "b", "|delta|", "rel"});
  for (const DriftRow& row : report.rows) {
    table.add_row({std::to_string(row.point), row.configuration_name,
                   row.field, row.a, row.b,
                   row.numeric ? json_number(row.abs_delta) : "-",
                   row.numeric ? json_number(row.rel_delta) : "-"});
  }
  return table;
}

void write_diff_json(const DiffReport& report, const DiffOptions& options,
                     std::ostream& out) {
  JsonWriter json(out);
  json.begin_object();
  json.key("schema").value("nsrel-diff-v1");
  json.key("abs_tol").value(options.abs_tol);
  json.key("rel_tol").value(options.rel_tol);
  json.key("cells").value(static_cast<std::uint64_t>(report.cells));
  json.key("clean").value(report.clean());
  json.key("drift").begin_array();
  for (const DriftRow& row : report.rows) {
    json.begin_object();
    json.key("point").value(row.point);
    json.key("configuration").value(row.configuration);
    json.key("configuration_name").value(row.configuration_name);
    json.key("field").value(row.field);
    if (row.numeric) {
      json.key("a").value(row.a_value);
      json.key("b").value(row.b_value);
      json.key("abs_delta").value(row.abs_delta);
      json.key("rel_delta").value(row.rel_delta);
    } else {
      json.key("a").value(row.a);
      json.key("b").value(row.b);
      json.key("abs_delta").null();
      json.key("rel_delta").null();
    }
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

}  // namespace nsrel::report
