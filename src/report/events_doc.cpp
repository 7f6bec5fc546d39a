#include "report/events_doc.hpp"

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/probe_names.hpp"
#include "report/json.hpp"
#include "report/json_parse.hpp"

namespace nsrel::report {

namespace {

// --- writer -----------------------------------------------------------

/// NDJSON lines are written compactly by hand: JsonWriter pretty-prints
/// one multi-line document, which is the wrong shape for a journal that
/// wants one self-contained event per line.
void write_event_line(const obs::Event& event, std::ostream& out) {
  out << "{\"event\":\"" << json_escape(event.name) << "\",\"domain\":\""
      << (event.domain == obs::ClockDomain::kSimTime ? "sim" : "seq")
      << "\",\"seq\":" << event.seq;
  if (event.domain == obs::ClockDomain::kSimTime) {
    out << ",\"t\":" << json_number(event.sim_seconds);
  }
  for (std::uint32_t i = 0; i < event.arg_count; ++i) {
    const obs::EventArg& arg = event.args[i];
    out << ",\"" << json_escape(arg.key) << "\":";
    switch (arg.kind) {
      case obs::EventArg::Kind::kUint:
        out << arg.uint_value;
        break;
      case obs::EventArg::Kind::kDouble:
        out << json_number(arg.double_value);
        break;
      case obs::EventArg::Kind::kLiteral:
        out << '"' << json_escape(arg.literal_value) << '"';
        break;
      case obs::EventArg::Kind::kNone:
        out << "null";
        break;
    }
  }
  out << "}\n";
}

// --- reader -----------------------------------------------------------

/// Schema-validation failures throw internally and are converted to
/// Expected at the reader's boundary.
constexpr FieldReader kReader{"report.events"};

std::uint64_t read_header(const JsonValue& root, const std::string& path) {
  if (!root.is_object()) kReader.fail(path, "expected an object");
  if (root.members.size() != 2 || root.members[0].first != "schema" ||
      root.members[1].first != "dropped") {
    kReader.fail(path, "header must be {\"schema\", \"dropped\"}");
  }
  const JsonValue& schema = root.members[0].second;
  if (!schema.is_string() || schema.text != kEventsSchema) {
    kReader.fail(path + ".schema",
                 "expected '" + std::string(kEventsSchema) + "'");
  }
  return kReader.parse_uint(root.members[1].second, path + ".dropped");
}

EventRecord read_event(const JsonValue& root, const std::string& path) {
  if (!root.is_object()) kReader.fail(path, "expected an object");
  const auto& members = root.members;
  // Reserved keys come first and in order; everything after is an arg.
  // (The parser already rejected duplicate keys.)
  if (members.size() < 3 || members[0].first != "event" ||
      members[1].first != "domain" || members[2].first != "seq") {
    kReader.fail(path, "event lines must start with event, domain, seq");
  }
  EventRecord record;
  if (!members[0].second.is_string() || members[0].second.text.empty()) {
    kReader.fail(path + ".event", "expected a non-empty string");
  }
  record.name = members[0].second.text;
  const JsonValue& domain = members[1].second;
  if (!domain.is_string() || (domain.text != "seq" && domain.text != "sim")) {
    kReader.fail(path + ".domain", "expected \"seq\" or \"sim\"");
  }
  record.sim_domain = domain.text == "sim";
  record.seq = kReader.parse_uint(members[2].second, path + ".seq");

  std::size_t next = 3;
  if (record.sim_domain) {
    if (members.size() < 4 || members[3].first != "t" ||
        !members[3].second.is_number()) {
      kReader.fail(path, "sim-domain events must carry a numeric 't'");
    }
    record.sim_seconds = members[3].second.number;
    next = 4;
  }

  for (std::size_t i = next; i < members.size(); ++i) {
    const auto& [key, value] = members[i];
    const std::string field = path + "." + key;
    if (key == "event" || key == "domain" || key == "seq" || key == "t") {
      kReader.fail(field, "reserved key out of position");
    }
    EventRecord::Arg arg;
    arg.key = key;
    if (value.is_string()) {
      arg.kind = EventRecord::Arg::Kind::kLiteral;
      arg.literal_value = value.text;
    } else if (value.is_number()) {
      const std::string& token = value.text;
      const bool digits_only =
          !token.empty() &&
          token.find_first_not_of("0123456789") == std::string::npos;
      if (digits_only) {
        arg.kind = EventRecord::Arg::Kind::kUint;
        arg.uint_value = kReader.parse_uint(value, field);
      } else {
        arg.kind = EventRecord::Arg::Kind::kDouble;
        arg.double_value = value.number;
      }
    } else {
      kReader.fail(field, "args must be numbers or strings");
    }
    record.args.push_back(std::move(arg));
  }
  return record;
}

// --- views ------------------------------------------------------------

std::string arg_to_string(const EventRecord::Arg& arg) {
  switch (arg.kind) {
    case EventRecord::Arg::Kind::kUint:
      return std::to_string(arg.uint_value);
    case EventRecord::Arg::Kind::kDouble:
      return json_number(arg.double_value);
    case EventRecord::Arg::Kind::kLiteral:
      return arg.literal_value;
  }
  return "";
}

std::optional<std::uint64_t> find_uint_arg(const EventRecord& record,
                                           std::string_view key) {
  for (const auto& arg : record.args) {
    if (arg.key == key && arg.kind == EventRecord::Arg::Kind::kUint) {
      return arg.uint_value;
    }
  }
  return std::nullopt;
}

/// Per-batch accumulator for the batches rollup.
struct BatchCounts {
  std::uint64_t faults = 0;
  std::uint64_t applied = 0;
  std::uint64_t replans = 0;
  std::uint64_t retries = 0;
  std::uint64_t degraded = 0;
  std::uint64_t failed_reads = 0;

  [[nodiscard]] bool any() const {
    return faults != 0 || applied != 0 || replans != 0 || retries != 0 ||
           degraded != 0 || failed_reads != 0;
  }

  void add(const EventRecord& record) {
    if (record.name == obs::event::kRepairFault) {
      ++faults;
      if (find_uint_arg(record, "applied").value_or(0) != 0) ++applied;
    } else if (record.name == obs::event::kRepairReplan) {
      replans += find_uint_arg(record, "invalidated").value_or(0);
    } else if (record.name == obs::event::kRepairRetry) {
      ++retries;
    } else if (record.name == obs::event::kBrickDegradedRead) {
      ++degraded;
    } else if (record.name == obs::event::kWorkloadReadFailed) {
      ++failed_reads;
    }
  }
};

std::vector<std::string> batch_row(const std::string& batch,
                                   const std::string& t,
                                   const std::string& committed,
                                   const BatchCounts& counts) {
  return {batch,
          t,
          committed,
          std::to_string(counts.faults),
          std::to_string(counts.applied),
          std::to_string(counts.replans),
          std::to_string(counts.retries),
          std::to_string(counts.degraded),
          std::to_string(counts.failed_reads)};
}

}  // namespace

void write_events_ndjson(const std::vector<obs::Event>& events,
                         std::uint64_t dropped, std::ostream& out) {
  out << "{\"schema\":\"" << kEventsSchema << "\",\"dropped\":" << dropped
      << "}\n";
  for (const obs::Event& event : events) write_event_line(event, out);
}

[[nodiscard]] Expected<EventsDoc> read_events_ndjson(std::string_view text) {
  EventsDoc doc;
  std::size_t line_number = 0;
  std::size_t pos = 0;
  bool saw_header = false;
  try {
    while (pos < text.size()) {
      std::size_t end = text.find('\n', pos);
      if (end == std::string_view::npos) end = text.size();
      const std::string_view line = text.substr(pos, end - pos);
      pos = end + 1;
      ++line_number;
      const std::string path = "line " + std::to_string(line_number);
      if (line.find_first_not_of(" \t\r") == std::string_view::npos) {
        if (!saw_header) {
          kReader.fail(path, "journal must start with a header line");
        }
        continue;  // tolerate a trailing blank line
      }
      Expected<JsonValue> parsed = parse_json(line);
      if (!parsed.has_value()) {
        kReader.fail(path, parsed.error().detail);
      }
      if (!saw_header) {
        doc.dropped = read_header(parsed.value(), path);
        saw_header = true;
      } else {
        doc.events.push_back(read_event(parsed.value(), path));
      }
    }
    if (!saw_header) {
      kReader.fail("line 1", "journal must start with a header line");
    }
  } catch (const ErrorException& e) {
    return e.error();
  }
  return doc;
}

std::vector<std::pair<std::string, std::uint64_t>> event_counts(
    const EventsDoc& doc) {
  std::map<std::string, std::uint64_t> counts;
  for (const EventRecord& record : doc.events) ++counts[record.name];
  return {counts.begin(), counts.end()};
}

Table events_timeline_table(const EventsDoc& doc) {
  Table table({"#", "domain", "clock", "event", "details"});
  std::size_t index = 0;
  for (const EventRecord& record : doc.events) {
    std::string details;
    for (const auto& arg : record.args) {
      if (!details.empty()) details += " ";
      details += arg.key + "=" + arg_to_string(arg);
    }
    table.add_row({std::to_string(index++),
                   record.sim_domain ? "sim" : "seq",
                   record.sim_domain ? json_number(record.sim_seconds)
                                     : std::to_string(record.seq),
                   record.name, details});
  }
  return table;
}

Table events_batches_table(const EventsDoc& doc) {
  Table table({"batch", "t", "committed", "faults", "applied", "replans",
               "retries", "degraded", "failed_reads"});
  BatchCounts counts;
  std::size_t i = 0;
  const std::vector<EventRecord>& events = doc.events;
  while (i < events.size()) {
    const EventRecord& record = events[i];
    if (record.name != obs::event::kRepairBarrier) {
      counts.add(record);
      ++i;
      continue;
    }
    // Foreground reads served *at* this barrier share its sequence
    // number and sort directly after it — fold them into this row.
    std::size_t j = i + 1;
    while (j < events.size() && events[j].seq == record.seq &&
           events[j].name != obs::event::kRepairBarrier) {
      counts.add(events[j]);
      ++j;
    }
    const auto batch = find_uint_arg(record, "batch");
    const auto committed = find_uint_arg(record, "committed");
    table.add_row(batch_row(
        batch.has_value() ? std::to_string(*batch) : "-",
        json_number(record.sim_seconds),
        committed.has_value() ? std::to_string(*committed) : "-", counts));
    counts = BatchCounts{};
    i = j;
  }
  if (counts.any()) table.add_row(batch_row("-", "-", "-", counts));
  return table;
}

void write_events_json(const EventsDoc& doc, std::ostream& out) {
  JsonWriter json(out);
  json.begin_object();
  json.key("schema").value(kEventsSchema);
  json.key("dropped").value(doc.dropped);
  json.key("events").begin_array();
  for (const EventRecord& record : doc.events) {
    json.begin_object();
    json.key("event").value(record.name);
    json.key("domain").value(record.sim_domain ? "sim" : "seq");
    json.key("seq").value(record.seq);
    if (record.sim_domain) json.key("t").value(record.sim_seconds);
    json.key("args").begin_object();
    for (const auto& arg : record.args) {
      json.key(arg.key);
      switch (arg.kind) {
        case EventRecord::Arg::Kind::kUint:
          json.value(arg.uint_value);
          break;
        case EventRecord::Arg::Kind::kDouble:
          json.value(arg.double_value);
          break;
        case EventRecord::Arg::Kind::kLiteral:
          json.value(arg.literal_value);
          break;
      }
    }
    json.end_object();
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

}  // namespace nsrel::report
