#include "report/json.hpp"

#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <string_view>
#include <system_error>

#include "util/assert.hpp"

namespace nsrel::report {

std::string json_escape(std::string_view text) {
  std::string escaped;
  escaped.reserve(text.size());
  for (const char ch : text) {
    switch (ch) {
      case '"': escaped += "\\\""; break;
      case '\\': escaped += "\\\\"; break;
      case '\n': escaped += "\\n"; break;
      case '\r': escaped += "\\r"; break;
      case '\t': escaped += "\\t"; break;
      case '\b': escaped += "\\b"; break;
      case '\f': escaped += "\\f"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          escaped += buf;
        } else {
          escaped += ch;
        }
    }
  }
  return escaped;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  // The shortest of %.15g, %.16g, %.17g that reads back as v. to_chars
  // with a precision prints exactly what printf's %.*g prints, and
  // from_chars reads as strtod does (a text that overflows to infinity
  // reads back as an error instead), without the locale.
  char buf[40];
  char* end = buf;
  for (int precision = 15; precision <= 17; ++precision) {
    end = std::to_chars(buf, buf + sizeof(buf), v,
                        std::chars_format::general, precision)
              .ptr;
    double back = 0.0;
    if (std::from_chars(buf, end, back).ec == std::errc{} && back == v) {
      break;
    }
  }
  return std::string(buf, end);
}

JsonWriter::JsonWriter(std::ostream& out) : out_(out) {}

void JsonWriter::write_indent(std::size_t depth) {
  out_ << '\n';
  for (std::size_t i = 0; i < depth; ++i) out_ << "  ";
}

void JsonWriter::prepare_item() {
  NSREL_EXPECTS(!done_);
  if (scopes_.empty()) return;  // the single top-level value
  Scope& scope = scopes_.back();
  if (scope.closer == '}') {
    // Object members are emitted by key(); a bare value here means the
    // key is pending and separators were already written.
    NSREL_EXPECTS(pending_key_);
    pending_key_ = false;
    return;
  }
  NSREL_EXPECTS(!pending_key_);
  if (scope.has_items) out_ << ',';
  scope.has_items = true;
  write_indent(scopes_.size());
}

void JsonWriter::finish_item() {
  if (scopes_.empty()) {
    out_ << '\n';
    done_ = true;
  }
}

JsonWriter& JsonWriter::key(std::string_view name) {
  NSREL_EXPECTS(!done_ && !pending_key_);
  NSREL_EXPECTS(!scopes_.empty() && scopes_.back().closer == '}');
  Scope& scope = scopes_.back();
  if (scope.has_items) out_ << ',';
  scope.has_items = true;
  write_indent(scopes_.size());
  out_ << '"' << json_escape(name) << "\": ";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_object() {
  prepare_item();
  out_ << '{';
  scopes_.push_back({'}'});
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  prepare_item();
  out_ << '[';
  scopes_.push_back({']'});
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  NSREL_EXPECTS(!pending_key_);
  NSREL_EXPECTS(!scopes_.empty() && scopes_.back().closer == '}');
  const bool had_items = scopes_.back().has_items;
  scopes_.pop_back();
  if (had_items) write_indent(scopes_.size());
  out_ << '}';
  finish_item();
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  NSREL_EXPECTS(!pending_key_);
  NSREL_EXPECTS(!scopes_.empty() && scopes_.back().closer == ']');
  const bool had_items = scopes_.back().has_items;
  scopes_.pop_back();
  if (had_items) write_indent(scopes_.size());
  out_ << ']';
  finish_item();
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view text) {
  prepare_item();
  out_ << '"' << json_escape(text) << '"';
  finish_item();
  return *this;
}

JsonWriter& JsonWriter::value(const char* text) {
  return value(std::string_view(text));
}

JsonWriter& JsonWriter::value(double number) {
  prepare_item();
  out_ << json_number(number);
  finish_item();
  return *this;
}

JsonWriter& JsonWriter::value(int number) {
  return value(static_cast<std::int64_t>(number));
}

JsonWriter& JsonWriter::value(std::int64_t number) {
  prepare_item();
  out_ << number;
  finish_item();
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t number) {
  prepare_item();
  out_ << number;
  finish_item();
  return *this;
}

JsonWriter& JsonWriter::value(bool flag) {
  prepare_item();
  out_ << (flag ? "true" : "false");
  finish_item();
  return *this;
}

JsonWriter& JsonWriter::null() {
  prepare_item();
  out_ << "null";
  finish_item();
  return *this;
}

bool JsonWriter::complete() const { return done_; }

}  // namespace nsrel::report
