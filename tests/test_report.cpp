// Tests for the table/CSV/JSON report emitters.
#include <cstdint>
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "report/json.hpp"
#include "report/table.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace nsrel::report {
namespace {

TEST(Table, AlignsColumnsToWidestCell) {
  Table t({"name", "v"});
  t.add_row({"a", "1.5"});
  t.add_row({"long-name", "2"});
  const std::string rendered = t.to_string();
  // Each data line starts at the same column for field 2.
  std::istringstream in(rendered);
  std::string header, underline, row1, row2;
  std::getline(in, header);
  std::getline(in, underline);
  std::getline(in, row1);
  std::getline(in, row2);
  EXPECT_EQ(header.find('v'), row1.find("1.5"));
  EXPECT_EQ(row1.find("1.5"), row2.find('2'));
  EXPECT_EQ(underline.find_first_not_of('-'), std::string::npos);
}

TEST(Table, RowArityIsChecked) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractViolation);
  EXPECT_THROW(Table({}), ContractViolation);
}

TEST(Table, RowCount) {
  Table t({"a"});
  EXPECT_EQ(t.row_count(), 0u);
  t.add_row({"x"});
  t.add_row({"y"});
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, CsvEscapesSpecialCharacters) {
  Table t({"name", "note"});
  t.add_row({"plain", "with,comma"});
  t.add_row({"quote\"inside", "ok"});
  std::ostringstream out;
  t.print_csv(out);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"quote\"\"inside\""), std::string::npos);
  EXPECT_NE(csv.find("name,note\n"), std::string::npos);
}

TEST(Table, CsvRowStructure) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream out;
  t.print_csv(out);
  EXPECT_EQ(out.str(), "a,b\n1,2\n");
}

TEST(Table, CsvQuotesEmbeddedNewlines) {
  Table t({"name", "note"});
  t.add_row({"multi\nline", "also \"quoted\", with comma"});
  std::ostringstream out;
  t.print_csv(out);
  EXPECT_EQ(out.str(),
            "name,note\n\"multi\nline\",\"also \"\"quoted\"\", with "
            "comma\"\n");
}

TEST(OutputFormat, ParseAndName) {
  EXPECT_EQ(parse_output_format("table"), OutputFormat::kTable);
  EXPECT_EQ(parse_output_format("csv"), OutputFormat::kCsv);
  EXPECT_EQ(parse_output_format("json"), OutputFormat::kJson);
  EXPECT_THROW((void)parse_output_format("xml"), ContractViolation);
  EXPECT_EQ(format_name(OutputFormat::kJson), "json");
  EXPECT_EQ(parse_output_format(format_name(OutputFormat::kCsv)),
            OutputFormat::kCsv);
}

TEST(Json, EscapesSpecialCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("tab\there\n"), "tab\\there\\n");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

/// The printf/strtod formatting json_number replaced: the shortest of
/// %.15g, %.16g, %.17g that strtod reads back as v.
std::string snprintf_json_number(double v) {
  char buf[40];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

TEST(Json, NumbersRoundTripThroughStrtod) {
  for (const double v : {1.0, -0.5, 1e-300, 1.7976931348623157e308,
                         0.1 + 0.2, 3.0e5, 2e-3, 123456789.123456789}) {
    const std::string text = json_number(v);
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), v) << text;
  }
  // Byte for byte what the printf/strtod loop printed, on the edge
  // values and on a seeded sample: arbitrary bit patterns (every
  // exponent, subnormals included), subnormals alone, integers up to
  // 1e17, and uniform [0, 1) values, most of which need 17 digits.
  std::vector<double> sample = {
      0.0, -0.0, std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(), std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(), 0.1 + 0.2, 1e17, 1e16 + 1.0,
      9007199254740993.0, 5e-324, 2.2250738585072009e-308};
  Xoshiro256 rng(stream_seed(0x15D0, 0));
  for (int i = 0; i < 40'000; ++i) {
    const double bits = std::bit_cast<double>(rng());
    if (std::isfinite(bits)) sample.push_back(bits);
    sample.push_back(std::bit_cast<double>(rng() & 0x800F'FFFF'FFFF'FFFFULL));
    sample.push_back(static_cast<double>(rng.below(100'000'000'000'000'001ULL)));
    sample.push_back(rng.uniform());
  }
  ASSERT_GE(sample.size(), 100'000u);
  std::size_t differences = 0;
  for (const double v : sample) {
    const std::string text = json_number(v);
    if (text != snprintf_json_number(v) ||
        !(std::strtod(text.c_str(), nullptr) == v)) {
      ADD_FAILURE() << "bits " << std::bit_cast<std::uint64_t>(v) << ": "
                    << text << " vs " << snprintf_json_number(v);
      if (++differences == 10) break;
    }
  }
  // Non-finite values have no JSON spelling; the writer emits null.
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");
}

TEST(Json, WriterGoldenBytes) {
  std::ostringstream out;
  JsonWriter w(out);
  w.begin_object();
  w.key("name").value("raid5-ft2");
  w.key("count").value(std::uint64_t{3});
  w.key("ratio").value(0.5);
  w.key("ok").value(true);
  w.key("axis").null();
  w.key("cells").begin_array();
  w.value(1);
  w.begin_object();
  w.key("x").value("a,\"b\"");
  w.end_object();
  w.end_array();
  w.end_object();
  EXPECT_TRUE(w.complete());
  EXPECT_EQ(out.str(),
            "{\n"
            "  \"name\": \"raid5-ft2\",\n"
            "  \"count\": 3,\n"
            "  \"ratio\": 0.5,\n"
            "  \"ok\": true,\n"
            "  \"axis\": null,\n"
            "  \"cells\": [\n"
            "    1,\n"
            "    {\n"
            "      \"x\": \"a,\\\"b\\\"\"\n"
            "    }\n"
            "  ]\n"
            "}\n");
}

TEST(Json, WriterRejectsMisuse) {
  {
    std::ostringstream out;
    JsonWriter w(out);
    w.begin_object();
    EXPECT_THROW(w.value(1.0), ContractViolation);  // member without a key
  }
  {
    std::ostringstream out;
    JsonWriter w(out);
    w.begin_array();
    EXPECT_THROW(w.end_object(), ContractViolation);  // mismatched closer
  }
}

TEST(Section, HeaderShape) {
  std::ostringstream out;
  print_section(out, "Figure 13");
  EXPECT_EQ(out.str(), "\n== Figure 13 ==\n");
}

}  // namespace
}  // namespace nsrel::report
