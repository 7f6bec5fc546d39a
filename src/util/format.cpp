#include "util/format.hpp"

#include <cmath>
#include <cstdio>
#include <string>

#include "util/assert.hpp"
#include "util/units.hpp"

namespace nsrel {

namespace {
std::string printf_to_string(const char* fmt, double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, precision, v);
  return buf;
}
}  // namespace

std::string sci(double v, int significant_digits) {
  NSREL_EXPECTS(significant_digits >= 1);
  return printf_to_string("%.*e", v, significant_digits - 1);
}

std::string fixed(double v, int decimals) {
  NSREL_EXPECTS(decimals >= 0);
  return printf_to_string("%.*f", v, decimals);
}

std::string human_bytes(double bytes) {
  // append() rather than `"-" + human_bytes(...)`: operator+'s front
  // insert trips a GCC 12 -Wrestrict false positive at -O3.
  if (bytes < 0) return std::string("-").append(human_bytes(-bytes));
  if (bytes < 1024.0 * 1024.0) {
    if (bytes >= 1024.0) return fixed(bytes / 1024.0, 0) + " KiB";
    return fixed(bytes, 0) + " B";
  }
  if (bytes < 1e9) return fixed(bytes / (1024.0 * 1024.0), 0) + " MiB";
  if (bytes < 1e12) return fixed(bytes / 1e9, 0) + " GB";
  if (bytes < 1e15) return fixed(bytes / 1e12, 1) + " TB";
  return fixed(bytes / 1e15, 2) + " PB";
}

std::string human_hours(double hours) {
  if (hours < 1e4) return fixed(hours, 1) + " h";
  return sci(hours, 3) + " h (" + sci(hours / kHoursPerYear, 3) + " yr)";
}

}  // namespace nsrel
