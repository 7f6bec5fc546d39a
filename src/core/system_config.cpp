#include "core/system_config.hpp"

#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "util/assert.hpp"

namespace nsrel::core {

void SystemConfig::validate() const {
  if (const auto violation = domain_violation(*this)) {
    throw ContractViolation(
        std::string("precondition failed: system parameter ")
            .append(violation->parameter)
            .append(" ")
            .append(violation->requirement));
  }
  NSREL_EXPECTS(link.efficiency > 0.0 && link.efficiency <= 1.0);
}

std::optional<DomainViolation> domain_violation(const SystemConfig& c) {
  const auto positive = [](double x) { return x > 0.0; };
  const auto fraction = [](double x) { return x > 0.0 && x <= 1.0; };
  constexpr const char* kPositive = "needs a value > 0";
  constexpr const char* kFraction = "needs a value in (0, 1]";
  const struct {
    const char* parameter;
    bool ok;
    const char* requirement;
  } checks[] = {
      {"n", c.node_set_size >= 2, "needs an integer from 2 to 2147483647"},
      {"r",
       c.redundancy_set_size >= 2 &&
           c.redundancy_set_size <= c.node_set_size,
       "needs an integer from 2 to n"},
      {"d", c.drives_per_node >= 1, "needs an integer from 1 to 2147483647"},
      {"node-mttf", positive(c.node_mttf.value()), kPositive},
      {"drive-mttf", positive(c.drive.mttf.value()), kPositive},
      {"capacity-gb", positive(c.drive.capacity.value()), kPositive},
      {"her-exp", c.drive.her_per_byte >= 0.0, "needs a number"},
      {"iops", positive(c.drive.max_iops), kPositive},
      {"xfer-mbps", positive(c.drive.sustained_rate.value()), kPositive},
      {"link-gbps", positive(c.link.raw_speed.value()), kPositive},
      {"rebuild-kb", positive(c.rebuild_command.value()), kPositive},
      {"restripe-kb", positive(c.restripe_command.value()), kPositive},
      {"util", fraction(c.capacity_utilization), kFraction},
      {"bw-frac", fraction(c.rebuild_bandwidth_fraction), kFraction},
  };
  for (const auto& check : checks) {
    if (!check.ok) return DomainViolation{check.parameter, check.requirement};
  }
  return std::nullopt;
}

namespace {

/// n, r and d as int; 0 (outside each one's domain) for a value the
/// cast cannot represent.
int to_count(double value) {
  return value >= std::numeric_limits<int>::min() &&
                 value <= std::numeric_limits<int>::max()
             ? static_cast<int>(value)
             : 0;
}

}  // namespace

bool set_parameter(SystemConfig& config, const std::string& name,
                   double value) {
  if (name == "n") {
    config.node_set_size = to_count(value);
  } else if (name == "r") {
    config.redundancy_set_size = to_count(value);
  } else if (name == "d") {
    config.drives_per_node = to_count(value);
  } else if (name == "node-mttf") {
    config.node_mttf = Hours(value);
  } else if (name == "drive-mttf") {
    config.drive.mttf = Hours(value);
  } else if (name == "capacity-gb") {
    config.drive.capacity = gigabytes(value);
  } else if (name == "her-exp") {
    config.drive.her_per_byte = 8.0 * std::pow(10.0, -value);
  } else if (name == "iops") {
    config.drive.max_iops = value;
  } else if (name == "xfer-mbps") {
    config.drive.sustained_rate = megabytes_per_second(value);
  } else if (name == "link-gbps") {
    config.link.raw_speed = gigabits_per_second(value);
  } else if (name == "rebuild-kb") {
    config.rebuild_command = kilobytes(value);
  } else if (name == "restripe-kb") {
    config.restripe_command = kilobytes(value);
  } else if (name == "util") {
    config.capacity_utilization = value;
  } else if (name == "bw-frac") {
    config.rebuild_bandwidth_fraction = value;
  } else {
    return false;
  }
  return true;
}

std::optional<std::string> sweep_end_violation(const SystemConfig& base,
                                               const std::string& parameter,
                                               double value) {
  SystemConfig point = base;
  (void)set_parameter(point, parameter, value);
  const auto violation = domain_violation(point);
  if (!violation) return std::nullopt;
  return std::string("puts ")
      .append(violation->parameter)
      .append(" out of its domain (")
      .append(violation->requirement)
      .append(")");
}

std::vector<std::string> parameter_names() {
  return {"n",         "r",          "d",          "node-mttf",
          "drive-mttf", "capacity-gb", "her-exp",   "iops",
          "xfer-mbps",  "link-gbps",  "rebuild-kb", "restripe-kb",
          "util",       "bw-frac"};
}

}  // namespace nsrel::core
