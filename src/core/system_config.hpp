// Full description of a networked-storage-node system: the inputs every
// model in this library consumes. `baseline()` is the section-6 parameter
// table verbatim.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "rebuild/drive_model.hpp"
#include "rebuild/link_model.hpp"
#include "util/units.hpp"

namespace nsrel::core {

struct SystemConfig {
  int node_set_size = 64;        ///< N
  int redundancy_set_size = 8;   ///< R
  int drives_per_node = 12;      ///< d
  Hours node_mttf{400'000.0};    ///< paper: 400,000 h
  rebuild::DriveParams drive;    ///< MTTF, capacity, HER, IOPS, rate
  rebuild::LinkParams link;      ///< 10 Gb/s -> 800 MB/s sustained
  Bytes rebuild_command = kilobytes(128.0);
  Bytes restripe_command = megabytes(1.0);
  double capacity_utilization = 0.75;
  double rebuild_bandwidth_fraction = 0.10;

  /// The section-6 baseline (which is also the default-constructed value;
  /// this named factory exists for call-site readability).
  [[nodiscard]] static SystemConfig baseline() { return SystemConfig{}; }

  /// Throws ContractViolation when any field is out of its domain (the
  /// library contract; user input goes through domain_violation()).
  void validate() const;
};

/// A field outside its domain, named by its canonical parameter name
/// (see set_parameter), with the requirement it breaks.
struct DomainViolation {
  std::string parameter;    ///< e.g. "util"
  std::string requirement;  ///< e.g. "needs a value in (0, 1]"
};

/// The first user-settable field outside its domain, in
/// parameter_names() order; nullopt when every one is inside. Callers
/// that read user input report it as a typed error naming their flag
/// or key instead of letting validate() throw.
[[nodiscard]] std::optional<DomainViolation> domain_violation(
    const SystemConfig& config);

/// Sets one field by its canonical parameter name (the names the CLI and
/// scenario files share): n, r, d, node-mttf, drive-mttf, capacity-gb,
/// her-exp (1 sector per 10^value bits), iops, xfer-mbps, link-gbps,
/// rebuild-kb, restripe-kb, util, bw-frac. Returns false for an unknown
/// name; the value is applied unvalidated (check domain_violation() or
/// call validate() after the last set). n, r and d truncate to int; a
/// value beyond int's range (or NaN) is stored as 0, outside their
/// domains, because casting it would be undefined behaviour.
[[nodiscard]] bool set_parameter(SystemConfig& config, const std::string& name,
                                 double value);

/// Why setting `parameter` to `value` on `base` leaves the domain, as a
/// requirement naming the broken field ("puts n out of its domain
/// (needs ...)"); nullopt when the result is inside it. Each field's
/// domain is an interval, so a sweep whose two ends pass this check has
/// every point inside.
[[nodiscard]] std::optional<std::string> sweep_end_violation(
    const SystemConfig& base, const std::string& parameter, double value);

/// The canonical parameter names accepted by set_parameter.
[[nodiscard]] std::vector<std::string> parameter_names();

}  // namespace nsrel::core
