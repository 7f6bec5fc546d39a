// The `nsrel` command-line tool's commands, separated from main() so the
// test suite can drive them against string streams.
//
// Commands:
//   analyze       MTTDL + events/PB-year for one configuration
//   compare       all 9 configurations (Figure 13 style)
//   rebuild       rebuild-rate decomposition (section 5.1)
//   sweep         one-parameter sensitivity sweep, table or CSV
//   availability  steady-state availability with a restore tier
//   simulate      parallel Monte-Carlo MTTDL estimate vs the analytic
//                 model (--trials --seed --jobs --ci-target --chunk)
//   help          usage
//
// Shared flags (every command): --n --r --d --node-mttf --drive-mttf
// --capacity-gb --her-exp --iops --xfer-mbps --rebuild-kb --restripe-kb
// --link-gbps --util --bw-frac. Configuration flags: --scheme
// none|raid5|raid6, --ft 1..; --method exact|closed.
#pragma once

#include <iosfwd>

#include "cli/args.hpp"
#include "core/analyzer.hpp"

namespace nsrel::cli {

/// Process exit codes. 1 and 2 are deliberately unused (shells and
/// harnesses overload them); anything nonzero below is stable API.
inline constexpr int kExitOk = 0;              ///< every cell evaluated
inline constexpr int kExitPartialResults = 3;  ///< some cells failed (skip)
inline constexpr int kExitUsage = 4;           ///< bad command line / input
inline constexpr int kExitInternal = 5;        ///< unexpected exception or
                                               ///< failure under on-error=fail

/// Builds a SystemConfig from the shared flags over the paper baseline.
/// A value outside its domain (`--n 0`, `--util 1.5`) is a typed
/// invalid_parameter error naming the flag (see Args::reject_flag).
[[nodiscard]] core::SystemConfig config_from_args(const Args& args);

/// Parses --scheme/--ft into a Configuration (default: raid5, ft 2).
[[nodiscard]] core::Configuration configuration_from_args(const Args& args);

/// Dispatches a parsed command line; writes results to `out`, problems to
/// `err`. Returns a process exit code.
int dispatch(const Args& args, std::ostream& out, std::ostream& err);

/// Convenience overload for main().
int dispatch(int argc, const char* const* argv, std::ostream& out,
             std::ostream& err);

}  // namespace nsrel::cli
