// Minimal command-line argument parser for the `nsrel` tool: one
// positional command followed by `--key value` flags. Typed accessors
// with defaults; unknown or malformed flags are reported, and every flag
// actually consumed is tracked so the tool can reject typos.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace nsrel::cli {

class Args {
 public:
  /// Parses {argv[1], ...}. The first non-flag token is the command;
  /// everything else must be `--key value` pairs, except for the
  /// whitelisted valueless flags (--help, --version, --metrics,
  /// --progress, --cache-stats) which parse as present with value "1",
  /// and the commands that take positional operands (`diff`, `events`,
  /// and `report`, whose operands are file paths). Never throws: a flag
  /// without a value (end of line, or another --flag next) or a stray
  /// positional token after any other command is recorded in error().
  Args(int argc, const char* const* argv);

  /// Convenience for tests.
  explicit Args(const std::vector<std::string>& tokens);

  [[nodiscard]] const std::string& command() const { return command_; }

  [[nodiscard]] bool has(const std::string& key) const;

  /// Typed accessors. A present but malformed value (not a number, or
  /// for get_int not an integer in int's range) goes to reject_flag().
  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] int get_int(const std::string& key, int fallback) const;

  /// Records a typed invalid_parameter error "flag --key <requirement>,
  /// got '<value>'" in error() (the first error wins) and throws it as an
  /// ErrorException; dispatch reports it as a usage error (exit 4).
  [[noreturn]] void reject_flag(const std::string& key,
                                const std::string& requirement) const;

  /// Flags present on the command line but never read by any accessor —
  /// almost certainly typos. Call after all gets.
  [[nodiscard]] std::vector<std::string> unused() const;

  /// Positional operands after the command, in order (only the commands
  /// whitelisted in the parser may have any).
  [[nodiscard]] const std::vector<std::string>& positionals() const {
    return positionals_;
  }

  /// The first malformed token or rejected flag value, as a typed
  /// invalid_parameter error naming it; nullopt when there is none.
  [[nodiscard]] const std::optional<Error>& error() const { return error_; }

 private:
  void reject(std::string detail);

  mutable std::optional<Error> error_;
  std::string command_;
  std::vector<std::string> positionals_;
  std::map<std::string, std::string> flags_;
  mutable std::set<std::string> consumed_;
};

}  // namespace nsrel::cli
