#include "cli/args.hpp"

#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace nsrel::cli {

namespace {

std::vector<std::string> to_tokens(int argc, const char* const* argv) {
  std::vector<std::string> tokens;
  for (int i = 1; i < argc; ++i) tokens.emplace_back(argv[i]);
  return tokens;
}

/// The few flags that take no value; everything else is `--key value`.
bool is_bare_flag(const std::string& key) {
  return key == "help" || key == "version" || key == "metrics" ||
         key == "progress" || key == "cache-stats";
}

bool is_flag(const std::string& token) { return token.rfind("--", 0) == 0; }

}  // namespace

Args::Args(int argc, const char* const* argv) : Args(to_tokens(argc, argv)) {}

Args::Args(const std::vector<std::string>& tokens) {
  std::size_t i = 0;
  if (i < tokens.size() && !is_flag(tokens[i])) {
    command_ = tokens[i];
    ++i;
  }
  for (; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    if (!is_flag(token)) {
      // Positional operands exist only for the file-reading commands
      // (diff's two documents, events' journal, report's inputs); after
      // any other command a bare token is a typo.
      if (command_ != "diff" && command_ != "events" &&
          command_ != "report") {
        reject("unexpected argument '" + token + "'");
      }
      positionals_.push_back(token);
      continue;
    }
    const std::string key = token.substr(2);
    if (is_bare_flag(key)) {
      // insert_or_assign, not `flags_[key] = "1"`: assigning a literal
      // into an existing string trips a GCC 12 -Wrestrict false
      // positive at -O3.
      flags_.insert_or_assign(key, std::string("1"));
      continue;
    }
    if (i + 1 == tokens.size() || is_flag(tokens[i + 1])) {
      reject("flag " + token + " needs a value");
      continue;
    }
    flags_[key] = tokens[++i];
  }
}

void Args::reject(std::string detail) {
  if (!error_) {
    error_ = Error{ErrorCode::kInvalidParameter, "cli.args",
                   std::move(detail)};
  }
}

bool Args::has(const std::string& key) const {
  consumed_.insert(key);
  return flags_.contains(key);
}

std::string Args::get_string(const std::string& key,
                             const std::string& fallback) const {
  consumed_.insert(key);
  const auto it = flags_.find(key);
  return it == flags_.end() ? fallback : it->second;
}

double Args::get_double(const std::string& key, double fallback) const {
  consumed_.insert(key);
  const auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  char* end = nullptr;
  const double value = std::strtod(it->second.c_str(), &end);
  if (it->second.empty() || *end != '\0') reject_flag(key, "needs a number");
  return value;
}

int Args::get_int(const std::string& key, int fallback) const {
  const double value = get_double(key, static_cast<double>(fallback));
  // Range-check before the cast: converting an out-of-range double to
  // int is undefined behaviour. Also rejects NaN and 3.5.
  if (!(value >= std::numeric_limits<int>::min() &&
        value <= std::numeric_limits<int>::max()) ||
      value != std::trunc(value)) {
    reject_flag(key, "needs an integer");
  }
  return static_cast<int>(value);
}

void Args::reject_flag(const std::string& key,
                       const std::string& requirement) const {
  std::string detail = std::string("flag --").append(key);
  detail.append(" ").append(requirement);
  if (const auto it = flags_.find(key); it != flags_.end()) {
    detail.append(", got '").append(it->second).append("'");
  }
  reject(Error{ErrorCode::kInvalidParameter, "cli.args", std::move(detail)});
}

void Args::reject(Error error) const {
  if (!error_) error_ = error;
  throw ErrorException(std::move(error));
}

std::vector<std::string> Args::unused() const {
  std::vector<std::string> result;
  for (const auto& [key, value] : flags_) {
    if (!consumed_.contains(key)) result.push_back(key);
  }
  return result;
}

}  // namespace nsrel::cli
