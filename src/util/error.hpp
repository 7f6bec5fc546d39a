// Typed error taxonomy for the solve stack, plus a lightweight
// Expected<T> result type.
//
// The paper's whole subject is graceful degradation under component
// faults, and the evaluation pipeline holds itself to the same bar: a
// degenerate cell in a sweep (singular generator, non-finite rate,
// contract violation inside model construction) must not abort the run —
// it becomes a typed `Error` with a *stable* machine-readable code that
// renders identically at any --jobs count. Numerical layers return
// `Expected<T>` from their `try_*` entry points; the throwing wrappers
// raise `ErrorException`, which the engine catches per cell.
#pragma once

#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

#include "util/assert.hpp"

namespace nsrel {

/// Stable error codes. The names rendered into tables/CSV/JSON (and
/// matched by downstream tooling) come from error_code_name() and never
/// change meaning:
///   singular_generator  - the chain's absorption/generator matrix is
///                         numerically singular (no solve exists)
///   ill_conditioned     - the solve exists but its results would be
///                         noise (kept for stable rendering; the
///                         cancellation-free GTH solver never raises it)
///   non_finite_result   - a produced value (MTTDL, rate, probability)
///                         is NaN/inf or out of its domain
///   invalid_parameter   - an input parameter is out of domain (zero or
///                         negative rate, non-finite value, bad range)
///   contract_violation  - an NSREL_EXPECTS/ENSURES/ASSERT fired inside
///                         the cell's model construction or solve
///   internal            - any other std::exception escaped the cell
///   malformed_document  - a serialized document (nsrel-resultset-v3
///                         JSON) failed strict validation: wrong schema
///                         tag, missing/unknown keys, type mismatches,
///                         or indices out of range
///   data_loss           - stored data is genuinely gone: a stripe lost
///                         more shards than its erasure code tolerates
///                         (the brick store / repair engine's absorbing
///                         state)
///   capacity_exhausted  - the surviving nodes lack the spare capacity
///                         to place or rebuild a shard (fail-in-place
///                         over-provisioning ran out)
enum class ErrorCode : unsigned char {
  kSingularGenerator,
  kIllConditioned,
  kNonFiniteResult,
  kInvalidParameter,
  kContractViolation,
  kInternal,
  kMalformedDocument,
  kDataLoss,
  kCapacityExhausted,
};

/// The stable snake_case name of a code (e.g. "singular_generator").
[[nodiscard]] const char* error_code_name(ErrorCode code);

/// A typed failure: what went wrong (code), which layer detected it
/// (e.g. "ctmc.absorbing"), and a human-readable detail string.
struct Error {
  ErrorCode code = ErrorCode::kInternal;
  std::string layer;
  std::string detail;

  /// "<layer>: <code name>: <detail>".
  [[nodiscard]] std::string message() const;
};

/// Thrown by the throwing wrappers around `try_*` entry points (and by
/// anything that wants to signal a typed error through exception-shaped
/// code). Distinct from ContractViolation: an ErrorException is a
/// runtime/numerical failure of the inputs, not a caller bug.
class ErrorException : public std::runtime_error {
 public:
  explicit ErrorException(Error error)
      : std::runtime_error(error.message()), error_(std::move(error)) {}

  [[nodiscard]] const Error& error() const { return error_; }

 private:
  Error error_;
};

/// Minimal expected/either type: holds a T or an Error. Deliberately
/// tiny (no monadic combinators) — the solve stack only ever constructs,
/// tests, and unwraps. Class-level [[nodiscard]]: ignoring a returned
/// Expected silently drops a typed error, so the compiler rejects it
/// (nsrel-lint rule expected-nodiscard additionally requires the
/// attribute on every returning function for readers and older TUs).
template <typename T>
class [[nodiscard]] Expected {
 public:
  /// Default state is an error, so containers of not-yet-evaluated cells
  /// read as failures rather than junk values.
  Expected() : data_(Error{ErrorCode::kInternal, "expected", "empty"}) {}
  Expected(T value) : data_(std::move(value)) {}          // NOLINT(google-explicit-constructor)
  Expected(Error error) : data_(std::move(error)) {}      // NOLINT(google-explicit-constructor)

  [[nodiscard]] bool has_value() const {
    return std::holds_alternative<T>(data_);
  }
  explicit operator bool() const { return has_value(); }

  /// Requires has_value().
  [[nodiscard]] const T& value() const& {
    NSREL_EXPECTS(has_value());
    return std::get<T>(data_);
  }
  [[nodiscard]] T& value() & {
    NSREL_EXPECTS(has_value());
    return std::get<T>(data_);
  }

  /// Requires !has_value().
  [[nodiscard]] const Error& error() const {
    NSREL_EXPECTS(!has_value());
    return std::get<Error>(data_);
  }

  /// Unwraps, raising ErrorException on failure (the bridge from the
  /// Expected world back into the throwing public APIs).
  [[nodiscard]] const T& value_or_throw() const& {
    if (!has_value()) throw ErrorException(std::get<Error>(data_));
    return std::get<T>(data_);
  }

 private:
  std::variant<T, Error> data_;
};

}  // namespace nsrel
