// Error handling of the stable `wave::` embedding facade.
//
// The internal layers (src/) signal contract violations by throwing
// (common::contract_error, core::ConfigError); the public API boundary
// never lets those escape. Every fallible facade call returns a Status or
// an Expected<T> instead, so an embedding application — a procurement
// dashboard, a long-lived query service — handles a typo'd machine name
// the same way it handles any other recoverable input error.
//
// This header is self-contained: it depends only on the C++ standard
// library and may be included from any TU, with only `include/` on the
// include path.
#pragma once

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace wave {

/// @brief Coarse error taxonomy of the facade (mirrors the usual
///   RPC-status vocabulary so embedders can map it onto their own).
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,     ///< a builder value is out of domain
  kNotFound,            ///< unknown workload / comm model / machine name
  kAlreadyExists,       ///< duplicate registration
  kFailedPrecondition,  ///< call sequence error (e.g. unbound Query)
  kInternal,            ///< an internal invariant failed — please report
};

/// @brief The outcome of a fallible facade call: kOk, or a code plus a
///   human-readable message (which preserves the internal error text,
///   including the "registered: a, b, c" vocabulary lists).
class Status {
 public:
  /// Success.
  Status() = default;

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status ok() { return Status(); }
  static Status invalid_argument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status not_found(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status already_exists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status failed_precondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool is_ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<code>: <message>" — ready for logs and stderr.
  std::string to_string() const;

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// @brief A value of type T or the Status explaining its absence — the
///   return type of every facade call that produces a result.
///
/// Usage:
///   auto result = ctx.query().machine("xt4-dual").run();
///   if (!result.ok()) { log(result.status().message()); return; }
///   use(result.value());
template <typename T>
class Expected {
 public:
  /// Success. Implicit so `return some_result;` reads naturally.
  Expected(T value) : value_(std::move(value)) {}

  /// Failure. Implicit so `return Status::not_found(...);` reads naturally.
  /// An OK status without a value is a caller bug and is remapped to
  /// kInternal rather than silently pretending success.
  Expected(Status status) : status_(std::move(status)) {
    if (status_.is_ok())
      status_ = Status::internal("Expected constructed from an OK status");
  }

  bool ok() const { return value_.has_value(); }

  /// The error (Status::ok() when a value is present).
  const Status& status() const { return status_; }

  /// The value; must only be called when ok().
  const T& value() const& {
    assert(ok() && "Expected::value() called without a value");
    return *value_;
  }
  T& value() & {
    assert(ok() && "Expected::value() called without a value");
    return *value_;
  }
  T&& value() && {
    assert(ok() && "Expected::value() called without a value");
    return std::move(*value_);
  }

  /// The value, or `fallback` on error.
  T value_or(T fallback) const& {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  std::optional<T> value_;
  Status status_;
};

/// @brief The facade's semantic version; bumped per the policy in
///   docs/API.md (major = breaking, minor = additive).
#define WAVE_API_VERSION_MAJOR 2
#define WAVE_API_VERSION_MINOR 0
#define WAVE_API_VERSION_PATCH 0

/// @brief "major.minor.patch" of the facade this library was built as.
std::string api_version();

}  // namespace wave
