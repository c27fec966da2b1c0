#pragma once
// Structured errors for the public API.
//
// The session front-end validates configuration eagerly — at
// SessionBuilder::build() and Session::plan() time — and reports problems
// as ApiError with a machine-readable code and the offending field, instead
// of asserting (or failing obscurely) deep inside a driver.

#include <stdexcept>
#include <string>
#include <utility>

namespace picasso::api {

enum class ErrorCode {
  InvalidArgument,       // a value is out of its documented domain
  InvalidConfiguration,  // fields are individually fine but inconsistent
  IncompatibleStrategy,  // requested strategy cannot run this problem kind
  IoError,               // a problem file could not be read / parsed
};

const char* to_string(ErrorCode code) noexcept;

class ApiError : public std::runtime_error {
 public:
  ApiError(ErrorCode code, std::string field, const std::string& message)
      : std::runtime_error("picasso::api [" + std::string(to_string(code)) +
                           "] " + field + ": " + message),
        code_(code),
        field_(std::move(field)) {}

  ErrorCode code() const noexcept { return code_; }
  /// The builder/problem field the error is about ("palette_percent",
  /// "strategy", "delta", ...), for programmatic handling.
  const std::string& field() const noexcept { return field_; }

 private:
  ErrorCode code_;
  std::string field_;
};

inline const char* to_string(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::InvalidArgument: return "invalid-argument";
    case ErrorCode::InvalidConfiguration: return "invalid-configuration";
    case ErrorCode::IncompatibleStrategy: return "incompatible-strategy";
    case ErrorCode::IoError: return "io-error";
  }
  return "?";
}

}  // namespace picasso::api
