// Minimal Status / Result error-handling vocabulary, in the spirit of
// arrow::Status / rocksdb::Status. The library does not throw exceptions;
// fallible constructors are expressed as factory functions returning
// Result<T>.

#ifndef ONION_COMMON_STATUS_H_
#define ONION_COMMON_STATUS_H_

#include <string>
#include <utility>
#include <variant>

#include "common/macros.h"

namespace onion {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kOutOfRange = 2,
  kNotFound = 3,
  kUnimplemented = 4,
  kInternal = 5,
  kCorruption = 6,
  kResourceExhausted = 7,
};

/// Returns a stable human-readable name for a status code ("OK",
/// "InvalidArgument", ...).
const char* StatusCodeName(StatusCode code);

/// A cheap value type describing the outcome of a fallible operation.
/// [[nodiscard]] on the class makes EVERY function returning a Status by
/// value warn when the result is dropped — an ignored error is a bug
/// unless a call site says otherwise with an explicit (void) cast and a
/// comment arguing why.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Renders as e.g. "InvalidArgument: side must be even".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// Either a value of type T or an error Status. Accessing the value of an
/// errored Result aborts the process (the library treats that as a
/// programming error, consistent with CHECK semantics).
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : repr_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status) : repr_(std::move(status)) {  // NOLINT
    ONION_CHECK_MSG(!std::get<Status>(repr_).ok(),
                    "Result constructed from OK status");
  }

  bool ok() const { return std::holds_alternative<T>(repr_); }

  const T& value() const& {
    ONION_CHECK_MSG(ok(), status().ToString().c_str());
    return std::get<T>(repr_);
  }
  T& value() & {
    ONION_CHECK_MSG(ok(), status().ToString().c_str());
    return std::get<T>(repr_);
  }
  T&& value() && {
    ONION_CHECK_MSG(ok(), status().ToString().c_str());
    return std::get<T>(std::move(repr_));
  }

  Status status() const {
    if (ok()) return Status::OK();
    return std::get<Status>(repr_);
  }

 private:
  std::variant<T, Status> repr_;
};

}  // namespace onion

#endif  // ONION_COMMON_STATUS_H_
