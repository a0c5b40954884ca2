#ifndef HILLVIEW_UTIL_STATUS_H_
#define HILLVIEW_UTIL_STATUS_H_

#include <string>
#include <utility>
#include <variant>

namespace hillview {

/// Error categories used across the library. Kept deliberately coarse: callers
/// mostly branch on ok()/!ok(); the code is for diagnostics and tests.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kIoError,
  kOutOfRange,
  kCancelled,
  kFailedPrecondition,
  kUnavailable,   // soft state evicted / worker dead; caller should heal
  kDeadlineExceeded,  // RPC produced no (complete) response in time; the
                      // operation is idempotent, so the caller may retry
  kInternal,
};

/// Returns a short human-readable name ("OK", "InvalidArgument", ...).
const char* StatusCodeName(StatusCode code);

/// Arrow-style status object: cheap to return, carries a code and a message.
/// Functions that cannot fail return void; functions that can fail return
/// Status or Result<T>. Exceptions are not used for control flow.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// A fault a query can outlive: lost soft state (kUnavailable, healed from
/// the dataset's lineage) or a transport/deadline miss the RPC edge could
/// not heal (kDeadlineExceeded). The root heals or degrades a query on these,
/// and a degraded merge drops the child that reported one. Anything else —
/// Cancelled included — is final.
inline bool IsTransient(const Status& s) {
  return s.code() == StatusCode::kUnavailable ||
         s.code() == StatusCode::kDeadlineExceeded;
}

/// Either a value or an error Status. Modeled after arrow::Result.
template <typename T>
class Result {
 public:
  /// Implicit construction from a value or a (non-OK) Status keeps call sites
  /// terse: `return value;` / `return Status::IoError(...)`.
  Result(T value) : rep_(std::move(value)) {}                    // NOLINT
  Result(Status status) : rep_(std::move(status)) {}             // NOLINT

  bool ok() const { return std::holds_alternative<T>(rep_); }

  const Status& status() const {
    static const Status kOk;
    if (ok()) return kOk;
    return std::get<Status>(rep_);
  }

  /// Precondition: ok(). (Checked in tests via value_or-style accessors.)
  T& value() { return std::get<T>(rep_); }
  const T& value() const { return std::get<T>(rep_); }

  T value_or(T fallback) const {
    if (ok()) return std::get<T>(rep_);
    return fallback;
  }

  /// Moves the value out. Precondition: ok().
  T Take() { return std::move(std::get<T>(rep_)); }

 private:
  std::variant<T, Status> rep_;
};

/// Propagates a non-OK Status from an expression returning Status.
#define HV_RETURN_IF_ERROR(expr)                  \
  do {                                            \
    ::hillview::Status _hv_status = (expr);       \
    if (!_hv_status.ok()) return _hv_status;      \
  } while (false)

/// Evaluates an expression returning Result<T>; on error propagates the
/// Status, otherwise assigns the value to `lhs`.
#define HV_ASSIGN_OR_RETURN(lhs, expr)            \
  auto HV_CONCAT_(_hv_result, __LINE__) = (expr); \
  if (!HV_CONCAT_(_hv_result, __LINE__).ok())     \
    return HV_CONCAT_(_hv_result, __LINE__).status(); \
  lhs = HV_CONCAT_(_hv_result, __LINE__).Take()

#define HV_CONCAT_INNER_(a, b) a##b
#define HV_CONCAT_(a, b) HV_CONCAT_INNER_(a, b)

}  // namespace hillview

#endif  // HILLVIEW_UTIL_STATUS_H_
