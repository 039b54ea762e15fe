#ifndef RAQO_COMMON_STATUS_H_
#define RAQO_COMMON_STATUS_H_

#include <string>
#include <string_view>

namespace raqo {

/// Error categories used across the RAQO library. Public APIs never throw;
/// they report failures through Status (or Result<T> for value-returning
/// calls), following the idiom of production storage/database engines.
enum class StatusCode {
  kOk = 0,
  /// A caller-supplied argument is malformed (e.g. negative table size).
  kInvalidArgument,
  /// A referenced entity does not exist (e.g. unknown table id).
  kNotFound,
  /// A value fell outside a permitted range (e.g. resource dimension index).
  kOutOfRange,
  /// The operation cannot run in the current state (e.g. planner not
  /// configured with a cost model).
  kFailedPrecondition,
  /// The simulated execution ran out of memory (e.g. broadcast hash join
  /// build side exceeding the container budget).
  kResourceExhausted,
  /// A deadline expired before the operation completed (e.g. a blocking
  /// client call whose socket timeout fired before the response frame).
  kDeadlineExceeded,
  /// An invariant inside the library was violated; indicates a bug.
  kInternal,
  /// The requested feature is recognized but not supported (e.g. Selinger
  /// enumeration beyond its table-count limit).
  kUnsupported,
};

/// Returns a stable human-readable name ("Ok", "InvalidArgument", ...).
std::string_view StatusCodeToString(StatusCode code);

/// A cheap, copyable success-or-error value. The OK status carries no
/// allocation; error statuses carry a code and a message.
class Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unsupported(std::string msg) {
    return Status(StatusCode::kUnsupported, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsInvalidArgument() const {
    return code_ == StatusCode::kInvalidArgument;
  }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsOutOfRange() const { return code_ == StatusCode::kOutOfRange; }
  bool IsFailedPrecondition() const {
    return code_ == StatusCode::kFailedPrecondition;
  }
  bool IsResourceExhausted() const {
    return code_ == StatusCode::kResourceExhausted;
  }
  bool IsDeadlineExceeded() const {
    return code_ == StatusCode::kDeadlineExceeded;
  }
  bool IsInternal() const { return code_ == StatusCode::kInternal; }
  bool IsUnsupported() const { return code_ == StatusCode::kUnsupported; }

  /// "Ok" or "<Code>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Propagates a non-OK status to the caller. Usable in functions returning
/// Status or Result<T>.
#define RAQO_RETURN_IF_ERROR(expr)                \
  do {                                            \
    ::raqo::Status _raqo_status = (expr);         \
    if (!_raqo_status.ok()) return _raqo_status;  \
  } while (false)

}  // namespace raqo

#endif  // RAQO_COMMON_STATUS_H_
