#ifndef AFTER_COMMON_STATUS_H_
#define AFTER_COMMON_STATUS_H_

#include <string>
#include <utility>

namespace after {

/// Error taxonomy for recoverable failures. AFTER_CHECK remains the tool
/// for programming errors (it aborts); Status is the tool for everything
/// the system must survive: corrupt datasets, numerically degenerate
/// training steps, exhausted budgets. The library is built without
/// exceptions, so Status / Result<T> are the only error channel on
/// recoverable paths.
enum class StatusCode {
  kOk = 0,
  /// External input (dataset file, session, matrix) failed validation.
  kInvalidData,
  /// A NaN/Inf or otherwise degenerate value surfaced in numeric code.
  kNumericalError,
  /// A deadline or step budget was exceeded.
  kTimeout,
  /// An allocation / capacity / retry budget was exhausted.
  kResourceExhausted,
  /// A required file or entity does not exist.
  kNotFound,
  /// Invariant violation that was caught instead of aborting.
  kInternal,
  /// A caller-supplied argument (e.g. a wire frame, a flag value) is
  /// malformed. Distinct from kInvalidData, which covers external
  /// *content* (files, datasets): an invalid argument is never worth
  /// retrying, while invalid data may be fixed out of band.
  kInvalidArgument,
  /// A remote peer or backend cannot be reached right now; the request
  /// did not run and is safe to retry elsewhere (the shard router's
  /// retry-next-shard trigger).
  kUnavailable,
  /// A shard was asked about a room it does not own (partitioned
  /// serving, serve/shard_control.h). The request did not run; the
  /// caller should re-route to the room's current owner. Distinct from
  /// kUnavailable: the shard is healthy, it just is not responsible.
  kNotOwner,
  /// Durable state (a shard's journal, serve/journal.h) is
  /// unrecoverably corrupt: the bytes exist but fail checksum or
  /// structural validation, so recovery must discard them. Distinct
  /// from kInvalidData (bad external input worth fixing out of band):
  /// data loss is a degradation the fleet keeps serving through, with
  /// the affected rooms rebuilt fresh.
  kDataLoss,
};

/// Short upper-case name for a code ("INVALID_DATA").
inline const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidData:
      return "INVALID_DATA";
    case StatusCode::kNumericalError:
      return "NUMERICAL_ERROR";
    case StatusCode::kTimeout:
      return "TIMEOUT";
    case StatusCode::kResourceExhausted:
      return "RESOURCE_EXHAUSTED";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kInternal:
      return "INTERNAL";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kUnavailable:
      return "UNAVAILABLE";
    case StatusCode::kNotOwner:
      return "NOT_OWNER";
    case StatusCode::kDataLoss:
      return "DATA_LOSS";
  }
  return "UNKNOWN";
}

/// Value-type status: a code plus a human-readable diagnostic. Cheap to
/// copy in the OK case (empty message).
class Status {
 public:
  /// OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "INVALID_DATA: preference.txt line 3: non-finite entry" or "OK".
  std::string ToString() const {
    if (ok()) return "OK";
    std::string out = StatusCodeName(code_);
    if (!message_.empty()) {
      out += ": ";
      out += message_;
    }
    return out;
  }

  /// Returns a copy with `context` prepended to the message, preserving
  /// the code; no-op on OK. Used to build file -> line -> field trails.
  Status Annotate(const std::string& context) const {
    if (ok()) return *this;
    if (message_.empty()) return Status(code_, context);
    return Status(code_, context + ": " + message_);
  }

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

inline Status OkStatus() { return Status(); }
inline Status InvalidDataError(std::string message) {
  return Status(StatusCode::kInvalidData, std::move(message));
}
inline Status NumericalError(std::string message) {
  return Status(StatusCode::kNumericalError, std::move(message));
}
inline Status TimeoutError(std::string message) {
  return Status(StatusCode::kTimeout, std::move(message));
}
inline Status ResourceExhaustedError(std::string message) {
  return Status(StatusCode::kResourceExhausted, std::move(message));
}
inline Status NotFoundError(std::string message) {
  return Status(StatusCode::kNotFound, std::move(message));
}
inline Status InternalError(std::string message) {
  return Status(StatusCode::kInternal, std::move(message));
}
inline Status InvalidArgumentError(std::string message) {
  return Status(StatusCode::kInvalidArgument, std::move(message));
}
inline Status UnavailableError(std::string message) {
  return Status(StatusCode::kUnavailable, std::move(message));
}
inline Status NotOwnerError(std::string message) {
  return Status(StatusCode::kNotOwner, std::move(message));
}
inline Status DataLossError(std::string message) {
  return Status(StatusCode::kDataLoss, std::move(message));
}

}  // namespace after

/// Propagates a non-OK Status to the caller.
#define AFTER_RETURN_IF_ERROR(expr)                 \
  do {                                              \
    ::after::Status after_status_ = (expr);         \
    if (!after_status_.ok()) return after_status_;  \
  } while (0)

#endif  // AFTER_COMMON_STATUS_H_
