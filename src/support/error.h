/**
 * @file
 * Error handling primitives.
 *
 * Recoverable failures (malformed containers, undecodable instructions,
 * lifter bail-outs) are reported through Result<T>; programming errors are
 * reported through FIRMUP_ASSERT which aborts. This mirrors the gem5
 * fatal()/panic() split: user-input problems return errors, internal
 * invariant violations abort.
 *
 * Every Result error carries an ErrorCode so that corpus-scale pipelines
 * can aggregate failures into a histogram (eval::ScanHealth) instead of
 * collapsing everything into opaque strings. The taxonomy is deliberately
 * coarse: each code names a *stage* of the untrusted-input pipeline, not
 * an individual defect.
 */
#pragma once

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>

namespace firmup {

/**
 * Failure taxonomy for untrusted-input paths. Codes are stable values so
 * histograms serialize deterministically.
 */
enum class ErrorCode : std::uint8_t {
    Unknown = 0,            ///< legacy / uncategorized failure
    MalformedContainer,     ///< blob or member header fails validation
    TruncatedMember,        ///< declared size overruns the available bytes
    UndecodableInsn,        ///< machine bytes decode on no supported ISA
    LiftBailout,            ///< lifter gave up (no liftable procedure)
    BudgetExhausted,        ///< step/deadline budget hit before an answer
    MissingProcedure,       ///< expected procedure absent from an index
    IoError,                ///< file could not be read or written
    StaleFormat,            ///< persisted blob from an older format/layout
};

/** Stable human-readable name, e.g. "truncated-member". */
const char *error_code_name(ErrorCode code);

/**
 * Retry taxonomy: true for failures that can legitimately succeed on a
 * retry (IoError — a flaky mount, a transiently full disk — and
 * BudgetExhausted, whose wall-clock form depends on machine load).
 * Everything else is a property of the input bytes and will fail
 * identically forever; retrying it only burns budget.
 */
bool error_code_transient(ErrorCode code);

/** Number of distinct ErrorCode values (for dense histograms). */
inline constexpr std::size_t kErrorCodeCount =
    static_cast<std::size_t>(ErrorCode::StaleFormat) + 1;

/** Value-or-error-message return type for recoverable failures. */
template <typename T>
class Result
{
  public:
    /* implicit */ Result(T value) : value_(std::move(value)) {}

    /** Construct a failed result carrying a diagnostic message. */
    static Result
    error(std::string message)
    {
        return error(ErrorCode::Unknown, std::move(message));
    }

    /** Construct a failed result with a taxonomy code. */
    static Result
    error(ErrorCode code, std::string message)
    {
        Result r;
        r.code_ = code;
        r.error_ = std::move(message);
        return r;
    }

    /**
     * Construct a failed result whose message is a string literal. Only
     * the pointer is kept, so the failure allocates nothing: decoders
     * fail this way on every non-instruction byte the lifter probes.
     */
    template <std::size_t N>
    static Result
    error(ErrorCode code, const char (&literal)[N])
    {
        Result r;
        r.code_ = code;
        r.literal_ = literal;
        return r;
    }

    /** Re-wrap another Result's failure, preserving its code. */
    template <typename U>
    static Result
    error_from(const Result<U> &other)
    {
        return error(other.error_code(), other.error_message());
    }

    bool ok() const { return value_.has_value(); }
    explicit operator bool() const { return ok(); }

    /** Access the value; requires ok(). */
    const T &value() const & { assert(ok()); return *value_; }
    T &value() & { assert(ok()); return *value_; }
    T &&take() && { assert(ok()); return std::move(*value_); }

    /** Diagnostic message; requires !ok(). */
    std::string
    error_message() const
    {
        assert(!ok());
        return literal_ != nullptr ? std::string(literal_) : error_;
    }

    /** Taxonomy code; requires !ok(). */
    ErrorCode error_code() const { assert(!ok()); return code_; }

  private:
    Result() = default;
    std::optional<T> value_;
    std::string error_;
    const char *literal_ = nullptr;  ///< set instead of error_ for literals
    ErrorCode code_ = ErrorCode::Unknown;
};

[[noreturn]] void assert_fail(const char *expr, const char *file, int line,
                              const std::string &message);

}  // namespace firmup

/** Abort with a message when an internal invariant is violated. */
#define FIRMUP_ASSERT(expr, message)                                       \
    do {                                                                   \
        if (!(expr)) {                                                     \
            ::firmup::assert_fail(#expr, __FILE__, __LINE__, (message));   \
        }                                                                  \
    } while (0)
