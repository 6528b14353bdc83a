/**
 * @file
 * Error-handling primitives shared by every qassert module.
 *
 * Two failure categories, mirroring the gem5 fatal/panic split:
 *  - UserError: the caller violated a documented precondition (bad qubit
 *    index, non-unitary matrix, unassertable state set, ...). Recoverable
 *    by fixing the call site.
 *  - InternalError: a qassert invariant broke; indicates a library bug.
 *
 * UserErrors additionally carry an ErrorCode so machine consumers (the
 * fault-injection campaign runner, policy drivers, CI harnesses) can
 * classify failures without parsing message text.
 */
#ifndef QA_COMMON_ERROR_HPP
#define QA_COMMON_ERROR_HPP

#include <sstream>
#include <stdexcept>
#include <string>

namespace qa
{

/**
 * Machine-readable failure classification carried by UserError.
 * Extend rather than reuse: a code's meaning is frozen once tests or
 * campaign reports depend on it.
 */
enum class ErrorCode
{
    kGeneric,           ///< Unclassified precondition failure.
    kBadFaultSite,      ///< Injection site does not address a gate.
    kUnsupportedFault,  ///< Fault kind not applicable to the site.
    kInvalidNoiseModel, ///< Noise model failed validate-on-use.
    kPolicyUnsupported, ///< Recovery policy incompatible with the slots.
    kPolicyExhausted,   ///< Raised by nothing since the retry policy
                        ///< went; kept so later codes keep their values.
    kQasmSyntax,        ///< Malformed QASM input.
    kDeadlineExpired,   ///< Deadline elapsed before any work completed.
    kQueueFull,         ///< Service admission queue at capacity.
    kServiceStopped,    ///< Submission to a stopped/stopping service.
    kBadRequest,        ///< Malformed service request (wire protocol).
    kJournalCorrupt,    ///< Journal record damaged beyond the torn tail.
    kNoShardAvailable,  ///< Fleet router found no live shard for a job.
    kUnsupportedAssertion, ///< Assertion projector admits no lowering
                           ///< under the requested knobs (acomp).
    kResourceExhausted     ///< Job ran out of memory (std::bad_alloc);
                           ///< deterministic, so never retried.
};

/** Stable human-readable name of an error code. */
const char* errorCodeName(ErrorCode code);

/** Exception for caller mistakes (bad arguments, violated preconditions). */
class UserError : public std::runtime_error
{
  public:
    explicit UserError(const std::string& msg,
                       ErrorCode code = ErrorCode::kGeneric)
        : std::runtime_error("qassert user error: " + msg), code_(code)
    {}

    /** Machine-readable classification of the failure. */
    ErrorCode code() const { return code_; }

  private:
    ErrorCode code_;
};

/** Exception for broken internal invariants (library bugs). */
class InternalError : public std::logic_error
{
  public:
    explicit InternalError(const std::string& msg)
        : std::logic_error("qassert internal error: " + msg)
    {}
};

namespace detail
{

/** Builds the exception message with file/line context and throws. */
template <typename Exc>
[[noreturn]] inline void
throwWithContext(const char* file, int line, const std::string& msg)
{
    std::ostringstream oss;
    oss << msg << " [" << file << ":" << line << "]";
    throw Exc(oss.str());
}

/** UserError variant preserving the machine-readable code. */
[[noreturn]] inline void
throwUserWithContext(const char* file, int line, ErrorCode code,
                     const std::string& msg)
{
    std::ostringstream oss;
    oss << msg << " [" << file << ":" << line << "]";
    throw UserError(oss.str(), code);
}

} // namespace detail

} // namespace qa

/** Throw qa::UserError when a documented precondition fails. */
#define QA_REQUIRE(cond, msg)                                               \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::qa::detail::throwWithContext<::qa::UserError>(                \
                __FILE__, __LINE__, std::string(msg));                      \
        }                                                                   \
    } while (0)

/** QA_REQUIRE carrying a machine-readable ErrorCode. */
#define QA_REQUIRE_CODE(cond, code, msg)                                    \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::qa::detail::throwUserWithContext(__FILE__, __LINE__, (code),  \
                                               std::string(msg));           \
        }                                                                   \
    } while (0)

/** Throw qa::InternalError when a library invariant fails. */
#define QA_ASSERT(cond, msg)                                                \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::qa::detail::throwWithContext<::qa::InternalError>(            \
                __FILE__, __LINE__, std::string(msg));                      \
        }                                                                   \
    } while (0)

/** Unconditionally throw qa::UserError with a streamed message. */
#define QA_FAIL(msg)                                                        \
    ::qa::detail::throwWithContext<::qa::UserError>(                        \
        __FILE__, __LINE__, std::string(msg))

/** QA_FAIL carrying a machine-readable ErrorCode. */
#define QA_FAIL_CODE(code, msg)                                             \
    ::qa::detail::throwUserWithContext(__FILE__, __LINE__, (code),          \
                                       std::string(msg))

#endif // QA_COMMON_ERROR_HPP
