/**
 * @file
 * Error-termination helpers, following the gem5 fatal()/panic() split:
 * fatal() is for user errors (bad configuration), panic() for internal
 * invariant violations (simulator bugs).
 */

#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace dvsnet
{

/**
 * Thrown for invalid user-supplied configuration where the caller can
 * recover (e.g. one bad point in a parallel sweep).  Unlike
 * DVSNET_FATAL, which terminates the process, a ConfigError is meant to
 * be caught — the ExperimentRunner captures it into the failing job's
 * result instead of aborting the whole experiment, and every binary's
 * main reports one that reaches it (reportFatal).
 */
class ConfigError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Join validation problems into one ConfigError-ready message:
 * "<what>: <p1>; <p2>; ...".
 */
std::string joinProblems(const std::string &what,
                         const std::vector<std::string> &problems);

/**
 * What a binary's main does with a ConfigError that reaches it: print
 * one "fatal: <message>" line on stderr and return exit status 1.
 */
int reportFatal(const ConfigError &error);

/** Print a user-error message and exit(1). */
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);

/** Print an internal-bug message and abort(). */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);

namespace detail
{

template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream oss;
    // A comma fold: an empty pack expands to void(), not to a bare
    // `oss` that -Wunused-value flags.
    ((oss << args), ...);
    return oss.str();
}

} // namespace detail
} // namespace dvsnet

/** Terminate on a user error (bad config, invalid arguments). */
#define DVSNET_FATAL(...) \
    ::dvsnet::fatalImpl(__FILE__, __LINE__, ::dvsnet::detail::concat(__VA_ARGS__))

/** Terminate on an internal invariant violation (simulator bug). */
#define DVSNET_PANIC(...) \
    ::dvsnet::panicImpl(__FILE__, __LINE__, ::dvsnet::detail::concat(__VA_ARGS__))

/** Panic unless a runtime invariant holds. Always active (not NDEBUG-gated). */
#define DVSNET_ASSERT(cond, ...)                                            \
    do {                                                                     \
        if (!(cond)) {                                                       \
            ::dvsnet::panicImpl(__FILE__, __LINE__,                          \
                ::dvsnet::detail::concat("assertion failed: " #cond " ",     \
                                         ##__VA_ARGS__));                    \
        }                                                                    \
    } while (0)
