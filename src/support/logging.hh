/**
 * @file
 * Error and status reporting helpers in the gem5 idiom.
 *
 * panic()  -- an internal invariant was violated (a library bug); aborts.
 * fatal()  -- the caller handed us something unusable (a user error);
 *             exits with status 1.
 * warn()   -- something works well enough but deserves attention.
 */

#ifndef CODECOMP_SUPPORT_LOGGING_HH
#define CODECOMP_SUPPORT_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

namespace codecomp {

/** Thrown instead of aborting when a PanicTrap is active (see below). */
class PanicError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * RAII scope that converts CC_PANIC / CC_ASSERT failures on the current
 * thread into PanicError exceptions instead of aborting the process.
 *
 * The lockstep verifier runs deliberately-corrupted images whose
 * execution may trip internal invariants (mid-item fetches, out-of-range
 * memory accesses); trapping the panic lets the harness report the crash
 * as a divergence with full context instead of dying. Outside a trap
 * scope panics abort as usual, so death tests and production invariants
 * are unaffected. Traps nest.
 */
class PanicTrap
{
  public:
    PanicTrap();
    ~PanicTrap();
    PanicTrap(const PanicTrap &) = delete;
    PanicTrap &operator=(const PanicTrap &) = delete;

  private:
    bool prev_;
};

namespace detail {

/** Format the variadic tail of a log call into one string. */
template <typename... Args>
std::string
formatMessage(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const char *file, int line, const std::string &msg);

} // namespace detail

} // namespace codecomp

#define CC_PANIC(...)                                                        \
    ::codecomp::detail::panicImpl(__FILE__, __LINE__,                        \
        ::codecomp::detail::formatMessage(__VA_ARGS__))

#define CC_FATAL(...)                                                        \
    ::codecomp::detail::fatalImpl(__FILE__, __LINE__,                        \
        ::codecomp::detail::formatMessage(__VA_ARGS__))

#define CC_WARN(...)                                                         \
    ::codecomp::detail::warnImpl(__FILE__, __LINE__,                         \
        ::codecomp::detail::formatMessage(__VA_ARGS__))

/** Assert an internal invariant; active in all build types. */
#define CC_ASSERT(cond, ...)                                                 \
    do {                                                                     \
        if (!(cond)) {                                                       \
            CC_PANIC("assertion failed: " #cond " ",                        \
                     ::codecomp::detail::formatMessage(__VA_ARGS__));        \
        }                                                                    \
    } while (0)

#endif // CODECOMP_SUPPORT_LOGGING_HH
