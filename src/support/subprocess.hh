/**
 * @file
 * Minimal POSIX subprocess runner with a wall-clock deadline.
 *
 * The farm's process-isolation mode (src/farm) runs each compression
 * job in a forked worker so a crash, panic, or OOM-kill in one job is
 * an observable per-job outcome instead of the death of the whole run.
 * This helper owns the fork/exec/wait machinery: spawn argv, optionally
 * redirect stderr to a file, poll for exit, and on deadline
 * expiry SIGKILL the child's process group and report TimedOut. Every outcome --
 * normal exit, signal death, timeout, or spawn failure -- is a value,
 * never an exception, so callers can build retry policies on top.
 */

#ifndef CODECOMP_SUPPORT_SUBPROCESS_HH
#define CODECOMP_SUPPORT_SUBPROCESS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace codecomp {

struct SubprocessResult
{
    enum class Outcome : uint8_t {
        Exited,      //!< child ran to completion; exitCode is valid
        Signaled,    //!< child died on a signal; signal is valid
        TimedOut,    //!< deadline expired; child's group was SIGKILLed
        SpawnFailed, //!< fork/exec never happened; error is valid
    };

    Outcome outcome = Outcome::SpawnFailed;
    int exitCode = -1;  //!< WEXITSTATUS when Exited
    int signal = 0;     //!< WTERMSIG when Signaled
    std::string error;  //!< strerror text when SpawnFailed
    double millis = 0.0; //!< child wall time

    bool ok() const { return outcome == Outcome::Exited && exitCode == 0; }
};

const char *subprocessOutcomeName(SubprocessResult::Outcome outcome);

struct SubprocessOptions
{
    /** Wall-clock deadline in milliseconds; 0 waits forever. */
    uint64_t timeoutMs = 0;

    /** Redirect the child's stderr to this path (empty = inherit the
     *  parent's). */
    std::string stderrPath;
};

/**
 * Run @p argv (argv[0] is the executable path) and wait for it under
 * @p options. The child leads a process group of its own and is
 * SIGKILLed if the thread that spawned it exits first. It is always
 * reaped before returning; at the deadline its whole process group is
 * SIGKILLed first, so neither a runaway worker nor anything it forked
 * survives the call.
 */
SubprocessResult runSubprocess(const std::vector<std::string> &argv,
                               const SubprocessOptions &options = {});

/** Absolute path of the running executable (/proc/self/exe), or ""
 *  when the platform cannot say. */
std::string selfExecutablePath();

/** The GNU build-id note of the running executable (a digest the
 *  linker takes over the whole program), read from its loaded program
 *  headers; empty when the executable was linked without one. */
const std::vector<uint8_t> &selfBuildId();

} // namespace codecomp

#endif // CODECOMP_SUPPORT_SUBPROCESS_HH
