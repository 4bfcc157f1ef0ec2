/**
 * @file
 * Shared command-line scaffolding: every tool reports errors through
 * one documented exit-code contract so scripts and the test suite can
 * tell failure classes apart:
 *
 *   0  success
 *   1  user/input error: bad usage, unreadable files, malformed or
 *      corrupt input rejected at load
 *   2  verification finding: a lockstep divergence, an undetected
 *      injected fault, a corruption-hardening failure, or a machine
 *      check surfacing from simulated execution
 *   3  internal panic (a library invariant tripped -- a bug)
 *
 * ccrun is the documented exception: on a clean run it passes the
 * simulated program's own exit code through, so only its error paths
 * follow the table above.
 *
 * Also here: the argument parsers more than one tool shares.
 */

#ifndef CODECOMP_TOOLS_TOOL_COMMON_HH
#define CODECOMP_TOOLS_TOOL_COMMON_HH

#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "cache/icache.hh"
#include "decompress/fault.hh"
#include "support/logging.hh"
#include "support/serialize.hh"

namespace codecomp::tools {

enum ExitCode : int {
    exitOk = 0,
    exitUserError = 1,
    exitFinding = 2,
    exitPanic = 3,
};

/**
 * Run a tool body under the exit-code contract. Panics on the calling
 * thread are trapped (so a library bug exits 3 with a message instead
 * of aborting), machine checks exit 2, and load failures -- like any
 * other user-level error -- exit 1.
 */
template <typename Body>
int
runTool(const char *name, Body &&body)
{
    try {
        PanicTrap trap;
        return body();
    } catch (const MachineCheckError &error) {
        std::fprintf(stderr, "%s: %s\n", name, error.what());
        return exitFinding;
    } catch (const PanicError &error) {
        std::fprintf(stderr, "%s: %s\n", name, error.what());
        return exitPanic;
    } catch (const std::exception &error) {
        std::fprintf(stderr, "%s: %s\n", name, error.what());
        return exitUserError;
    }
}

/** Split "a,b,c" at commas, dropping empty items. */
inline std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> items;
    size_t start = 0;
    while (start <= text.size()) {
        size_t comma = text.find(',', start);
        if (comma == std::string::npos)
            comma = text.size();
        if (comma > start)
            items.push_back(text.substr(start, comma - start));
        start = comma + 1;
    }
    return items;
}

/** Parse "CAP:LINE:WAYS" (e.g. 2048:32:2); false on malformed input. */
inline bool
parseCacheSpec(const std::string &spec, cache::CacheConfig &config)
{
    unsigned cap = 0, line = 0, ways = 0;
    char tail = 0;
    if (std::sscanf(spec.c_str(), "%u:%u:%u%c", &cap, &line, &ways,
                    &tail) != 3)
        return false;
    config = {cap, line, ways};
    return true;
}

} // namespace codecomp::tools

#endif // CODECOMP_TOOLS_TOOL_COMMON_HH
