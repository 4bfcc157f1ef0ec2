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
 * Also here: the argument parsers more than one tool shares. Their
 * throws reach runTool, so a malformed flag value exits 1.
 */

#ifndef CODECOMP_TOOLS_TOOL_COMMON_HH
#define CODECOMP_TOOLS_TOOL_COMMON_HH

#include <charconv>
#include <cstdio>
#include <cstring>
#include <exception>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cache/icache.hh"
#include "decompress/fault.hh"
#include "support/logging.hh"
#include "support/serialize.hh"
#include "timing/timing.hh"

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

/**
 * The value of numeric flag @p flag (T unsigned): @p text as a whole
 * decimal integer in @p min..@p max. A sign, trailing characters, an
 * empty string or a value outside the range throws
 * std::invalid_argument naming the flag and its range.
 */
template <typename T>
T
flagValue(const char *flag, const char *text, T min = 0,
          T max = std::numeric_limits<T>::max())
{
    uint64_t value = 0;
    const char *end = text + std::strlen(text);
    auto [stop, error] = std::from_chars(text, end, value);
    if (error != std::errc() || stop != end || value < min || value > max)
        throw std::invalid_argument(
            std::string(flag) + " wants an integer in " +
            std::to_string(min) + ".." + std::to_string(max) + ", got \"" +
            text + "\"");
    return static_cast<T>(value);
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

/**
 * Parse argv[@p i] if it is one of the timing-model flags cctime and
 * ccautotune share, followed by a value: store the value in @p model
 * and step @p i past it. Returns false, touching nothing, for any other
 * argument. A malformed value throws std::invalid_argument; the model's
 * own validation runs later, on the whole config.
 */
inline bool
parseTimingFlag(int argc, char **argv, int &i, timing::TimingConfig &model)
{
    using timing::TimingConfig;
    static constexpr std::pair<const char *, uint32_t TimingConfig::*>
        fields[] = {
            {"--width", &TimingConfig::frontendWidth},
            {"--miss-penalty", &TimingConfig::missPenaltyCycles},
            {"--mem-cycles", &TimingConfig::memoryCyclesPerWord},
            {"--expand-cycles", &TimingConfig::expansionCyclesPerWord},
            {"--redirect-penalty", &TimingConfig::redirectPenaltyCycles},
            {"--l2-hit", &TimingConfig::l2HitPenaltyCycles},
            {"--l2-cycles", &TimingConfig::l2CyclesPerWord},
        };
    if (i + 1 >= argc)
        return false;
    if (std::strcmp(argv[i], "--l2") == 0) {
        if (!parseCacheSpec(argv[++i], model.l2))
            throw std::invalid_argument(
                "--l2 wants CAP:LINE:WAYS (e.g. 8192:32:2)");
        return true;
    }
    for (const auto &[flag, field] : fields) {
        if (std::strcmp(argv[i], flag) == 0) {
            model.*field = flagValue<uint32_t>(flag, argv[++i]);
            return true;
        }
    }
    return false;
}

} // namespace codecomp::tools

#endif // CODECOMP_TOOLS_TOOL_COMMON_HH
