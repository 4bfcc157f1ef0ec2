/**
 * @file
 * ccautotune -- search scheme x strategy x dictionary-share x layout x
 * cache-geometry configurations for the best cycle count within on-chip
 * byte budgets (src/autotune).
 *
 *   ccautotune --workload <name>[,<name>...]|all --budget N [--budget N]
 *              [--schemes a,b] [--strategies a,b] [--dict-caps N,N,...]
 *              [--cache-geoms CAP:LINE:WAYS,...] [--no-hotcold]
 *              [--width N] [--miss-penalty N] [--mem-cycles N]
 *              [--expand-cycles N] [--redirect-penalty N]
 *              [--l2 CAP:LINE:WAYS] [--l2-hit N] [--l2-cycles N]
 *              [--max-steps N] [--jobs N] [--isolate N]
 *              [--worker-binary <ccfarm>] [--cache-dir D]
 *              [--json <file>] [--frontier]
 *
 * The compression sweep runs as farm jobs (shared pipeline cache;
 * --isolate forks ccfarm workers -- the default worker is the ccfarm
 * binary next to this executable). The human report prints the winner
 * table per workload; --frontier also prints every Pareto point.
 * --json writes AutotuneResult::toJson(), which is byte-identical for
 * any --jobs value, inline or isolated, with or without --cache-dir.
 * Exit codes follow tool_common.hh: bad flags, unknown names, and
 * invalid models exit 1.
 */

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "autotune/autotune.hh"
#include "compress/codec.hh"
#include "support/serialize.hh"
#include "support/subprocess.hh"
#include "support/thread_pool.hh"
#include "tool_common.hh"
#include "workloads/workloads.hh"

using namespace codecomp;

namespace {

int
usage()
{
    std::fprintf(
        stderr,
        "usage: ccautotune --workload <name>[,...]|all --budget N "
        "[--budget N]...\n"
        "       [--schemes %s] [--strategies %s]\n"
        "       [--dict-caps N,N,...] [--cache-geoms CAP:LINE:WAYS,...] "
        "[--no-hotcold]\n"
        "       [--width N] [--miss-penalty N] [--mem-cycles N] "
        "[--expand-cycles N]\n"
        "       [--redirect-penalty N] [--l2 CAP:LINE:WAYS] [--l2-hit N] "
        "[--l2-cycles N]\n"
        "       [--max-steps N] [--jobs N] [--isolate N] "
        "[--worker-binary <ccfarm>]\n"
        "       [--cache-dir D] [--json <file>] "
        "[--frontier]\n",
        compress::schemeCliNames(",").c_str(),
        compress::strategyCliNames(",").c_str());
    return tools::exitUserError;
}

int
badArg(const std::string &message)
{
    std::fprintf(stderr, "ccautotune: %s\n", message.c_str());
    return tools::exitUserError;
}

void
printWorkload(const autotune::WorkloadResult &wr, bool frontier)
{
    std::printf("%s:\n", wr.workload.c_str());
    if (frontier) {
        std::printf("  frontier (%zu of %zu points):\n",
                    wr.frontier.size(), wr.points.size());
        for (uint32_t index : wr.frontier) {
            const autotune::CandidatePoint &point = wr.points[index];
            std::printf("    %8llu bytes %12llu cycles  %s\n",
                        static_cast<unsigned long long>(point.onChipBytes),
                        static_cast<unsigned long long>(point.cycles()),
                        point.id.c_str());
        }
    }
    for (const autotune::BudgetWinner &winner : wr.winners) {
        if (winner.point < 0) {
            std::printf("  budget %8llu: (nothing fits)\n",
                        static_cast<unsigned long long>(winner.budget));
            continue;
        }
        const autotune::CandidatePoint &point =
            wr.points[static_cast<size_t>(winner.point)];
        std::printf("  budget %8llu: %s  (%llu bytes, %llu cycles)\n",
                    static_cast<unsigned long long>(winner.budget),
                    point.id.c_str(),
                    static_cast<unsigned long long>(point.onChipBytes),
                    static_cast<unsigned long long>(point.cycles()));
    }
}

int
run(int argc, char **argv)
{
    std::vector<std::string> workloadNames;
    autotune::BudgetSpec spec;
    farm::FarmOptions options;
    std::string jsonPath;
    bool frontier = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (tools::parseTimingFlag(argc, argv, i, spec.model))
            continue;
        if (arg == "--workload" && i + 1 < argc) {
            for (const std::string &name : tools::splitList(argv[++i])) {
                if (name == "all") {
                    workloadNames = workloads::benchmarkNames();
                    break;
                }
                workloadNames.push_back(name);
            }
        } else if (arg == "--budget" && i + 1 < argc) {
            spec.budgets.push_back(
                tools::flagValue<uint64_t>("--budget", argv[++i], 1));
        } else if (arg == "--schemes" && i + 1 < argc) {
            for (const std::string &name : tools::splitList(argv[++i])) {
                auto scheme = compress::parseSchemeName(name);
                if (!scheme)
                    return badArg("unknown scheme \"" + name +
                                  "\" (expected " +
                                  compress::schemeCliNames(", ") + ")");
                spec.schemes.push_back(*scheme);
            }
        } else if (arg == "--strategies" && i + 1 < argc) {
            for (const std::string &name : tools::splitList(argv[++i]))
                spec.strategies.push_back(
                    compress::parseStrategyNameOrFatal(name));
        } else if (arg == "--dict-caps" && i + 1 < argc) {
            for (const std::string &item : tools::splitList(argv[++i]))
                spec.dictCaps.push_back(tools::flagValue<uint32_t>(
                    "--dict-caps", item.c_str(), 1));
        } else if (arg == "--cache-geoms" && i + 1 < argc) {
            for (const std::string &item : tools::splitList(argv[++i])) {
                cache::CacheConfig geometry;
                if (!tools::parseCacheSpec(item, geometry))
                    return badArg("--cache-geoms wants CAP:LINE:WAYS "
                                  "entries (e.g. 2048:32:2)");
                spec.cacheGeometries.push_back(geometry);
            }
        } else if (arg == "--no-hotcold") {
            spec.tryHotCold = false;
        } else if (arg == "--max-steps" && i + 1 < argc) {
            spec.maxSteps =
                tools::flagValue<uint64_t>("--max-steps", argv[++i]);
        } else if (arg == "--jobs" && i + 1 < argc) {
            setGlobalJobs(tools::flagValue<unsigned>("--jobs", argv[++i], 1));
        } else if (arg == "--isolate" && i + 1 < argc) {
            setGlobalJobs(
                tools::flagValue<unsigned>("--isolate", argv[++i], 1));
            options.isolate = true;
        } else if (arg == "--worker-binary" && i + 1 < argc) {
            options.workerBinary = argv[++i];
        } else if (arg == "--cache-dir" && i + 1 < argc) {
            options.cacheDir = argv[++i];
        } else if (arg == "--json" && i + 1 < argc) {
            jsonPath = argv[++i];
        } else if (arg == "--frontier") {
            frontier = true;
        } else {
            return usage();
        }
    }
    if (workloadNames.empty() || spec.budgets.empty())
        return usage();
    // The isolation worker is ccfarm in its hidden --worker mode;
    // default to the ccfarm built next to this executable.
    if (options.isolate && options.workerBinary.empty()) {
        std::filesystem::path self = selfExecutablePath();
        options.workerBinary = (self.parent_path() / "ccfarm").string();
        if (!std::filesystem::exists(options.workerBinary))
            return badArg("--isolate needs the ccfarm worker binary "
                          "(not found at " + options.workerBinary +
                          "; pass --worker-binary)");
    }
    // Reject a bad search spec up front with the reason, mirroring
    // cctime's model validation.
    if (spec.cacheGeometries.empty()) {
        for (uint32_t capacity : {1024u, 2048u, 4096u, 8192u})
            spec.cacheGeometries.push_back(
                {capacity, 32, capacity >= 4096 ? 2u : 1u});
    }
    if (std::string error = autotune::budgetSpecError(spec); !error.empty())
        return badArg(error);

    autotune::AutotuneResult result =
        autotune::autotune(workloadNames, spec, options);

    std::printf("search: %llu candidate configs (%llu pruned), "
                "%llu geometries (%llu pruned), %zu workloads\n",
                static_cast<unsigned long long>(result.enumerated),
                static_cast<unsigned long long>(result.pruned),
                static_cast<unsigned long long>(result.keptGeometries),
                static_cast<unsigned long long>(result.prunedGeometries),
                workloadNames.size());
    if (result.failedJobs)
        std::printf("warning: %llu compression jobs failed and were "
                    "skipped\n",
                    static_cast<unsigned long long>(result.failedJobs));
    for (const autotune::WorkloadResult &wr : result.workloads)
        printWorkload(wr, frontier);
    std::printf("pipeline cache: %llu enum hits, %llu select hits; "
                "%.0f ms\n",
                static_cast<unsigned long long>(
                    result.cacheStats.enumHits),
                static_cast<unsigned long long>(
                    result.cacheStats.selectHits),
                result.wallMillis);
    std::printf("phases: native %.0f ms, farm %.0f ms, price %.0f ms\n",
                result.nativeMillis, result.farmMillis, result.priceMillis);

    if (!jsonPath.empty()) {
        std::string doc = result.toJson() + "\n";
        writeFile(jsonPath,
                  std::vector<uint8_t>(doc.begin(), doc.end()));
    }
    return tools::exitOk;
}

} // namespace

int
main(int argc, char **argv)
{
    return tools::runTool("ccautotune", [&] { return run(argc, argv); });
}
