/**
 * @file
 * Extension: the memory-budget autotuner over the full suite.
 *
 * ext_timing prices a handful of fixed full-dictionary configurations
 * against two cache geometries. This harness hands the same machine
 * model to src/autotune and asks the complete question: for a given
 * on-chip byte budget (I-cache capacity + dictionary ROM), which
 * scheme x strategy x dictionary-share x layout x geometry point is
 * fastest? The candidate set embeds ext_timing's fixed points (the
 * huge dictionary cap clips to each scheme's codeword budget, and the
 * 1024:32:1 / 4096:32:2 geometries are in the pool), so the frontier
 * can only improve on them; the harness checks, per workload, whether
 * some tuned point strictly dominates the best fixed one (fewer cycles
 * at no more on-chip bytes).
 *
 * Emits one PERF_JSON line per (workload, budget) winner; with --out
 * FILE it also writes the full AutotuneResult -- every point, frontier,
 * winner table -- there as JSON. The artifact is byte-identical for any
 * --jobs value.
 */

#include <cstring>
#include <string>
#include <vector>

#include "autotune/autotune.hh"
#include "compress/codec.hh"
#include "support/json.hh"
#include "support/serialize.hh"
#include "common.hh"

using namespace codecomp;
using namespace codecomp::bench;

namespace {

/** ext_timing's fixed configurations live at full dictionary, linear
 *  layout, one of its two geometries. */
bool
isFixedExtTimingPoint(const autotune::CandidatePoint &point)
{
    if (point.native || point.layout != "linear")
        return false;
    auto scheme = compress::parseSchemeName(point.scheme);
    if (!scheme ||
        point.dictEntries != compress::schemeParams(*scheme).maxCodewords)
        return false;
    const cache::CacheConfig &g = point.geometry;
    bool limited = g.capacityBytes == 1024 && g.lineBytes == 32 && g.ways == 1;
    bool roomy = g.capacityBytes == 4096 && g.lineBytes == 32 && g.ways == 2;
    return limited || roomy;
}

std::string
winnerJson(const autotune::WorkloadResult &wr,
           const autotune::BudgetWinner &winner)
{
    JsonWriter json;
    json.beginObject()
        .member("bench", "autotune")
        .member("workload", wr.workload)
        .member("budget", winner.budget);
    if (winner.point >= 0) {
        const autotune::CandidatePoint &point =
            wr.points[static_cast<size_t>(winner.point)];
        json.member("winner", point.id)
            .member("on_chip_bytes", point.onChipBytes)
            .member("cycles", point.cycles());
    }
    json.endObject();
    return json.str();
}

} // namespace

int
main(int argc, char **argv)
{
    initJobs(argc, argv);
    std::string outPath; // --out: the artifact is written only on request
    for (int i = 1; i + 1 < argc; ++i)
        if (std::string(argv[i]) == "--out")
            outPath = argv[i + 1];

    banner("Extension: autotune",
           "profile-guided memory-budget search (scheme x strategy x "
           "dict share x layout x geometry)");

    autotune::BudgetSpec spec;
    spec.budgets = {2048, 4096, 8192, 16384, 65536};
    spec.cacheGeometries = {
        {1024, 32, 1}, {2048, 32, 1}, {4096, 32, 2}, {8192, 32, 2}};
    // The huge cap clips to each scheme's codeword budget, planting
    // ext_timing's full-dictionary configs inside the candidate set.
    spec.dictCaps = {16, 64, 256, 1024, 4096, 1u << 20};
    spec.model.frontendWidth = 1;
    spec.model.missPenaltyCycles = 10;
    spec.model.memoryCyclesPerWord = 1;
    spec.model.expansionCyclesPerWord = 1;
    spec.model.redirectPenaltyCycles = 2;
    spec.maxSteps = 1ull << 27;

    autotune::AutotuneResult result =
        autotune::autotune(workloads::benchmarkNames(), spec);

    std::printf("search: %llu candidate configs (%llu pruned), "
                "%llu failed jobs\n",
                static_cast<unsigned long long>(result.enumerated),
                static_cast<unsigned long long>(result.pruned),
                static_cast<unsigned long long>(result.failedJobs));

    size_t dominatedWorkloads = 0;
    for (const autotune::WorkloadResult &wr : result.workloads) {
        std::printf("\n== %s ==\n", wr.workload.c_str());
        std::printf("  %-10s %-40s %10s %12s\n", "budget", "winner",
                    "bytes", "cycles");
        for (const autotune::BudgetWinner &winner : wr.winners) {
            if (winner.point < 0) {
                std::printf("  %-10llu (nothing fits)\n",
                            static_cast<unsigned long long>(winner.budget));
                continue;
            }
            const autotune::CandidatePoint &point =
                wr.points[static_cast<size_t>(winner.point)];
            std::printf("  %-10llu %-40s %10llu %12llu\n",
                        static_cast<unsigned long long>(winner.budget),
                        point.id.c_str(),
                        static_cast<unsigned long long>(point.onChipBytes),
                        static_cast<unsigned long long>(point.cycles()));
        }

        // Does some tuned point strictly dominate the best fixed
        // ext_timing configuration for this workload?
        const autotune::CandidatePoint *bestFixed = nullptr;
        for (const autotune::CandidatePoint &point : wr.points)
            if (isFixedExtTimingPoint(point) &&
                (!bestFixed || point.cycles() < bestFixed->cycles()))
                bestFixed = &point;
        const autotune::CandidatePoint *dominator = nullptr;
        if (bestFixed) {
            for (const autotune::CandidatePoint &point : wr.points)
                if (!isFixedExtTimingPoint(point) &&
                    point.cycles() < bestFixed->cycles() &&
                    point.onChipBytes <= bestFixed->onChipBytes &&
                    (!dominator || point.cycles() < dominator->cycles()))
                    dominator = &point;
        }
        if (dominator) {
            ++dominatedWorkloads;
            std::printf("  dominates fixed sweep: %s (%llu bytes, %llu "
                        "cycles) beats %s (%llu bytes, %llu cycles)\n",
                        dominator->id.c_str(),
                        static_cast<unsigned long long>(
                            dominator->onChipBytes),
                        static_cast<unsigned long long>(dominator->cycles()),
                        bestFixed->id.c_str(),
                        static_cast<unsigned long long>(
                            bestFixed->onChipBytes),
                        static_cast<unsigned long long>(bestFixed->cycles()));
        } else {
            std::printf("  dominates fixed sweep: no\n");
        }
    }
    std::printf("\n%zu of %zu workloads have a tuned point strictly "
                "dominating the best fixed ext_timing config\n",
                dominatedWorkloads, result.workloads.size());

    for (const autotune::WorkloadResult &wr : result.workloads)
        for (const autotune::BudgetWinner &winner : wr.winners)
            std::printf("PERF_JSON: %s\n",
                        winnerJson(wr, winner).c_str());

    if (!outPath.empty()) {
        std::string artifact = result.toJson() + "\n";
        writeFile(outPath,
                  std::vector<uint8_t>(artifact.begin(), artifact.end()));
        std::printf("trajectory artifact: %s\n", outPath.c_str());
    }
    return 0;
}
