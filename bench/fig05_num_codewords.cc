/**
 * @file
 * Figure 5: effect of the number of codewords (dictionary entries) on
 * the compression ratio, baseline scheme, entries up to 4 instructions.
 *
 * Paper shape: monotone improvement that flattens once all profitable
 * sequences have codewords (a few thousand suffice for CINT95).
 *
 * The sweep runs as one farm batch (farm/farm.hh): candidate
 * enumeration does not depend on the entry budget, so the shared
 * PipelineCache enumerates each workload once and the remaining
 * budgets hit the cache. The realized hit rate goes out as a
 * PERF_JSON record.
 */

#include "compress/compressor.hh"
#include "farm/farm.hh"
#include "common.hh"

using namespace codecomp;
using namespace codecomp::bench;

int
main(int argc, char **argv)
{
    initJobs(argc, argv);
    banner("Figure 5",
           "compression ratio vs number of codewords (baseline, 4 "
           "insns/entry)");
    const std::vector<unsigned> budgets = {16,   64,   256, 1024,
                                           2048, 4096, 8192};
    const std::vector<std::string> names = workloads::benchmarkNames();

    // One job per (workload, budget), workload-major so the report
    // rows come back in print order.
    std::vector<farm::FarmJob> jobs;
    for (const std::string &name : names) {
        for (unsigned budget : budgets) {
            farm::FarmJob job;
            job.id = name + "/" + std::to_string(budget);
            job.workload = name;
            job.config.scheme = compress::Scheme::Baseline;
            job.config.maxEntries = budget;
            job.config.maxEntryLen = 4;
            jobs.push_back(std::move(job));
        }
    }
    farm::FarmReport report = farm::runFarm(jobs);

    std::printf("%-9s", "bench");
    for (unsigned budget : budgets)
        std::printf(" %7u", budget);
    std::printf("\n");
    for (size_t row = 0; row < names.size(); ++row) {
        std::printf("%-9s", names[row].c_str());
        for (size_t col = 0; col < budgets.size(); ++col) {
            const farm::FarmJobResult &result =
                report.results[row * budgets.size() + col];
            if (!result.ok()) {
                std::fprintf(stderr, "fig05: %s: %s\n",
                             result.id.c_str(), result.error.c_str());
                return 1;
            }
            std::printf(" %s", pct(result.ratio).c_str());
        }
        std::printf("\n");
    }
    std::printf("paper shape: monotone improvement, flattening in the "
                "low thousands of codewords\n");

    const compress::PipelineCache::Stats &cache = report.cacheStats;
    uint64_t enumTotal = cache.enumHits + cache.enumMisses;
    std::printf("PERF_JSON: {\"bench\":\"fig05_num_codewords\","
                "\"jobs\":%zu,\"enum_hits\":%llu,\"enum_misses\":%llu,"
                "\"enum_hit_rate\":%.4f,\"select_hits\":%llu,"
                "\"select_misses\":%llu,\"compress_millis\":%.1f}\n",
                jobs.size(),
                static_cast<unsigned long long>(cache.enumHits),
                static_cast<unsigned long long>(cache.enumMisses),
                enumTotal ? static_cast<double>(cache.enumHits) /
                                static_cast<double>(enumTotal)
                          : 0.0,
                static_cast<unsigned long long>(cache.selectHits),
                static_cast<unsigned long long>(cache.selectMisses),
                report.compressMillis);
    return 0;
}
