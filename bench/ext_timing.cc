/**
 * @file
 * Extension: the size-vs-speed Pareto sweep.
 *
 * The paper measures static size and motivates the rest through the
 * memory system ("Reducing program size is one way to reduce
 * instruction cache misses and achieve higher performance [Chen97b]").
 * This harness closes the loop with the cycle-approximate timing model
 * (src/timing): every workload runs natively and under each scheme x
 * selection strategy, through at least two I-cache geometries, and each
 * point lands on the size-vs-cycles plane.
 *
 * Expected shape: in the capacity-limited geometry compressed code
 * trades expansion stalls for line fills and wins where the native
 * working set exceeds the cache; in the roomy geometry the native code
 * keeps its zero-expansion advantage. The traffic-weighted dictionary
 * (compress::selectByTraffic over a profiling run) is the
 * speed-greediest point: worse static size, fewest fetched bytes.
 *
 * Emits one PERF_JSON line per (workload, variant); with --out FILE it
 * also writes the whole sweep there as a JSON trajectory artifact, so
 * speed can be tracked as well as size.
 */

#include <iterator>
#include <string>
#include <vector>

#include "compress/compressor.hh"
#include "compress/strategy.hh"
#include "decompress/compressed_cpu.hh"
#include "decompress/cpu.hh"
#include "support/json.hh"
#include "support/serialize.hh"
#include "timing/timing.hh"
#include "common.hh"

using namespace codecomp;
using namespace codecomp::bench;
using namespace codecomp::timing;

namespace {

constexpr uint64_t maxSteps = 1ull << 27;

/** The two geometries: capacity-limited and roomy. */
const cache::CacheConfig cacheConfigs[] = {{1024, 32, 1}, {4096, 32, 2}};
constexpr size_t numCaches = std::size(cacheConfigs);

TimingConfig
modelFor(const cache::CacheConfig &icache)
{
    TimingConfig config;
    config.frontendWidth = 1;
    config.icache = icache;
    config.missPenaltyCycles = 10;
    config.memoryCyclesPerWord = 1;
    config.expansionCyclesPerWord = 1;
    config.redirectPenaltyCycles = 2;
    return config;
}

struct Variant
{
    std::string label;    //!< "nibble/greedy"
    std::string scheme;
    std::string strategy;
    size_t totalBytes;
    double ratio;
    TimingReport report[numCaches];
};

struct WorkloadResult
{
    std::string name;
    uint32_t nativeBytes;
    TimingReport native[numCaches];
    std::vector<Variant> variants;
};

/** Run @p image once, feeding one timer per cache geometry. */
void
timeCompressed(const compress::CompressedImage &image,
               TimingReport (&out)[numCaches])
{
    std::vector<FetchTimer> timers;
    for (const cache::CacheConfig &cache : cacheConfigs)
        timers.emplace_back(modelFor(cache));
    CompressedCpu(image).run(
        [&timers](const FetchEvent &event) {
            for (FetchTimer &timer : timers)
                timer.onFetch(event);
        },
        maxSteps);
    for (size_t i = 0; i < numCaches; ++i)
        out[i] = timers[i].report();
}

WorkloadResult
sweepWorkload(const std::string &name, const Program &program)
{
    WorkloadResult result;
    result.name = name;
    result.nativeBytes = program.textBytes();

    // One native run feeds every cache geometry and the execution-count
    // profile for the traffic-weighted dictionary.
    std::vector<FetchTimer> timers;
    for (const cache::CacheConfig &cache : cacheConfigs)
        timers.emplace_back(modelFor(cache));
    std::vector<uint64_t> profile(program.text.size(), 0);
    Cpu(program).run(
        [&](const FetchEvent &event) {
            for (FetchTimer &timer : timers)
                timer.onFetch(event);
            ++profile[program.indexOfAddr(event.addr)];
        },
        maxSteps);
    for (size_t i = 0; i < numCaches; ++i)
        result.native[i] = timers[i].report();

    const compress::StrategyKind strategies[] = {
        compress::StrategyKind::Greedy,
        compress::StrategyKind::IterativeRefit};
    for (compress::Scheme scheme : compress::allSchemes()) {
        for (compress::StrategyKind strategy : strategies) {
            compress::CompressorConfig config;
            config.scheme = scheme;
            config.maxEntries = compress::schemeParams(scheme).maxCodewords;
            config.strategy = strategy;
            compress::CompressedImage image =
                compress::compressProgram(program, config);
            Variant variant;
            variant.scheme = compress::schemeName(scheme);
            variant.strategy = compress::strategyName(strategy);
            variant.label = variant.scheme + "/" + variant.strategy;
            variant.totalBytes = image.totalBytes();
            variant.ratio = image.compressionRatio();
            timeCompressed(image, variant.report);
            result.variants.push_back(std::move(variant));
        }
    }

    // The traffic-weighted point: a small dictionary picked to minimize
    // dynamic fetch traffic (ext_profile's objective, library-ized).
    {
        compress::CompressorConfig config;
        config.scheme = compress::Scheme::Nibble;
        config.maxEntries = 64;
        config.maxEntryLen = 4;
        compress::SchemeParams params =
            compress::schemeParams(config.scheme);
        compress::GreedyConfig greedy;
        greedy.maxEntries = config.maxEntries;
        greedy.maxEntryLen = config.maxEntryLen;
        greedy.insnNibbles = params.insnNibbles;
        greedy.codewordNibbles = params.defaultAssumedCodewordNibbles;
        compress::SelectionResult selection =
            compress::selectByTraffic(program, profile, greedy);
        compress::CompressedImage image = compress::compressWithSelection(
            program, config, std::move(selection));
        Variant variant;
        variant.scheme = "nibble";
        variant.strategy = "traffic64";
        variant.label = "nibble/traffic64";
        variant.totalBytes = image.totalBytes();
        variant.ratio = image.compressionRatio();
        timeCompressed(image, variant.report);
        result.variants.push_back(std::move(variant));
    }
    return result;
}

std::string
cacheName(const cache::CacheConfig &config)
{
    return std::to_string(config.capacityBytes) + ":" +
           std::to_string(config.lineBytes) + ":" +
           std::to_string(config.ways);
}

/** One PERF_JSON / --out artifact record. */
std::string
recordJson(const WorkloadResult &work, const Variant &variant)
{
    JsonWriter json;
    json.beginObject()
        .member("bench", "timing")
        .member("workload", work.name)
        .member("scheme", variant.scheme)
        .member("strategy", variant.strategy)
        .member("total_bytes", static_cast<uint64_t>(variant.totalBytes))
        .member("ratio", variant.ratio);
    json.key("caches").beginArray();
    for (size_t i = 0; i < numCaches; ++i) {
        const TimingReport &native = work.native[i];
        const TimingReport &compressed = variant.report[i];
        json.beginObject()
            .member("cache", cacheName(cacheConfigs[i]))
            .member("native_cycles", native.cycles())
            .member("compressed_cycles", compressed.cycles())
            .member("native_cpi", native.cpi())
            .member("compressed_cpi", compressed.cpi())
            .member("cycle_ratio",
                    native.cycles() == 0
                        ? 0.0
                        : static_cast<double>(compressed.cycles()) /
                              static_cast<double>(native.cycles()))
            .member("stall_icache_miss", compressed.stallIcacheMiss)
            .member("stall_expansion", compressed.stallExpansion)
            .member("stall_redirect", compressed.stallRedirect)
            .endObject();
    }
    json.endArray().endObject();
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

    banner("Extension: timing",
           "size-vs-speed Pareto sweep (cycle-approximate model, "
           "width 1, fill 18 cycles)");

    auto suite = buildSuite();
    std::vector<WorkloadResult> results =
        parallelMap<WorkloadResult>(suite.size(), [&suite](size_t i) {
            return sweepWorkload(suite[i].first, suite[i].second);
        });

    for (const WorkloadResult &work : results) {
        std::printf("\n== %s (native text %uB) ==\n", work.name.c_str(),
                    work.nativeBytes);
        std::printf("%-18s %8s %7s", "variant", "bytes", "ratio");
        for (const cache::CacheConfig &cache : cacheConfigs)
            std::printf("  %12s %6s", ("cyc@" + cacheName(cache)).c_str(),
                        "vs-nat");
        std::printf("\n");
        std::printf("%-18s %8u %7s", "native", work.nativeBytes, "100.0%");
        for (size_t i = 0; i < numCaches; ++i)
            std::printf("  %12llu %6s",
                        static_cast<unsigned long long>(
                            work.native[i].cycles()),
                        "1.000");
        std::printf("\n");
        for (const Variant &variant : work.variants) {
            std::printf("%-18s %8zu %6.1f%%", variant.label.c_str(),
                        variant.totalBytes, variant.ratio * 100);
            for (size_t i = 0; i < numCaches; ++i) {
                double vs =
                    work.native[i].cycles() == 0
                        ? 0.0
                        : static_cast<double>(variant.report[i].cycles()) /
                              static_cast<double>(
                                  work.native[i].cycles());
                std::printf("  %12llu %6.3f",
                            static_cast<unsigned long long>(
                                variant.report[i].cycles()),
                            vs);
            }
            std::printf("\n");
        }
    }
    std::printf("\n(vs-nat < 1: the compressed processor finishes first; "
                "the gap opens in the capacity-limited geometry and "
                "closes when the cache fits the native working set)\n");

    std::string artifact = "[";
    for (const WorkloadResult &work : results) {
        for (const Variant &variant : work.variants) {
            std::string record = recordJson(work, variant);
            std::printf("PERF_JSON: %s\n", record.c_str());
            if (artifact.size() > 1)
                artifact += ",";
            artifact += record;
        }
    }
    artifact += "]\n";
    if (!outPath.empty()) {
        writeFile(outPath,
                  std::vector<uint8_t>(artifact.begin(), artifact.end()));
        std::printf("trajectory artifact: %s\n", outPath.c_str());
    }
    return 0;
}
