/**
 * @file
 * cctime -- the size-vs-speed instrument: run a native .ccp program and
 * its compressed .cci image through the cycle-approximate timing model
 * (src/timing) and print the two verdicts side by side.
 *
 *   cctime prog.ccp prog.cci [--width N] [--icache CAP:LINE:WAYS]
 *          [--l2 CAP:LINE:WAYS] [--l2-hit N] [--l2-cycles N]
 *          [--miss-penalty N] [--mem-cycles N] [--expand-cycles N]
 *          [--redirect-penalty N] [--decoded-cache N] [--max-steps N]
 *          [--json <file>]
 *
 * The two runs must produce identical program output and exit code
 * (they are the same program); a mismatch is reported as a verification
 * finding (exit 2). Bad flags and malformed inputs exit 1, per the
 * contract in tool_common.hh. --json writes both TimingReports plus the
 * config AND the input identity (paths, scheme, image sizes) through
 * support/json, so a sidecar is self-describing without re-parsing the
 * command line.
 */

#include <cstdio>
#include <stdexcept>
#include <string>

#include "compress/objfile.hh"
#include "decompress/compressed_cpu.hh"
#include "decompress/cpu.hh"
#include "support/json.hh"
#include "support/serialize.hh"
#include "timing/timing.hh"
#include "tool_common.hh"

using namespace codecomp;

namespace {

int
usage()
{
    std::fprintf(
        stderr,
        "usage: cctime <prog.ccp> <prog.cci> [--width N] "
        "[--icache CAP:LINE:WAYS] [--l2 CAP:LINE:WAYS] [--l2-hit N] "
        "[--l2-cycles N] [--miss-penalty N] [--mem-cycles N] "
        "[--expand-cycles N] [--redirect-penalty N] [--decoded-cache N] "
        "[--max-steps N] [--json <file>]\n");
    return tools::exitUserError;
}

void
printReport(const char *label, const timing::TimingReport &report)
{
    std::printf("%-10s %12llu cycles  CPI %5.3f  (%llu insts, "
                "%llu fetched bytes)\n",
                label,
                static_cast<unsigned long long>(report.cycles()),
                report.cpi(),
                static_cast<unsigned long long>(report.instructions),
                static_cast<unsigned long long>(report.fetchedBytes));
    std::printf("           stalls: icache-miss %llu, l2-miss %llu, "
                "expansion %llu (%llu decode-cache hits), redirect %llu; "
                "icache %llu/%llu miss (%.2f%%), %llu evictions\n",
                static_cast<unsigned long long>(report.stallIcacheMiss),
                static_cast<unsigned long long>(report.stallL2Miss),
                static_cast<unsigned long long>(report.stallExpansion),
                static_cast<unsigned long long>(report.expansionCacheHits),
                static_cast<unsigned long long>(report.stallRedirect),
                static_cast<unsigned long long>(report.icache.misses),
                static_cast<unsigned long long>(report.icache.accesses),
                report.icache.missRate() * 100,
                static_cast<unsigned long long>(report.icache.evictions));
    if (report.l2.accesses)
        std::printf("           l2: %llu/%llu miss (%.2f%%), "
                    "%llu evictions\n",
                    static_cast<unsigned long long>(report.l2.misses),
                    static_cast<unsigned long long>(report.l2.accesses),
                    report.l2.missRate() * 100,
                    static_cast<unsigned long long>(report.l2.evictions));
}

int
run(int argc, char **argv)
{
    std::string programPath, imagePath, jsonPath;
    timing::TimingConfig config;
    uint64_t max_steps = 1ull << 28;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (tools::parseTimingFlag(argc, argv, i, config))
            continue;
        if (arg == "--icache" && i + 1 < argc) {
            if (!tools::parseCacheSpec(argv[++i], config.icache))
                throw std::invalid_argument(
                    "--icache wants CAP:LINE:WAYS (e.g. 2048:32:2)");
        } else if (arg == "--decoded-cache" && i + 1 < argc) {
            config.decodedCacheRanks =
                tools::flagValue<uint32_t>("--decoded-cache", argv[++i]);
        } else if (arg == "--max-steps" && i + 1 < argc) {
            max_steps = tools::flagValue<uint64_t>("--max-steps", argv[++i]);
        } else if (arg == "--json" && i + 1 < argc) {
            jsonPath = argv[++i];
        } else if (!arg.empty() && arg[0] != '-') {
            if (programPath.empty())
                programPath = arg;
            else if (imagePath.empty())
                imagePath = arg;
            else
                return usage();
        } else {
            return usage();
        }
    }
    if (programPath.empty() || imagePath.empty())
        return usage();
    // Reject a bad model up front as a usage error with the reason,
    // rather than letting FetchTimer's catchable fatal surface raw.
    std::string config_error = timing::timingConfigError(config);
    if (!config_error.empty()) {
        std::fprintf(stderr, "cctime: %s\n", config_error.c_str());
        return tools::exitUserError;
    }

    Program program = loadProgram(readFile(programPath));
    compress::CompressedImage image = loadImage(readFile(imagePath));

    timing::FetchTimer nativeTimer(config);
    ExecResult nativeResult = Cpu(program).run(
        [&nativeTimer](const FetchEvent &e) { nativeTimer.onFetch(e); },
        max_steps);

    timing::FetchTimer compressedTimer(config);
    ExecResult compressedResult = CompressedCpu(image).run(
        [&compressedTimer](const FetchEvent &e) {
            compressedTimer.onFetch(e);
        },
        max_steps);

    if (nativeResult.output != compressedResult.output ||
        nativeResult.exitCode != compressedResult.exitCode) {
        std::fprintf(stderr,
                     "cctime: native and compressed runs diverge "
                     "(exit %d vs %d, %zu vs %zu output bytes)\n",
                     nativeResult.exitCode, compressedResult.exitCode,
                     nativeResult.output.size(),
                     compressedResult.output.size());
        return tools::exitFinding;
    }

    timing::TimingReport native = nativeTimer.report();
    timing::TimingReport compressed = compressedTimer.report();

    std::printf("model: width %u, icache %u:%u:%u, fill %llu cycles, "
                "expand %u/word, redirect %u, decoded-cache %u ranks\n",
                config.frontendWidth, config.icache.capacityBytes,
                config.icache.lineBytes, config.icache.ways,
                static_cast<unsigned long long>(config.lineFillCycles()),
                config.expansionCyclesPerWord,
                config.redirectPenaltyCycles, config.decodedCacheRanks);
    if (config.hasL2())
        std::printf("       l2: %u:%u:%u, fill-from-l2 %llu cycles\n",
                    config.l2.capacityBytes, config.l2.lineBytes,
                    config.l2.ways,
                    static_cast<unsigned long long>(
                        config.l2FillCycles()));
    printReport("native", native);
    printReport("compressed", compressed);
    double speedup = compressed.cycles() == 0
                         ? 0.0
                         : static_cast<double>(native.cycles()) /
                               static_cast<double>(compressed.cycles());
    std::printf("compressed/native cycles: %.4f (speedup %.3fx)\n",
                speedup == 0.0 ? 0.0 : 1.0 / speedup, speedup);

    if (!jsonPath.empty()) {
        JsonWriter json;
        json.beginObject()
            .member("width", config.frontendWidth)
            .member("icache_capacity", config.icache.capacityBytes)
            .member("icache_line", config.icache.lineBytes)
            .member("icache_ways", config.icache.ways)
            .member("l2_capacity", config.l2.capacityBytes)
            .member("l2_line", config.l2.lineBytes)
            .member("l2_ways", config.l2.ways)
            .member("l2_hit_penalty", config.l2HitPenaltyCycles)
            .member("l2_cycles_per_word", config.l2CyclesPerWord)
            .member("miss_penalty", config.missPenaltyCycles)
            .member("mem_cycles_per_word", config.memoryCyclesPerWord)
            .member("expand_cycles_per_word", config.expansionCyclesPerWord)
            .member("redirect_penalty", config.redirectPenaltyCycles)
            .member("decoded_cache_ranks", config.decodedCacheRanks)
            .endObject();
        // Identity of the measured inputs, so downstream consumers
        // (autotune frontier tables, plot scripts) never re-parse argv.
        JsonWriter identity;
        identity.beginObject()
            .member("program", programPath)
            .member("image", imagePath)
            .member("scheme", compress::schemeCliName(image.scheme))
            .member("total_bytes", image.totalBytes())
            .member("text_bytes", image.compressedTextBytes())
            .member("dict_bytes", image.dictionaryBytes())
            .member("entries",
                    static_cast<uint64_t>(image.entriesByRank.size()))
            .member("ratio", image.compressionRatio())
            .member("far_branch_expansions", image.farBranchExpansions)
            .member("max_steps", max_steps)
            .endObject();
        // TimingReport::toJson returns complete objects; compose the
        // document from the closed pieces.
        char ratio[32];
        std::snprintf(ratio, sizeof(ratio), "%.6f",
                      speedup == 0.0 ? 0.0 : 1.0 / speedup);
        std::string doc = "{\"config\":" + json.str() +
                          ",\"identity\":" + identity.str() +
                          ",\"native\":" + native.toJson() +
                          ",\"compressed\":" + compressed.toJson() +
                          ",\"cycle_ratio\":" + ratio + "}\n";
        writeFile(jsonPath,
                  std::vector<uint8_t>(doc.begin(), doc.end()));
    }
    return tools::exitOk;
}

} // namespace

int
main(int argc, char **argv)
{
    return tools::runTool("cctime", [&] { return run(argc, argv); });
}
