/**
 * @file
 * Extension: ablations of the design choices called out in DESIGN.md.
 *
 * A1  Greedy-by-savings vs rank-by-static-count selection. The paper
 *     chooses greedy; the ablation quantifies what a single-pass
 *     frequency ranking (no recounting after replacements) loses.
 * A2  The assumed codeword cost used during nibble-scheme selection
 *     (true costs are rank-dependent and unknowable during selection).
 * A3  Far-branch stub pressure: how many branches lose offset range at
 *     each scheme's codeword granularity and need the stub rewrite.
 * A4  Selection strategy sweep: greedy vs rank-aware iterative refit
 *     under the nibble scheme, with per-pass pipeline timing emitted as
 *     PERF_JSON lines for the bench trajectory.
 *
 * A3 and A4 run as one farm batch (farm::runFarm): the shared
 * PipelineCache enumerates each workload once for the whole sweep --
 * enumeration keys are scheme-independent -- and the A4 greedy point
 * is a select-cache hit off A3's full-cap nibble job.
 */

#include <algorithm>

#include "compress/compressor.hh"
#include "compress/greedy.hh"
#include "compress/pipeline.hh"
#include "farm/farm.hh"
#include "common.hh"

using namespace codecomp;
using namespace codecomp::bench;
using namespace codecomp::compress;

namespace {

/** A1 alternative: rank candidates once by initial savings, accept in
 *  order while occurrences remain, never re-rank. */
SelectionResult
selectByStaticRank(const Program &program, const GreedyConfig &config)
{
    Cfg cfg = Cfg::build(program);
    CandidateSet candidates = enumerateCandidates(
        program, cfg, config.minEntryLen, config.maxEntryLen);
    std::vector<std::pair<int64_t, uint32_t>> ranked;
    for (uint32_t id = 0; id < candidates.size(); ++id) {
        const Candidate &cand = candidates[id];
        uint32_t occ = countNonOverlapping(candidates.positionsOf(cand),
                                           cand.len, {});
        int64_t savings = savingsNibbles(config, cand.len, occ);
        if (savings > 0)
            ranked.emplace_back(-savings, id);
    }
    std::sort(ranked.begin(), ranked.end());

    SelectionResult result;
    std::vector<bool> consumed(program.text.size(), false);
    for (const auto &[neg, id] : ranked) {
        if (result.dict.entries.size() >= config.maxEntries)
            break;
        const Candidate &cand = candidates[id];
        uint32_t length = cand.len;
        uint32_t occ = countNonOverlapping(candidates.positionsOf(cand),
                                           length, consumed);
        if (savingsNibbles(config, length, occ) <= 0)
            continue;
        uint32_t entry_id =
            static_cast<uint32_t>(result.dict.entries.size());
        uint32_t count = 0;
        uint64_t next_free = 0;
        for (uint32_t pos : candidates.positionsOf(cand)) {
            if (pos < next_free)
                continue;
            bool blocked = false;
            for (uint32_t i = pos; i < pos + length; ++i)
                if (consumed[i])
                    blocked = true;
            if (blocked)
                continue;
            for (uint32_t i = pos; i < pos + length; ++i)
                consumed[i] = true;
            result.placements.push_back({pos, length, entry_id});
            ++count;
            next_free = static_cast<uint64_t>(pos) + length;
        }
        std::span<const isa::Word> seq = candidates.sequenceOf(cand);
        result.dict.entries.emplace_back(seq.begin(), seq.end());
        result.useCount.push_back(count);
    }
    std::sort(result.placements.begin(), result.placements.end(),
              [](const Placement &a, const Placement &b) {
                  return a.start < b.start;
              });
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    initJobs(argc, argv);
    banner("Ablation A1", "greedy vs static-rank selection (baseline, "
                          "8192 codewords)");
    std::printf("%-9s %10s %12s\n", "bench", "greedy", "static-rank");
    for (const auto &[name, program] : buildSuite()) {
        CompressorConfig config;
        config.scheme = Scheme::Baseline;
        CompressedImage greedy = compressProgram(program, config);

        GreedyConfig gcfg;
        gcfg.maxEntries = 8192;
        gcfg.maxEntryLen = 4;
        CompressedImage ranked = compressWithSelection(
            program, config, selectByStaticRank(program, gcfg));
        std::printf("%-9s %10s %12s\n", name.c_str(),
                    pct(greedy.compressionRatio()).c_str(),
                    pct(ranked.compressionRatio()).c_str());
    }

    banner("Ablation A2",
           "assumed codeword cost during nibble selection (gcc)");
    Program gcc_prog = workloads::buildBenchmark("gcc");
    std::printf("%-14s %10s\n", "assumed cost", "ratio");
    for (unsigned nibbles : {1u, 2u, 3u, 4u}) {
        CompressorConfig config;
        config.scheme = Scheme::Nibble;
        config.maxEntries = 4680;
        config.assumedCodewordNibbles = nibbles;
        CompressedImage image = compressProgram(gcc_prog, config);
        std::printf("%u nibbles      %10s%s\n", nibbles,
                    pct(image.compressionRatio()).c_str(),
                    nibbles == 2 ? "   (default)" : "");
    }

    // A3 + A4 as one farm batch: queue A3's workload x scheme grid
    // (full dictionary, greedy) and A4's workload x strategy pairs
    // (nibble, 4680), then read both tables out of one report.
    const std::vector<std::string> &names = workloads::benchmarkNames();
    const std::vector<const SchemeCodec *> &codecs = allCodecs();
    const StrategyKind sweepStrategies[] = {StrategyKind::Greedy,
                                            StrategyKind::IterativeRefit};
    std::vector<farm::FarmJob> jobs;
    for (const std::string &name : names) {
        for (const SchemeCodec *codec : codecs) {
            farm::FarmJob job;
            job.id = "a3/" + name + "/" +
                     std::string(codec->cliName());
            job.workload = name;
            job.config.scheme = codec->id();
            job.config.maxEntries = codec->params().maxCodewords;
            jobs.push_back(std::move(job));
        }
    }
    size_t a4Base = jobs.size();
    for (const std::string &name : names) {
        for (StrategyKind strategy : sweepStrategies) {
            farm::FarmJob job;
            job.id = "a4/" + name + "/" + strategyName(strategy);
            job.workload = name;
            job.config.scheme = Scheme::Nibble;
            job.config.maxEntries = 4680;
            job.config.strategy = strategy;
            jobs.push_back(std::move(job));
        }
    }
    farm::FarmOptions options;
    options.keepImages = false; // only sizes and stats are read back
    farm::FarmReport report = farm::runFarm(jobs, options);

    banner("Ablation A3", "far-branch stub rewrites per scheme");
    std::printf("%-9s", "bench");
    for (const SchemeCodec *codec : codecs)
        std::printf(" %10s", std::string(codec->cliName()).c_str());
    std::printf("\n");
    for (size_t w = 0; w < names.size(); ++w) {
        std::printf("%-9s", names[w].c_str());
        for (size_t c = 0; c < codecs.size(); ++c)
            std::printf(" %10u",
                        report.results[w * codecs.size() + c]
                            .farBranchExpansions);
        std::printf("\n");
    }
    std::printf("note: 0 everywhere means every branch kept offset range "
                "at finer granularity (programs well under the 14-bit "
                "field's reach)\n");

    banner("Ablation A4",
           "selection strategy sweep: greedy vs iterative refit (nibble)");
    std::printf("%-9s %10s %10s %8s %7s\n", "bench", "greedy", "refit",
                "delta", "rounds");
    for (size_t w = 0; w < names.size(); ++w) {
        const farm::FarmJobResult *pair[2];
        for (size_t s = 0; s < 2; ++s) {
            pair[s] = &report.results[a4Base + w * 2 + s];
            std::printf("PERF_JSON: {\"bench\":\"strategy_sweep\","
                        "\"workload\":\"%s\",\"total_bytes\":%llu,"
                        "\"pipeline\":%s}\n",
                        names[w].c_str(),
                        static_cast<unsigned long long>(
                            pair[s]->totalBytes),
                        pair[s]->stats.toJson().c_str());
        }
        std::printf("%-9s %10llu %10llu %8lld %7u\n", names[w].c_str(),
                    static_cast<unsigned long long>(pair[0]->totalBytes),
                    static_cast<unsigned long long>(pair[1]->totalBytes),
                    static_cast<long long>(pair[1]->totalBytes) -
                        static_cast<long long>(pair[0]->totalBytes),
                    pair[1]->stats.selectionRounds);
    }
    std::printf("note: refit re-runs greedy selection under corrected "
                "codeword costs; delta < 0 means the refit image is "
                "smaller; the whole A3+A4 grid ran as one farm batch "
                "(%llu enum hits, %llu select hits)\n",
                static_cast<unsigned long long>(
                    report.cacheStats.enumHits),
                static_cast<unsigned long long>(
                    report.cacheStats.selectHits));
    return 0;
}
