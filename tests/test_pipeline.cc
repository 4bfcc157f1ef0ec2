/**
 * @file
 * Tests for the pass pipeline and the pluggable selection strategies:
 * pass ordering and stats, config validation, greedy/reference
 * equivalence over every workload, cross-strategy determinism across
 * job counts, and the IterativeRefit size guarantee.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <stdexcept>

#include "compress/compressor.hh"
#include "compress/greedy.hh"
#include "compress/objfile.hh"
#include "compress/pipeline.hh"
#include "compress/strategy.hh"
#include "support/thread_pool.hh"
#include "workloads/workloads.hh"

using namespace codecomp;
using namespace codecomp::compress;

namespace {

const char *const kPassOrder[] = {"Enumerate",   "Select", "RankAssign",
                                  "Layout",      "BranchPatch", "Emit"};

CompressedImage
compressWith(const Program &program, Scheme scheme, StrategyKind strategy)
{
    CompressorConfig config;
    config.scheme = scheme;
    config.strategy = strategy;
    return compressProgram(program, config);
}

} // namespace

// ---------------- pipeline structure and stats ----------------

TEST(Pipeline, StandardRunsSixPassesInOrder)
{
    Program program = workloads::buildBenchmark("compress");
    CompressorConfig config;
    config.scheme = Scheme::Nibble;
    PipelineStats stats;
    CompressedImage image = compressProgram(program, config, &stats);

    ASSERT_EQ(stats.passes.size(), std::size(kPassOrder));
    for (size_t i = 0; i < std::size(kPassOrder); ++i) {
        EXPECT_EQ(stats.passes[i].name, kPassOrder[i]);
        EXPECT_GE(stats.passes[i].millis, 0.0);
    }
    EXPECT_EQ(stats.strategy, "greedy");
    EXPECT_EQ(stats.scheme, schemeName(Scheme::Nibble));
    EXPECT_EQ(stats.selectionRounds, 1u);
    EXPECT_GT(stats.totalMillis(), 0.0);

    // Pass counters reflect what the image shows.
    const PassStats *select = stats.pass("Select");
    ASSERT_NE(select, nullptr);
    EXPECT_EQ(select->counter("entries"), image.entriesByRank.size());
    EXPECT_EQ(select->counter("placements"),
              image.selection.placements.size());
    const PassStats *enumerate = stats.pass("Enumerate");
    ASSERT_NE(enumerate, nullptr);
    EXPECT_GT(enumerate->counter("candidates"), 0u);
    const PassStats *patch = stats.pass("BranchPatch");
    ASSERT_NE(patch, nullptr);
    EXPECT_EQ(patch->counter("far_branch_expansions"),
              image.farBranchExpansions);
    EXPECT_EQ(stats.pass("NoSuchPass"), nullptr);
}

TEST(Pipeline, WrapperEqualsManualPassSequence)
{
    Program program = workloads::buildBenchmark("li");
    CompressorConfig config;
    config.scheme = Scheme::Nibble;
    CompressedImage wrapped = compressProgram(program, config);

    PipelineContext ctx(program, config);
    passEnumerate(ctx);
    passSelect(ctx);
    passRankAssign(ctx);
    passLayout(ctx);
    passBranchPatch(ctx);
    passEmit(ctx);

    EXPECT_EQ(ctx.image.text, wrapped.text);
    EXPECT_EQ(ctx.image.textNibbles, wrapped.textNibbles);
    EXPECT_EQ(ctx.image.entriesByRank, wrapped.entriesByRank);
    EXPECT_EQ(ctx.image.data, wrapped.data);
    EXPECT_EQ(ctx.image.entryPointNibble, wrapped.entryPointNibble);
}

TEST(Pipeline, FromSelectionMatchesStandardForGreedy)
{
    // compressWithSelection over selectGreedy's result must be the
    // same image the full pipeline produces with the Greedy strategy.
    Program program = workloads::buildBenchmark("m88ksim");
    CompressorConfig config;
    config.scheme = Scheme::Nibble;
    CompressedImage standard = compressProgram(program, config);

    SchemeParams params = schemeParams(config.scheme);
    GreedyConfig greedy;
    greedy.maxEntries = std::min(config.maxEntries, params.maxCodewords);
    greedy.maxEntryLen = config.maxEntryLen;
    greedy.insnNibbles = params.insnNibbles;
    greedy.codewordNibbles = params.defaultAssumedCodewordNibbles;
    CompressedImage seeded = compressWithSelection(
        program, config, selectGreedy(program, greedy));

    EXPECT_EQ(seeded.text, standard.text);
    EXPECT_EQ(seeded.entriesByRank, standard.entriesByRank);
    EXPECT_EQ(saveImage(seeded), saveImage(standard));
}

TEST(Pipeline, StatsSerializeToJson)
{
    Program program = workloads::buildBenchmark("compress");
    CompressorConfig config;
    config.scheme = Scheme::Nibble;
    config.strategy = StrategyKind::IterativeRefit;
    PipelineStats stats;
    compressProgram(program, config, &stats);

    std::string json = stats.toJson();
    EXPECT_NE(json.find("\"strategy\":\"refit\""), std::string::npos);
    EXPECT_NE(json.find("\"passes\":["), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"Enumerate\""), std::string::npos);
    EXPECT_NE(json.find("\"selection_rounds\":"), std::string::npos);
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
    EXPECT_GT(stats.selectionRounds, 1u);
}

// ---------------- config validation ----------------

TEST(PipelineConfig, GreedyConfigErrorMessages)
{
    GreedyConfig good;
    EXPECT_EQ(greedyConfigError(good), "");

    GreedyConfig zero_len;
    zero_len.maxEntryLen = 0;
    EXPECT_NE(greedyConfigError(zero_len), "");

    GreedyConfig zero_min;
    zero_min.minEntryLen = 0;
    EXPECT_NE(greedyConfigError(zero_min), "");

    GreedyConfig inverted;
    inverted.minEntryLen = 5;
    inverted.maxEntryLen = 3;
    std::string error = greedyConfigError(inverted);
    EXPECT_NE(error.find("5"), std::string::npos) << error;
    EXPECT_NE(error.find("3"), std::string::npos) << error;

    // An empty entry budget is pass-through, not an error.
    GreedyConfig no_budget;
    no_budget.maxEntries = 0;
    EXPECT_EQ(greedyConfigError(no_budget), "");
}

TEST(PipelineConfig, InvalidConfigIsFatal)
{
    Program program = workloads::buildBenchmark("compress");
    CompressorConfig config;
    config.maxEntryLen = 0;
    EXPECT_THROW(compressProgram(program, config), std::runtime_error);

    GreedyConfig inverted;
    inverted.minEntryLen = 9;
    inverted.maxEntryLen = 2;
    EXPECT_THROW(selectGreedy(program, inverted), std::runtime_error);
    EXPECT_THROW(selectGreedyReference(program, inverted),
                 std::runtime_error);
}

TEST(PipelineConfig, MaxEntryLenIsBoundedByTheImageFormat)
{
    // An image holds entries of at most maxImageEntryWords words, so
    // every selection entry point rejects a longer window up front.
    GreedyConfig longest;
    longest.maxEntryLen = maxImageEntryWords;
    EXPECT_EQ(greedyConfigError(longest), "");
    GreedyConfig too_long;
    too_long.maxEntryLen = maxImageEntryWords + 1;
    EXPECT_NE(greedyConfigError(too_long).find("65"), std::string::npos);

    Program program = workloads::buildBenchmark("compress");
    CompressorConfig config;
    config.maxEntryLen = maxImageEntryWords + 1;
    EXPECT_THROW(compressProgram(program, config), std::runtime_error);
    EXPECT_THROW(selectGreedy(program, too_long), std::runtime_error);
    EXPECT_THROW(selectByTraffic(program,
                                 std::vector<uint64_t>(program.text.size()),
                                 too_long),
                 std::runtime_error);
}

// ---------------- strategies ----------------

TEST(Strategy, NamesRoundTrip)
{
    for (StrategyKind kind :
         {StrategyKind::Greedy, StrategyKind::GreedyReference,
          StrategyKind::IterativeRefit})
        EXPECT_EQ(parseStrategyName(strategyName(kind)), kind);
    EXPECT_EQ(parseStrategyName("simulated-annealing"), std::nullopt);
    EXPECT_EQ(parseStrategyName(""), std::nullopt);
}

TEST(Strategy, GreedyMatchesReferenceOnEveryWorkload)
{
    // The two greedy implementations must agree candidate-for-candidate
    // on every workload (small budget: the reference is O(n*k)).
    for (const std::string &name : workloads::benchmarkNames()) {
        Program program = workloads::buildBenchmark(name);
        CompressorConfig config;
        config.scheme = Scheme::Nibble;
        PipelineContext ctx(program, config);
        ctx.greedy.maxEntries = 32;
        passEnumerate(ctx);

        auto fast = makeStrategy(StrategyKind::Greedy);
        auto slow = makeStrategy(StrategyKind::GreedyReference);
        SelectionResult a = fast->select(program.text.size(),
                                         ctx.candidates, ctx.greedy,
                                         config.scheme);
        SelectionResult b = slow->select(program.text.size(),
                                         ctx.candidates, ctx.greedy,
                                         config.scheme);
        EXPECT_EQ(a.dict.entries, b.dict.entries) << name;
        EXPECT_EQ(a.placements, b.placements) << name;
        EXPECT_EQ(a.useCount, b.useCount) << name;
    }
}

TEST(Strategy, RefitNeverLargerThanGreedyOnNibble)
{
    // The regression guarantee behind ISSUE acceptance: rank-aware
    // refit must never lose to plain greedy under the nibble scheme,
    // and must strictly win somewhere.
    size_t strictly_smaller = 0;
    for (const std::string &name : workloads::benchmarkNames()) {
        Program program = workloads::buildBenchmark(name);
        CompressedImage greedy =
            compressWith(program, Scheme::Nibble, StrategyKind::Greedy);
        CompressedImage refit = compressWith(program, Scheme::Nibble,
                                             StrategyKind::IterativeRefit);
        EXPECT_LE(refit.totalBytes(), greedy.totalBytes()) << name;
        if (refit.totalBytes() < greedy.totalBytes())
            ++strictly_smaller;
    }
    EXPECT_GT(strictly_smaller, 0u);
}

TEST(Strategy, RefitRoundsAreBoundedAndReported)
{
    Program program = workloads::buildBenchmark("go");
    CompressorConfig config;
    config.scheme = Scheme::Nibble;
    config.strategy = StrategyKind::IterativeRefit;
    config.refitMaxRounds = 2;
    PipelineStats stats;
    compressProgram(program, config, &stats);
    EXPECT_GE(stats.selectionRounds, 2u);
    EXPECT_LE(stats.selectionRounds, 3u); // round 0 + at most 2 refits
    const PassStats *select = stats.pass("Select");
    ASSERT_NE(select, nullptr);
    EXPECT_EQ(select->counter("rounds"), stats.selectionRounds);
}

TEST(Strategy, ImagesBitIdenticalAcrossJobCounts)
{
    // Determinism contract for every strategy: candidate enumeration
    // is the only parallel stage, so --jobs must never change the
    // output image, whichever selection policy runs on top.
    Program program = workloads::buildBenchmark("compress");
    for (StrategyKind strategy :
         {StrategyKind::Greedy, StrategyKind::GreedyReference,
          StrategyKind::IterativeRefit}) {
        CompressorConfig config;
        config.scheme = Scheme::Nibble;
        config.strategy = strategy;
        // Keep the O(n*k) reference tractable.
        if (strategy == StrategyKind::GreedyReference)
            config.maxEntries = 48;
        setGlobalJobs(1);
        CompressedImage serial = compressProgram(program, config);
        std::vector<uint8_t> serialBytes = saveImage(serial);
        for (unsigned jobs : {4u, 8u}) {
            setGlobalJobs(jobs);
            CompressedImage parallel = compressProgram(program, config);
            EXPECT_EQ(saveImage(parallel), serialBytes)
                << strategyName(strategy) << " jobs " << jobs;
        }
    }
    setGlobalJobs(0);
}

TEST(Strategy, EstimateMatchesCompositionWithoutStubs)
{
    // The analytic size estimate the refit loop minimizes must equal
    // the realized composition whenever no far-branch stub is inserted.
    Program program = workloads::buildBenchmark("li");
    CompressorConfig config;
    config.scheme = Scheme::Nibble;
    PipelineContext ctx(program, config);
    passEnumerate(ctx);
    passSelect(ctx);
    uint64_t estimate = estimateSelectionNibbles(
        ctx.selection, ctx.greedy, config.scheme, program.text.size());
    passRankAssign(ctx);
    passLayout(ctx);
    passBranchPatch(ctx);
    passEmit(ctx);
    ASSERT_EQ(ctx.image.farBranchExpansions, 0u);
    EXPECT_EQ(estimate, ctx.image.composition.totalNibbles());
}
