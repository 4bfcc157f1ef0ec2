/**
 * @file
 * Tests for the profile-guided memory-budget autotuner (src/autotune)
 * and the hot/cold layout machinery it searches over: search-space
 * enumeration and pruning, frontier/winner invariants, end-to-end
 * determinism of the JSON artifact across job counts and cache
 * settings, execution equivalence of hot/cold images, and the job-spec
 * plumbing that carries the layout through the farm.
 *
 * Every suite name carries the Autotune prefix: the `autotune` ctest
 * label and test preset select on it (and no other partition filter --
 * Timing, Farm, Strategy, ... -- matches it).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>

#include <unistd.h>

#include "autotune/autotune.hh"
#include "compress/codec.hh"
#include "compress/objfile.hh"
#include "decompress/compressed_cpu.hh"
#include "decompress/cpu.hh"
#include "farm/farm.hh"
#include "farm/jobspec.hh"
#include "support/thread_pool.hh"
#include "timing/timing.hh"
#include "workloads/workloads.hh"

using namespace codecomp;
using namespace codecomp::autotune;

namespace {

/** A small spec that keeps tests fast: one scheme, one strategy, two
 *  dictionary shares, two geometries. */
BudgetSpec
smallSpec()
{
    BudgetSpec spec;
    spec.budgets = {2048, 65536};
    spec.cacheGeometries = {{1024, 32, 1}, {2048, 32, 1}};
    spec.schemes = {compress::Scheme::Nibble};
    spec.strategies = {compress::StrategyKind::Greedy};
    spec.dictCaps = {16, 64};
    spec.model.frontendWidth = 1;
    spec.model.missPenaltyCycles = 10;
    spec.model.memoryCyclesPerWord = 1;
    spec.model.expansionCyclesPerWord = 1;
    spec.model.redirectPenaltyCycles = 2;
    return spec;
}

TEST(AutotuneSearchSpace, EnumeratesSchemesStrategiesCapsLayouts)
{
    BudgetSpec spec = smallSpec();
    SearchSpace space(spec);
    // 1 scheme x 1 strategy x 2 caps x 2 layouts, nothing pruned.
    EXPECT_EQ(space.enumerated, 4u);
    EXPECT_EQ(space.pruned, 0u);
    EXPECT_EQ(space.points.size(), 4u);
    EXPECT_EQ(space.geometries.size(), 2u);
    EXPECT_EQ(space.points[0].label, "nibble/greedy/d16/linear");
    EXPECT_EQ(space.points[1].label, "nibble/greedy/d16/hotcold");

    // Defaults: every registered scheme, {greedy, refit}, 5 caps --
    // except that caps clip to each scheme's codeword budget and then
    // deduplicate (onebyte's 32-codeword space keeps only {16, 32}).
    BudgetSpec defaulted = smallSpec();
    defaulted.schemes.clear();
    defaulted.strategies.clear();
    defaulted.dictCaps.clear();
    defaulted.tryHotCold = false;
    SearchSpace wide(defaulted);
    size_t expected = 0;
    for (compress::Scheme scheme : compress::allSchemes()) {
        std::set<uint32_t> caps;
        for (uint32_t cap : {16u, 64u, 256u, 1024u, 4096u})
            caps.insert(std::min(
                cap, compress::schemeParams(scheme).maxCodewords));
        expected += 2 * caps.size();
    }
    EXPECT_EQ(wide.enumerated, expected);

    // Identical specs enumerate identically (label-for-label).
    SearchSpace again(spec);
    ASSERT_EQ(again.points.size(), space.points.size());
    for (size_t i = 0; i < space.points.size(); ++i)
        EXPECT_EQ(again.points[i].label, space.points[i].label);
}

TEST(AutotuneSearchSpace, PrunesGeometriesAndDictionaryCaps)
{
    // A geometry larger than every budget can never be feasible.
    BudgetSpec spec = smallSpec();
    spec.budgets = {2048};
    spec.cacheGeometries = {{1024, 32, 1}, {4096, 32, 2}};
    SearchSpace space(spec);
    EXPECT_EQ(space.geometries.size(), 1u);
    EXPECT_EQ(space.prunedGeometries, 1u);

    // Analytic dictionary cutoff: 4 bytes/entry of ROM beside the
    // smallest kept cache (1024) leaves 1024 bytes of headroom, so a
    // 4096-entry cap (>= 16KB of ROM) is dropped before compression.
    spec.dictCaps = {16, 4096};
    SearchSpace pruned(spec);
    EXPECT_EQ(pruned.enumerated, 4u);
    EXPECT_EQ(pruned.pruned, 2u);
    for (const SearchPoint &point : pruned.points)
        EXPECT_EQ(point.config.maxEntries, 16u);

    // Caps clip to the scheme's codeword budget and deduplicate.
    BudgetSpec clipped = smallSpec();
    clipped.budgets = {1u << 20};
    clipped.dictCaps = {1u << 20, 1u << 21};
    clipped.tryHotCold = false;
    SearchSpace one(clipped);
    EXPECT_EQ(one.points.size(), 1u);
    EXPECT_EQ(one.points[0].config.maxEntries,
              compress::schemeParams(compress::Scheme::Nibble)
                  .maxCodewords);

    // Invalid specs are catchable fatals naming the reason.
    BudgetSpec bad = smallSpec();
    bad.budgets.clear();
    EXPECT_THROW(SearchSpace{bad}, std::runtime_error);
    bad = smallSpec();
    bad.budgets = {512}; // below every geometry
    EXPECT_THROW(SearchSpace{bad}, std::runtime_error);
    bad = smallSpec();
    bad.model.l2 = {512, 32, 1}; // L2 below the candidate L1s
    EXPECT_NE(budgetSpecError(bad), "");
}

TEST(AutotuneEndToEnd, FrontierAndWinnersAreConsistent)
{
    AutotuneResult result = autotune::autotune({"compress"}, smallSpec());
    ASSERT_EQ(result.workloads.size(), 1u);
    const WorkloadResult &wr = result.workloads[0];
    EXPECT_EQ(result.failedJobs, 0u);

    // 2 native points + 4 configs x 2 geometries.
    EXPECT_EQ(wr.points.size(), 2u + 4u * 2u);
    ASSERT_FALSE(wr.frontier.empty());

    // The frontier ascends in bytes, strictly descends in cycles, and
    // no point anywhere dominates a frontier point.
    for (size_t i = 1; i < wr.frontier.size(); ++i) {
        const CandidatePoint &prev = wr.points[wr.frontier[i - 1]];
        const CandidatePoint &next = wr.points[wr.frontier[i]];
        EXPECT_GE(next.onChipBytes, prev.onChipBytes);
        EXPECT_LT(next.cycles(), prev.cycles());
    }
    for (uint32_t index : wr.frontier)
        for (const CandidatePoint &other : wr.points)
            EXPECT_FALSE(other.onChipBytes <=
                             wr.points[index].onChipBytes &&
                         other.cycles() < wr.points[index].cycles())
                << other.id << " dominates " << wr.points[index].id;

    // Winners: the fewest-cycle point that fits each budget.
    ASSERT_EQ(wr.winners.size(), result.budgets.size());
    for (size_t b = 0; b < wr.winners.size(); ++b) {
        const BudgetWinner &winner = wr.winners[b];
        EXPECT_EQ(winner.budget, result.budgets[b]);
        ASSERT_GE(winner.point, 0);
        const CandidatePoint &best =
            wr.points[static_cast<size_t>(winner.point)];
        EXPECT_LE(best.onChipBytes, winner.budget);
        for (const CandidatePoint &other : wr.points) {
            if (other.onChipBytes <= winner.budget) {
                EXPECT_LE(best.cycles(), other.cycles()) << other.id;
            }
        }
    }
    // The roomy budget admits every point, so its winner is the global
    // cycle minimum; the tight budget's winner can only be slower.
    EXPECT_GE(wr.winners[0].point >= 0
                  ? wr.points[static_cast<size_t>(wr.winners[0].point)]
                        .cycles()
                  : UINT64_MAX,
              wr.points[static_cast<size_t>(wr.winners[1].point)]
                  .cycles());
}

TEST(AutotuneEndToEnd, ArtifactIsByteIdenticalAcrossJobsAndCache)
{
    BudgetSpec spec = smallSpec();

    setGlobalJobs(1);
    std::string serial = autotune::autotune({"compress"}, spec).toJson();

    setGlobalJobs(4);
    std::string parallel = autotune::autotune({"compress"}, spec).toJson();

    // A cold disk store prices the images the farm kept in memory; a
    // warm one prices images loaded from its entries.
    farm::FarmOptions persistent;
    persistent.cacheDir =
        (std::filesystem::temp_directory_path() /
         ("cc-autotune-store-" + std::to_string(::getpid())))
            .string();
    std::filesystem::remove_all(persistent.cacheDir);
    AutotuneResult cold = autotune::autotune({"compress"}, spec, persistent);
    AutotuneResult warm = autotune::autotune({"compress"}, spec, persistent);
    std::filesystem::remove_all(persistent.cacheDir);
    EXPECT_EQ(cold.cacheStats.imageMisses, 4u);
    EXPECT_EQ(warm.cacheStats.imageHits, 4u);
    EXPECT_EQ(warm.cacheStats.imageMisses, 0u);
    EXPECT_EQ(warm.cacheStats.persistHits, 4u);

    EXPECT_EQ(serial, parallel);
    EXPECT_EQ(serial, cold.toJson());
    EXPECT_EQ(serial, warm.toJson());
    // The artifact names its own shape.
    for (const char *field :
         {"\"budgets\"", "\"workloads\"", "\"points\"", "\"frontier\"",
          "\"winners\"", "\"on_chip_bytes\"", "\"stall_l2_miss\"",
          "\"nibble/greedy/d16/linear@1024:32:1\""})
        EXPECT_NE(serial.find(field), std::string::npos) << field;
}

TEST(AutotuneEndToEnd, InlineSearchBuildsEachProgramOnce)
{
    // The farm compresses the programs the native runs built: it looks
    // none up in the Program kind, so it builds none again.
    AutotuneResult result =
        autotune::autotune({"compress", "li"}, smallSpec());
    EXPECT_EQ(result.failedJobs, 0u);
    EXPECT_EQ(result.cacheStats.programHits, 0u);
    EXPECT_EQ(result.cacheStats.programMisses, 0u);
    EXPECT_EQ(result.keptGeometries, 2u);
}

TEST(AutotuneEndToEnd, UnknownWorkloadIsACatchableFatal)
{
    EXPECT_THROW(autotune::autotune({"no-such-benchmark"}, smallSpec()),
                 std::runtime_error);
}

/** Compress @p program hot/cold with a real profile. */
compress::CompressedImage
compressHotCold(const Program &program,
                compress::Scheme scheme = compress::Scheme::Nibble,
                uint32_t maxEntries = compress::CompressorConfig{}.maxEntries)
{
    compress::CompressorConfig config;
    config.scheme = scheme;
    config.maxEntries = maxEntries;
    config.layout = compress::LayoutMode::HotCold;
    config.trafficProfile = timing::profileExecutionCounts(program);
    return compress::compressProgram(program, config);
}

TEST(AutotuneHotColdExecution, ReorderedImageRunsIdentically)
{
    for (const char *name : {"compress", "li"}) {
        Program program = workloads::buildBenchmark(name);
        ExecResult native = Cpu(program).run();

        compress::CompressedImage hot = compressHotCold(program);
        ExecResult reordered = CompressedCpu(hot).run();
        EXPECT_EQ(reordered.output, native.output) << name;
        EXPECT_EQ(reordered.exitCode, native.exitCode) << name;

        // Same bytes on a recompress: the layout pass is deterministic.
        EXPECT_EQ(saveImage(hot), saveImage(compressHotCold(program)))
            << name;

        // The reorder actually changes the image (the hot chains of
        // these workloads are not already first).
        compress::CompressorConfig linear;
        linear.scheme = compress::Scheme::Nibble;
        EXPECT_NE(saveImage(hot),
                  saveImage(compress::compressProgram(program, linear)))
            << name;
    }
}

TEST(AutotuneHotColdExecution, HotColdWithoutProfileIsAFatal)
{
    Program program = workloads::buildBenchmark("compress");
    compress::CompressorConfig config;
    config.scheme = compress::Scheme::Nibble;
    config.layout = compress::LayoutMode::HotCold;
    EXPECT_THROW(compress::compressProgram(program, config),
                 std::runtime_error);
    config.trafficProfile.assign(3, 1); // wrong length
    EXPECT_THROW(compress::compressProgram(program, config),
                 std::runtime_error);
}

TEST(AutotuneSpecLayout, JobSpecRoundTripsLayout)
{
    farm::FarmJob job;
    job.workload = "compress";
    job.config.scheme = compress::Scheme::Nibble;
    job.config.layout = compress::LayoutMode::HotCold;
    std::string spec = farm::writeJobSpec({job});
    EXPECT_NE(spec.find("\"layout\":\"hotcold\""), std::string::npos);

    std::vector<farm::FarmJob> parsed = farm::parseJobSpec(spec);
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(parsed[0].config.layout, compress::LayoutMode::HotCold);

    // Linear is the default and stays off the wire.
    job.config.layout = compress::LayoutMode::Linear;
    std::string linear = farm::writeJobSpec({job});
    EXPECT_EQ(linear.find("\"layout\""), std::string::npos);
    EXPECT_EQ(farm::parseJobSpec(linear)[0].config.layout,
              compress::LayoutMode::Linear);

    // An unknown layout value is a catchable fatal naming the field.
    EXPECT_THROW(
        farm::parseJobSpec("{\"jobs\":[{\"workload\":\"compress\","
                           "\"layout\":\"shuffled\"}]}"),
        std::runtime_error);
}

TEST(AutotuneSpecLayout, FarmAutoProfilesHotColdJobs)
{
    // Hot/cold farm jobs without a caller-supplied profile get the
    // plain-processor execution counts of their own program filled in
    // by the farm -- every image must be bit-identical to compressing
    // that program with the profile supplied by hand. Two programs in
    // one run, so a job profiled on the wrong program fails.
    const uint32_t defaultCap = compress::CompressorConfig{}.maxEntries;
    std::vector<farm::FarmJob> jobs;
    std::vector<std::vector<uint8_t>> direct;
    for (const char *workload : {"compress", "li"}) {
        Program program = workloads::buildBenchmark(workload);
        for (compress::Scheme scheme :
             {compress::Scheme::Nibble, compress::Scheme::OperandFactored}) {
            for (uint32_t cap : {16u, 256u, defaultCap}) {
                farm::FarmJob job;
                job.workload = workload;
                job.id = job.workload + "/" +
                         compress::schemeCliName(scheme) + "/d" +
                         std::to_string(cap) + "/hotcold";
                job.config.scheme = scheme;
                job.config.maxEntries = cap;
                job.config.layout = compress::LayoutMode::HotCold;
                jobs.push_back(job);
                direct.push_back(
                    saveImage(compressHotCold(program, scheme, cap)));
            }
        }
    }
    farm::FarmReport report = farm::runFarm(jobs);
    ASSERT_EQ(report.results.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        ASSERT_TRUE(report.results[i].ok())
            << jobs[i].id << ": " << report.results[i].error;
        ASSERT_TRUE(report.results[i].image) << jobs[i].id;
        EXPECT_EQ(report.results[i].image->bytes, direct[i]) << jobs[i].id;
    }
    // Distinct programs, caps and schemes give distinct images.
    EXPECT_EQ(std::set<std::vector<uint8_t>>(direct.begin(), direct.end())
                  .size(),
              jobs.size());
}

} // namespace
