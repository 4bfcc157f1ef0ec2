/**
 * @file
 * Tests for the cycle-approximate timing model (src/timing): config
 * validation, exact stall arithmetic over synthetic fetch streams,
 * bit-identical determinism across repeated runs and across
 * differently-parallelized builds of the same image, golden cycle
 * counts on two workloads, the directed density property (a denser
 * image never misses more in the capacity-limited geometry), and the
 * equivalence of the processors' templated run(observer) loop with
 * the fetch-hook adapter.
 *
 * Every test name carries the Timing prefix: the `timing` ctest label
 * (tests/CMakeLists.txt) and test preset select on it.
 */

#include <gtest/gtest.h>

#include "compress/codec.hh"
#include "compress/compressor.hh"
#include "decompress/compressed_cpu.hh"
#include "decompress/cpu.hh"
#include "support/thread_pool.hh"
#include "timing/timing.hh"
#include "workloads/workloads.hh"

using namespace codecomp;
using namespace codecomp::timing;

namespace {

TimingConfig
testModel()
{
    TimingConfig config;
    config.frontendWidth = 1;
    config.icache = {2048, 32, 1};
    config.missPenaltyCycles = 10;
    config.memoryCyclesPerWord = 1;  // fill = 10 + 32/4 = 18 cycles
    config.expansionCyclesPerWord = 1;
    config.redirectPenaltyCycles = 2;
    return config;
}

TEST(TimingConfig, ValidationRejectsBadModels)
{
    TimingConfig config = testModel();
    EXPECT_EQ(timingConfigError(config), "");

    config.frontendWidth = 0;
    EXPECT_NE(timingConfigError(config), "");
    EXPECT_THROW(FetchTimer{config}, std::runtime_error);

    config = testModel();
    config.frontendWidth = 17;
    EXPECT_THROW(FetchTimer{config}, std::runtime_error);

    // Cache errors surface through the timing validator, prefixed.
    config = testModel();
    config.icache = {100, 32, 1};
    EXPECT_NE(timingConfigError(config).find("icache:"),
              std::string::npos);
    EXPECT_THROW(FetchTimer{config}, std::runtime_error);

    config = testModel();
    config.missPenaltyCycles = 100000;
    EXPECT_THROW(FetchTimer{config}, std::runtime_error);
}

TEST(TimingFetchTimer, ChargesExactCycles)
{
    TimingConfig config = testModel();
    config.frontendWidth = 2;
    FetchTimer timer(config);

    // Cold 4-byte fetch: one line fill (18 cycles), one instruction.
    timer.onFetch({0, 4, 1, false, false});
    // Hit in the same line: no stall.
    timer.onFetch({4, 4, 1, false, false});
    // Straddling codeword expanding 3 instructions, taken branch at the
    // end: second line is cold (one more fill), expansion charges
    // 2 extra words, redirect charges 2.
    timer.onFetch({30, 4, 3, true, true});

    TimingReport report = timer.report();
    EXPECT_EQ(report.instructions, 5u);
    EXPECT_EQ(report.items, 3u);
    EXPECT_EQ(report.fetchedBytes, 12u);
    EXPECT_EQ(report.baseCycles, 3u); // ceil(5 / width 2)
    EXPECT_EQ(report.stallIcacheMiss, 2u * 18u);
    EXPECT_EQ(report.stallExpansion, 2u);
    EXPECT_EQ(report.stallRedirect, 2u);
    EXPECT_EQ(report.cycles(), 3u + 36u + 2u + 2u);
    EXPECT_EQ(report.icache.accesses, 4u); // straddle counts twice
    EXPECT_EQ(report.icache.misses, 2u);
    EXPECT_DOUBLE_EQ(report.cpi(), static_cast<double>(43) / 5);

    // reset() forgets cache contents too: the same stream recharges.
    timer.reset();
    timer.onFetch({0, 4, 1, false, false});
    EXPECT_EQ(timer.report().stallIcacheMiss, 18u);
}

TEST(TimingReport, JsonCarriesEveryField)
{
    FetchTimer timer(testModel());
    timer.onFetch({0, 4, 1, false, false});
    std::string json = timer.report().toJson();
    for (const char *field :
         {"\"instructions\"", "\"items\"", "\"fetched_bytes\"",
          "\"cycles\"", "\"cpi\"", "\"base_cycles\"",
          "\"stall_icache_miss\"", "\"stall_l2_miss\"",
          "\"stall_expansion\"", "\"stall_redirect\"", "\"accesses\"",
          "\"misses\"", "\"line_fills\"", "\"evictions\"",
          "\"miss_rate\"", "\"l2\""})
        EXPECT_NE(json.find(field), std::string::npos) << field;
}

/** Time one full run of @p image under the test model. */
TimingReport
timeImage(const compress::CompressedImage &image)
{
    FetchTimer timer(testModel());
    CompressedCpu cpu(image);
    cpu.setFetchHook(timer.hook());
    cpu.run();
    return timer.report();
}

TimingReport
timeNative(const Program &program)
{
    FetchTimer timer(testModel());
    Cpu cpu(program);
    cpu.setFetchHook(timer.hook());
    cpu.run();
    return timer.report();
}

TEST(TimingDeterminism, RepeatedRunsAndJobCountsAgree)
{
    Program p = workloads::buildBenchmark("compress");
    compress::CompressorConfig config;
    config.scheme = compress::Scheme::Nibble;

    setGlobalJobs(1);
    compress::CompressedImage serial = compress::compressProgram(p, config);
    setGlobalJobs(4);
    compress::CompressedImage parallel =
        compress::compressProgram(p, config);

    TimingReport first = timeImage(serial);
    TimingReport again = timeImage(serial);
    TimingReport acrossJobs = timeImage(parallel);

    // Bit-identical across repeated runs and across --jobs-built
    // images, as both the report and its serialization.
    EXPECT_EQ(first, again);
    EXPECT_EQ(first, acrossJobs);
    EXPECT_EQ(first.toJson(), acrossJobs.toJson());

    TimingReport native = timeNative(p);
    EXPECT_EQ(native, timeNative(p));
    // Same architectural work on both processors (lockstep invariant).
    EXPECT_EQ(native.instructions, first.instructions);
}

/**
 * Golden cycle counts. These pin the whole chain -- workload codegen,
 * compression, execution, and the timing arithmetic -- to exact values
 * under the fixed test model; any drift is a deliberate change to one
 * of those layers and must update the goldens with it (DESIGN.md
 * section 9.4).
 */
TEST(TimingGolden, CompressWorkloadCycleCounts)
{
    Program p = workloads::buildBenchmark("compress");
    compress::CompressorConfig config;
    config.scheme = compress::Scheme::Nibble;
    TimingReport native = timeNative(p);
    TimingReport compressed = timeImage(compress::compressProgram(p, config));
    EXPECT_EQ(native.cycles(), 451332u);
    EXPECT_EQ(compressed.cycles(), 449633u);
}

TEST(TimingGolden, LiWorkloadCycleCounts)
{
    Program p = workloads::buildBenchmark("li");
    compress::CompressorConfig config;
    config.scheme = compress::Scheme::Nibble;
    TimingReport native = timeNative(p);
    TimingReport compressed = timeImage(compress::compressProgram(p, config));
    // Here the instrument reads the other way: li's native working set
    // fits the 2KB cache, so expansion and redirect stalls are not paid
    // back by miss savings. Density helps exactly when capacity binds.
    EXPECT_EQ(native.cycles(), 495147u);
    EXPECT_EQ(compressed.cycles(), 576385u);
}

TEST(TimingDensity, DenserImageMissesNoMoreWhenCapacityLimited)
{
    // The directed form of the paper's motivation: in the
    // capacity-limited geometry, the denser image's fetch stream can
    // not miss more than the native one.
    Program p = workloads::buildBenchmark("go");
    compress::CompressorConfig config;
    config.scheme = compress::Scheme::Nibble;
    config.maxEntries = 4680;
    compress::CompressedImage image = compress::compressProgram(p, config);

    TimingReport native = timeNative(p);
    TimingReport compressed = timeImage(image);
    EXPECT_LE(compressed.icache.misses, native.icache.misses);
    EXPECT_LT(compressed.fetchedBytes, native.fetchedBytes);
}

/** The test model with a unified L2 behind the 2KB L1: an L2 hit
 *  refills the L1 line in 4 + 32/4 = 12 cycles instead of 18. */
TimingConfig
testModelL2()
{
    TimingConfig config = testModel();
    config.l2 = {8192, 32, 2};
    config.l2HitPenaltyCycles = 4;
    config.l2CyclesPerWord = 1;
    return config;
}

TEST(TimingL2Config, ValidationRejectsBadHierarchies)
{
    EXPECT_EQ(timingConfigError(testModelL2()), "");

    // L2 geometry errors surface through the validator, prefixed.
    TimingConfig config = testModelL2();
    config.l2 = {3072, 32, 1}; // 96 sets: not a power of two
    EXPECT_NE(timingConfigError(config).find("l2:"), std::string::npos);
    EXPECT_THROW(FetchTimer{config}, std::runtime_error);

    // The hierarchy is inclusive: an L2 below the L1 capacity can
    // never hold the L1's contents.
    config = testModelL2();
    config.l2 = {1024, 32, 1};
    EXPECT_NE(timingConfigError(config).find("at least the L1 capacity"),
              std::string::npos);
    EXPECT_THROW(FetchTimer{config}, std::runtime_error);

    config = testModelL2();
    config.l2 = {8192, 16, 2}; // L2 line below the L1 line
    EXPECT_NE(timingConfigError(config).find("at least the L1 line"),
              std::string::npos);

    // An L2 hit must be cheaper than going to memory, or the "L2" is
    // not a cache at all.
    config = testModelL2();
    config.l2HitPenaltyCycles = 50;
    EXPECT_NE(timingConfigError(config).find("memory fill"),
              std::string::npos);
    EXPECT_THROW(FetchTimer{config}, std::runtime_error);

    config = testModelL2();
    config.l2CyclesPerWord = 20000;
    EXPECT_NE(timingConfigError(config), "");

    // Zero capacity is the disabled sentinel, not an error.
    config = testModelL2();
    config.l2 = {0, 32, 1};
    EXPECT_FALSE(config.hasL2());
    EXPECT_EQ(timingConfigError(config), "");
}

TEST(TimingL2Hierarchy, ChargesExactStallsPerLevel)
{
    FetchTimer timer(testModelL2());

    // Cold fetch: misses both levels; memory refills both (18 cycles,
    // attributed to the L2 miss).
    timer.onFetch({0, 4, 1, false, false});
    // Same line: L1 hit, no L2 access.
    timer.onFetch({4, 4, 1, false, false});
    // 2048 maps to L1 set 0 (64 sets x 32B, direct-mapped): evicts
    // line 0 from the L1. Cold in the L2 too: another 18.
    timer.onFetch({2048, 4, 1, false, false});
    // Line 0 again: L1 miss (just evicted), but the inclusive L2
    // still holds it -- refill from L2 for 12 cycles.
    timer.onFetch({0, 4, 1, false, false});

    TimingReport report = timer.report();
    EXPECT_EQ(report.baseCycles, 4u);
    EXPECT_EQ(report.stallL2Miss, 2u * 18u);
    EXPECT_EQ(report.stallIcacheMiss, 12u);
    EXPECT_EQ(report.cycles(), 4u + 36u + 12u);
    EXPECT_EQ(report.icache.misses, 3u);
    EXPECT_EQ(report.l2.accesses, 3u); // only L1 misses reach the L2
    EXPECT_EQ(report.l2.misses, 2u);

    // reset() forgets both levels.
    timer.reset();
    timer.onFetch({0, 4, 1, false, false});
    EXPECT_EQ(timer.report().stallL2Miss, 18u);
    EXPECT_EQ(timer.report().stallIcacheMiss, 0u);
}

/** Run @p cpu once, feeding a single-level and a two-level timer the
 *  same fetch stream; returns (without L2, with L2). */
template <typename AnyCpu>
std::pair<TimingReport, TimingReport>
timeBothModels(AnyCpu &cpu)
{
    FetchTimer flat(testModel());
    FetchTimer two(testModelL2());
    cpu.setFetchHook([&](const FetchEvent &event) {
        flat.onFetch(event);
        two.onFetch(event);
    });
    cpu.run();
    return {flat.report(), two.report()};
}

TEST(TimingL2Hierarchy, AddingL2NeverIncreasesCycles)
{
    // Exactly provable, not just expected: the L1 miss pattern is
    // independent of the L2, and every miss costs l2FillCycles() <=
    // lineFillCycles() when it hits the L2, lineFillCycles() when it
    // does not. Directed check over every workload, both processors.
    for (const std::string &name : workloads::benchmarkNames()) {
        Program program = workloads::buildBenchmark(name);
        {
            Cpu cpu(program);
            auto [flat, two] = timeBothModels(cpu);
            EXPECT_LE(two.cycles(), flat.cycles()) << name;
            // Same L1 behavior in both models; stalls only rebalance
            // between the icache-miss and l2-miss buckets.
            EXPECT_EQ(two.icache, flat.icache) << name;
            EXPECT_EQ(two.stallIcacheMiss + two.stallL2Miss <=
                          flat.stallIcacheMiss,
                      true)
                << name;
        }
        compress::CompressorConfig config;
        config.scheme = compress::Scheme::Nibble;
        compress::CompressedImage image =
            compress::compressProgram(program, config);
        CompressedCpu cpu(image);
        auto [flat, two] = timeBothModels(cpu);
        EXPECT_LE(two.cycles(), flat.cycles()) << name;
        EXPECT_EQ(two.icache, flat.icache) << name;
        EXPECT_EQ(two.stallExpansion, flat.stallExpansion) << name;
        EXPECT_EQ(two.stallRedirect, flat.stallRedirect) << name;
    }
}

// ---------------- templated run loop vs the fetch hook ----------------

/** FNV-1a64 over every field of every event of a fetch stream. */
struct EventDigest
{
    uint64_t hash = 14695981039346656037ull;

    void
    mix(uint32_t value)
    {
        for (int shift = 0; shift < 32; shift += 8) {
            hash ^= (value >> shift) & 0xffu;
            hash *= 1099511628211ull;
        }
    }

    void
    operator()(const FetchEvent &event)
    {
        mix(event.addr);
        mix(event.bytes);
        mix(event.retired);
        mix(event.isCodeword);
        mix(event.taken);
        mix(event.rank);
    }
};

/** What one run shows a fetch-stream consumer. */
struct ObservedRun
{
    ExecResult result;
    FetchStats stats;
    uint64_t digest = 0;
    TimingReport timing;
};

/** The autotuner's model shape: a 1024:32:1 L1 behind an 8192:32:2
 *  L2. */
TimingConfig
twoLevelModel()
{
    TimingConfig config = testModel();
    config.icache = {1024, 32, 1};
    config.l2 = {8192, 32, 2};
    return config;
}

/** Run @p code with its consumers behind setFetchHook + run(), or
 *  (@p viaObserver) as the observer of the templated run(observer). */
template <typename AnyCpu, typename Code>
ObservedRun
observe(const Code &code, bool viaObserver)
{
    AnyCpu cpu(code);
    EventDigest digest;
    FetchTimer timer(twoLevelModel());
    auto consume = [&digest, &timer](const FetchEvent &event) {
        digest(event);
        timer.onFetch(event);
    };
    ObservedRun run;
    if (viaObserver) {
        run.result = cpu.run(consume);
    } else {
        cpu.setFetchHook(consume);
        run.result = cpu.run();
    }
    run.stats = cpu.fetchStats();
    run.digest = digest.hash;
    run.timing = timer.report();
    return run;
}

void
expectSameRun(const ObservedRun &hooked, const ObservedRun &observed,
              const std::string &what)
{
    EXPECT_EQ(hooked.result, observed.result) << what;
    EXPECT_EQ(hooked.stats, observed.stats) << what;
    EXPECT_EQ(hooked.digest, observed.digest) << what;
    EXPECT_EQ(hooked.timing, observed.timing) << what;
    EXPECT_GT(hooked.stats.itemFetches, 0u) << what;
}

class TimingObserverEquivalence
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(TimingObserverEquivalence, RunObserverMatchesFetchHook)
{
    // The templated run loop and the std::function hook adapter are
    // the same step body: identical results, fetch statistics, event
    // streams and timing, natively and on both nibble-stream codecs.
    Program program = workloads::buildBenchmark(GetParam());
    expectSameRun(observe<Cpu>(program, false),
                  observe<Cpu>(program, true), "native");
    for (compress::Scheme scheme :
         {compress::Scheme::Nibble, compress::Scheme::OperandFactored}) {
        compress::CompressorConfig config;
        config.scheme = scheme;
        compress::CompressedImage image =
            compress::compressProgram(program, config);
        std::string what = compress::schemeCliName(scheme);
        expectSameRun(observe<CompressedCpu>(image, false),
                      observe<CompressedCpu>(image, true), what);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, TimingObserverEquivalence,
    ::testing::ValuesIn(workloads::benchmarkNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

} // namespace
