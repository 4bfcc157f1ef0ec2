/**
 * @file
 * Tests for the cycle-approximate timing model (src/timing): config
 * validation, exact stall arithmetic over synthetic fetch streams,
 * bit-identical determinism across repeated runs and across
 * differently-parallelized builds of the same image, golden cycle
 * counts on two workloads, the directed density property (a denser
 * image never misses more in the capacity-limited geometry), and the
 * equivalence of the processors' templated run(observer) loop with
 * the fetch-hook adapter, the FetchTimer against a reference timer on
 * the division-indexed oracle cache, and trace replay
 * (decompress/replay.hh) against execution: the same fetch stream,
 * and the same rejections.
 *
 * Every test name carries the Timing or TraceReplay prefix: the
 * `timing` ctest label (tests/CMakeLists.txt) and test preset select
 * on them.
 */

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <type_traits>

#include "codegen/codegen.hh"
#include "compress/codec.hh"
#include "compress/compressor.hh"
#include "decompress/compressed_cpu.hh"
#include "decompress/cpu.hh"
#include "decompress/engine.hh"
#include "decompress/replay.hh"
#include "icache_oracle.hh"
#include "isa/builder.hh"
#include "support/rng.hh"
#include "support/thread_pool.hh"
#include "timing/timing.hh"
#include "workloads/generator.hh"
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

/** FetchTimer's accounting written over test::DivisionICache, which
 *  probes every access: the reference for the timer's repeat-line fast
 *  path. */
class ReferenceTimer
{
  public:
    explicit ReferenceTimer(const TimingConfig &config)
        : config_(config), l1_(config.icache)
    {
        if (config.hasL2())
            l2_ = std::make_unique<test::DivisionICache>(config.l2);
    }

    void
    onFetch(const FetchEvent &event)
    {
        ++report_.items;
        report_.instructions += event.retired;
        report_.fetchedBytes += event.bytes;
        uint32_t line_bytes = config_.icache.lineBytes;
        uint32_t first = event.addr / line_bytes;
        uint32_t last =
            (event.addr + (event.bytes ? event.bytes - 1 : 0)) / line_bytes;
        for (uint32_t line = first; line <= last; ++line) {
            if (l1_.touch(line * line_bytes))
                continue;
            if (!l2_)
                report_.stallIcacheMiss += config_.lineFillCycles();
            else if (l2_->touch(line * line_bytes))
                report_.stallIcacheMiss += config_.l2FillCycles();
            else
                report_.stallL2Miss += config_.lineFillCycles();
        }
        if (event.isCodeword && event.retired > 1) {
            if (event.rank < config_.decodedCacheRanks)
                ++report_.expansionCacheHits;
            else
                report_.stallExpansion +=
                    uint64_t{config_.expansionCyclesPerWord} *
                    (event.retired - 1);
        }
        if (event.taken)
            report_.stallRedirect += config_.redirectPenaltyCycles;
    }

    TimingReport
    report() const
    {
        TimingReport report = report_;
        report.baseCycles =
            (report.instructions + config_.frontendWidth - 1) /
            config_.frontendWidth;
        report.icache = l1_.stats();
        if (l2_)
            report.l2 = l2_->stats();
        return report;
    }

  private:
    TimingConfig config_;
    test::DivisionICache l1_;
    std::unique_ptr<test::DivisionICache> l2_; //!< null: no L2
    TimingReport report_;
};

/** A seeded fetch stream that mostly walks forward a few bytes at a
 *  time (runs of same-line accesses), sometimes jumps, and sometimes
 *  straddles line boundaries. It ends on the line it began on, so a
 *  timer that kept its last line across reset() would skip the first
 *  fill of a second pass. */
std::vector<FetchEvent>
seededStream(uint64_t seed)
{
    Rng rng(seed);
    std::vector<FetchEvent> stream;
    uint32_t addr = 0x10000;
    for (int i = 0; i < 20000; ++i) {
        if (rng.chance(1, 16))
            addr = 0x10000 + static_cast<uint32_t>(rng.below(16384));
        uint32_t bytes = static_cast<uint32_t>(
            rng.chance(1, 8) ? rng.range(5, 40) : rng.range(1, 4));
        stream.push_back({addr, bytes,
                          static_cast<uint32_t>(rng.range(1, 4)),
                          rng.chance(1, 3), rng.chance(1, 8),
                          static_cast<uint32_t>(rng.below(64))});
        addr += static_cast<uint32_t>(rng.range(0, 3));
    }
    stream.push_back({stream.front().addr, 1, 1, false, false, 0});
    return stream;
}

TEST(TimingFetchTimer, RepeatLineFastPathMatchesDivisionOracle)
{
    TimingConfig flat = testModel();
    flat.icache = {1024, 16, 2};
    flat.decodedCacheRanks = 16;
    TimingConfig two_level = flat;
    two_level.l2 = {4096, 32, 4};
    for (const TimingConfig &config : {flat, two_level}) {
        for (uint64_t seed : {1u, 2u, 3u}) {
            std::vector<FetchEvent> stream = seededStream(seed);
            FetchTimer timer(config);
            ReferenceTimer reference(config);
            for (const FetchEvent &event : stream) {
                timer.onFetch(event);
                reference.onFetch(event);
            }
            EXPECT_EQ(timer.report(), reference.report())
                << "seed " << seed << " l2 " << config.hasL2();

            // After reset() the timer prices the stream afresh.
            timer.reset();
            for (const FetchEvent &event : stream)
                timer.onFetch(event);
            EXPECT_EQ(timer.report(), reference.report())
                << "seed " << seed << " l2 " << config.hasL2()
                << " after reset";
        }
    }
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
    CompressedCpu(image).run(
        [&timer](const FetchEvent &event) { timer.onFetch(event); });
    return timer.report();
}

TimingReport
timeNative(const Program &program)
{
    FetchTimer timer(testModel());
    Cpu(program).run(
        [&timer](const FetchEvent &event) { timer.onFetch(event); });
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
    cpu.run([&](const FetchEvent &event) {
        flat.onFetch(event);
        two.onFetch(event);
    });
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

// ---------------- templated run loop vs a loop over step ----------------

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

/** Run @p code with its consumers as the observer of run(observer),
 *  or (@p stepwise) of step(observer) called until the processor
 *  halts. */
template <typename AnyCpu, typename Code>
ObservedRun
observe(const Code &code, bool stepwise)
{
    AnyCpu cpu(code);
    ObservedRun run;
    EventDigest digest;
    FetchTimer timer(twoLevelModel());
    auto consume = [&](const FetchEvent &event) {
        run.stats(event);
        digest(event);
        timer.onFetch(event);
    };
    if (!stepwise) {
        run.result = cpu.run(consume);
    } else {
        bool running = true;
        while (running) {
            if constexpr (std::is_same_v<AnyCpu, CompressedCpu>)
                running = cpu.step(consume, noRetire);
            else
                running = cpu.step(consume);
        }
        run.result = {cpu.machine().output(), cpu.machine().exitCode(),
                      cpu.instCount()};
    }
    run.digest = digest.hash;
    run.timing = timer.report();
    return run;
}

void
expectSameRun(const ObservedRun &run, const ObservedRun &stepped,
              const std::string &what)
{
    EXPECT_EQ(run.result, stepped.result) << what;
    EXPECT_EQ(run.stats, stepped.stats) << what;
    EXPECT_EQ(run.digest, stepped.digest) << what;
    EXPECT_EQ(run.timing, stepped.timing) << what;
    EXPECT_GT(run.stats.itemFetches, 0u) << what;
}

class TimingObserverEquivalence
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(TimingObserverEquivalence, RunObserverMatchesStepLoop)
{
    // run(observer) and a loop over step(observer) share one step
    // body: identical results, fetch statistics, event streams and
    // timing, natively and on both nibble-stream codecs.
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

// ---------------- trace replay vs execution ----------------

/** What a consumer of one compressed fetch stream sees. */
struct StreamView
{
    FetchStats stats;
    uint64_t digest = 0;
    uint64_t retired = 0;
    TimingReport timing;
};

/** The stream of running @p image on the CompressedCpu. */
StreamView
executed(const compress::CompressedImage &image,
         uint64_t max_steps = CompressedCpu::defaultMaxSteps)
{
    CompressedCpu cpu(image);
    EventDigest digest;
    FetchTimer timer(twoLevelModel());
    StreamView view;
    view.retired = cpu.run(
                           [&](const FetchEvent &event) {
                               view.stats(event);
                               digest(event);
                               timer.onFetch(event);
                           },
                           max_steps)
                       .instCount;
    view.digest = digest.hash;
    view.timing = timer.report();
    return view;
}

/** The stream of replaying @p trace through @p image's fetch table. */
StreamView
replayed(const compress::CompressedImage &image, const Program &program,
         const NativeTrace &trace,
         uint64_t max_steps = CompressedCpu::defaultMaxSteps)
{
    EventDigest digest;
    FetchTimer timer(twoLevelModel());
    StreamView view;
    view.retired = TraceReplayer(image, program)
                       .replay(
                           trace,
                           [&](const FetchEvent &event) {
                               view.stats(event);
                               digest(event);
                               timer.onFetch(event);
                           },
                           max_steps);
    view.digest = digest.hash;
    view.timing = timer.report();
    return view;
}

NativeTrace
traceOf(const Program &program, uint64_t max_steps = Cpu::defaultMaxSteps)
{
    NativeTrace trace;
    Cpu(program).run(
        [&trace](const FetchEvent &event) { trace.record(event); },
        max_steps);
    return trace;
}

void
expectSameStream(const StreamView &run, const StreamView &replay,
                 const std::string &what)
{
    EXPECT_EQ(run.digest, replay.digest) << what;
    EXPECT_EQ(run.stats, replay.stats) << what;
    EXPECT_EQ(run.retired, replay.retired) << what;
    EXPECT_EQ(run.timing, replay.timing) << what;
    EXPECT_GT(run.stats.itemFetches, 0u) << what;
}

class TraceReplayEquivalence : public ::testing::TestWithParam<std::string>
{
};

TEST_P(TraceReplayEquivalence, ReplayMatchesExecution)
{
    // Every scheme, linear and hot/cold: the replayed stream is the
    // executed one, event for event.
    Program program = workloads::buildBenchmark(GetParam());
    NativeTrace trace = traceOf(program);
    std::vector<uint64_t> profile =
        trace.executionCounts(program.text.size());
    EXPECT_EQ(profile, profileExecutionCounts(program));
    for (compress::Scheme scheme : compress::allSchemes()) {
        for (compress::LayoutMode layout :
             {compress::LayoutMode::Linear, compress::LayoutMode::HotCold}) {
            compress::CompressorConfig config;
            config.scheme = scheme;
            config.layout = layout;
            if (layout == compress::LayoutMode::HotCold)
                config.trafficProfile = profile;
            compress::CompressedImage image =
                compress::compressProgram(program, config);
            expectSameStream(executed(image),
                             replayed(image, program, trace),
                             std::string(compress::schemeCliName(scheme)) +
                                 "/" + compress::layoutModeName(layout));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, TraceReplayEquivalence,
    ::testing::ValuesIn(workloads::benchmarkNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

/** A loop body over 4 KiB, so its exit test needs a far-branch stub at
 *  nibble granularity (as in Engine.FarBranchStubExecutesCorrectly): a
 *  conditional stub, not taken twice and taken once. */
Program
stubProgram()
{
    return codegen::compile(workloads::bigLoopFunction("huge", 3000, 7) +
                            "int main() { puti(huge(5)); return 0; }\n");
}

compress::CompressedImage
stubImage(const Program &program)
{
    compress::CompressorConfig config;
    config.scheme = compress::Scheme::Nibble;
    config.maxEntries = 4680;
    return compress::compressProgram(program, config);
}

TEST(TraceReplayStubs, ConditionalStubOutcomesMatchExecution)
{
    Program program = stubProgram();
    compress::CompressedImage image = stubImage(program);
    ASSERT_GE(image.farBranchExpansions, 1u);

    // The fetch addresses of the conditional stubs' heads: bc, then
    // b, then lis r2.
    DecompressionEngine engine(image);
    const std::vector<DecodedItem> &items = engine.items();
    auto plain_op = [&items](size_t k) {
        return items[k].isCodeword ? isa::Op::Illegal
                                   : isa::decode(items[k].word).op;
    };
    std::set<uint32_t> heads;
    for (size_t k = 2; k < items.size(); ++k)
        if (plain_op(k) == isa::Op::Addis &&
            isa::decode(items[k].word).rt == compress::farBranchReg &&
            plain_op(k - 1) == isa::Op::B && plain_op(k - 2) == isa::Op::Bc)
            heads.insert((compress::CompressedImage::nibbleBase +
                          items[k - 2].nibbleAddr) /
                         2);
    uint64_t taken = 0, not_taken = 0;
    CompressedCpu(image).run([&](const FetchEvent &event) {
        if (heads.count(event.addr))
            ++(event.taken ? taken : not_taken);
    });
    EXPECT_GT(taken, 0u);
    EXPECT_GT(not_taken, 0u);

    StreamView run = executed(image);
    expectSameStream(run, replayed(image, program, traceOf(program)),
                     "conditional stubs");
    // The stubs retire instructions the native program does not.
    EXPECT_GT(run.retired, runProgram(program).instCount);
}

TEST(TraceReplayStubs, HotColdWorkloadStubsMatchExecution)
{
    // A 16-entry dictionary under the hot/cold layout strands two of
    // compress's branches out of reach: real stubs in a real search.
    Program program = workloads::buildBenchmark("compress");
    NativeTrace trace = traceOf(program);
    for (compress::Scheme scheme :
         {compress::Scheme::Nibble, compress::Scheme::OperandFactored}) {
        compress::CompressorConfig config;
        config.scheme = scheme;
        config.maxEntries = 16;
        config.layout = compress::LayoutMode::HotCold;
        config.trafficProfile = trace.executionCounts(program.text.size());
        compress::CompressedImage image =
            compress::compressProgram(program, config);
        std::string what = compress::schemeCliName(scheme);
        ASSERT_GE(image.farBranchExpansions, 1u) << what;
        StreamView run = executed(image);
        expectSameStream(run, replayed(image, program, trace), what);
        EXPECT_GT(run.retired, runProgram(program).instCount) << what;
    }
}

TEST(TraceReplayStubs, UnconditionalStubsMatchExecution)
{
    // A 24-bit b/bl displacement reaches across any program the suite
    // can build, so the unconditional stubs are spelled out by hand: a
    // call and a jump, each through CTR.
    using namespace isa;
    Program program;
    program.text = {
        encode(li(3, 5)),       // 0
        encode(bl(5)),          // 1: call 6
        encode(b(2)),           // 2: jump to 4
        encode(li(3, 99)),      // 3: skipped
        encode(li(0, 0)),       // 4: exit(r3)
        encode(sc()),           // 5
        encode(addi(3, 3, 1)),  // 6: the callee
        encode(blr()),          // 7
    };
    program.finalize();

    // Every item is a plain instruction, so item k sits at k * the
    // instruction's nibbles: 0, the call's stub (1-4), the jump's stub
    // (5-8), then instructions 3..7 as items 9..13.
    compress::Scheme scheme = compress::Scheme::Nibble;
    unsigned insn = compress::schemeParams(scheme).insnNibbles;
    auto stub = [&](uint32_t target_item, bool link) {
        uint32_t pointer =
            compress::CompressedImage::nibbleBase + target_item * insn;
        uint8_t r2 = compress::farBranchReg;
        return std::vector<Word>{
            encode(lis(r2, static_cast<int16_t>(pointer >> 16))),
            encode(ori(r2, r2, static_cast<int32_t>(pointer & 0xffff))),
            encode(mtctr(r2)), encode(link ? bctrl() : bctr())};
    };
    std::vector<Word> stream = {program.text[0]};
    for (Word word : stub(12, true))
        stream.push_back(word);
    for (Word word : stub(10, false))
        stream.push_back(word);
    stream.insert(stream.end(), program.text.begin() + 3,
                  program.text.end());

    compress::CompressedImage image;
    image.scheme = scheme;
    NibbleWriter writer;
    for (Word word : stream)
        compress::emitInstruction(writer, scheme, word);
    image.text = writer.bytes();
    image.textNibbles = writer.nibbleCount();
    image.dataBase = program.dataBase;
    image.originalTextBytes = program.textBytes();
    image.farBranchExpansions = 2;

    ExecResult native = runProgram(program);
    EXPECT_EQ(native.exitCode, 6);
    EXPECT_EQ(runCompressed(image).exitCode, native.exitCode);
    expectSameStream(executed(image),
                     replayed(image, program, traceOf(program)),
                     "unconditional stubs");
}

// Replay rejects what execution rejects, with the same exception.

TEST(TraceReplayRejects, PatchedDictionaryEntry)
{
    Program program = workloads::buildBenchmark("compress");
    compress::CompressorConfig config;
    config.scheme = compress::Scheme::Nibble;
    compress::CompressedImage image =
        compress::compressProgram(program, config);
    NativeTrace trace = traceOf(program);

    // Patch an entry the run expands to an undecodable word.
    std::optional<uint32_t> rank;
    CompressedCpu(image).run([&rank](const FetchEvent &event) {
        if (event.isCodeword && !rank)
            rank = event.rank;
    });
    ASSERT_TRUE(rank.has_value());
    isa::Word illegal = 0;
    ASSERT_EQ(isa::decode(illegal).op, isa::Op::Illegal);
    image.entriesByRank[*rank][0] = illegal;

    EXPECT_THROW(CompressedCpu(image).run(), MachineCheckError);
    EXPECT_THROW(replayed(image, program, trace), MachineCheckError);
}

TEST(TraceReplayRejects, RunStartingInsideCodeword)
{
    Program program = workloads::buildBenchmark("compress");
    compress::CompressorConfig config;
    config.scheme = compress::Scheme::Baseline;
    compress::CompressedImage image =
        compress::compressProgram(program, config);
    NativeTrace trace = traceOf(program);

    // An executed codeword that covers several instructions.
    std::vector<uint64_t> counts =
        trace.executionCounts(program.text.size());
    DecompressionEngine engine(image);
    std::optional<uint32_t> start;
    for (uint32_t index = 0; index < image.addrMap.size(); ++index) {
        if (image.addrMap[index] == compress::CompressedImage::noItem)
            continue;
        const DecodedItem &item = engine.itemAt(image.addrMap[index]);
        if (item.isCodeword && counts[index] > 0 &&
            image.entriesByRank[item.rank].size() >= 2 &&
            (!start || index < *start))
            start = index;
    }
    ASSERT_TRUE(start.has_value());

    // Execution entering the codeword one nibble in...
    compress::CompressedImage entered = image;
    entered.entryPointNibble = image.addrMap[*start] + 1;
    try {
        CompressedCpu(entered).run();
        ADD_FAILURE() << "execution entered a codeword";
    } catch (const MachineCheckError &e) {
        EXPECT_EQ(e.fault(), MachineFault::MisalignedPc);
    }

    // ...and a trace whose run starts at its second instruction.
    NativeTrace bad = trace;
    bad.runs[bad.runs.size() / 2] = {*start + 1, 1};
    try {
        replayed(image, program, bad);
        ADD_FAILURE() << "replay entered a codeword";
    } catch (const MachineCheckError &e) {
        EXPECT_EQ(e.fault(), MachineFault::MisalignedPc);
    }
}

TEST(TraceReplayRejects, StubImageOverStepBudget)
{
    // A budget the native run fits and the stub image does not: both
    // execution and replay hit the catchable step-limit fatal.
    Program program = stubProgram();
    compress::CompressedImage image = stubImage(program);
    uint64_t native = runProgram(program).instCount;
    uint64_t compressed = executed(image).retired;
    ASSERT_LT(native, compressed);
    uint64_t budget = native;
    NativeTrace trace = traceOf(program, budget);

    auto fatal_message = [](auto &&run) -> std::string {
        try {
            run();
        } catch (const MachineCheckError &e) {
            return std::string("machine check: ") + e.what();
        } catch (const std::runtime_error &e) {
            return e.what();
        }
        return "no error";
    };
    std::string ran = fatal_message([&] { executed(image, budget); });
    std::string replay =
        fatal_message([&] { replayed(image, program, trace, budget); });
    EXPECT_NE(ran.find("exceeded"), std::string::npos) << ran;
    EXPECT_NE(replay.find("exceeded"), std::string::npos) << replay;
}

} // namespace
