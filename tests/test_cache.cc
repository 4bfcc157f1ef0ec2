/**
 * @file
 * Tests for the I-cache model (including its shift/mask indexing
 * against the division-based reference of icache_oracle.hh) and the
 * fetch-hook plumbing of both processors.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "cache/icache.hh"
#include "compress/compressor.hh"
#include "decompress/compressed_cpu.hh"
#include "decompress/cpu.hh"
#include "icache_oracle.hh"
#include "support/rng.hh"
#include "workloads/workloads.hh"

using namespace codecomp;
using namespace codecomp::cache;

namespace {

TEST(ICache, ColdMissesThenHits)
{
    ICache cache({256, 32, 1});
    cache.access(0, 4);
    cache.access(4, 4);
    cache.access(28, 4);
    EXPECT_EQ(cache.stats().accesses, 3u);
    EXPECT_EQ(cache.stats().misses, 1u); // one line, one cold miss
    cache.access(32, 4);                 // next line
    EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(ICache, DirectMappedConflict)
{
    // 256B direct-mapped, 32B lines -> 8 sets; addresses 0 and 256
    // collide.
    ICache cache({256, 32, 1});
    cache.access(0, 4);
    cache.access(256, 4);
    cache.access(0, 4);
    EXPECT_EQ(cache.stats().misses, 3u); // ping-pong
}

TEST(ICache, TwoWayAssociativityAbsorbsConflict)
{
    ICache cache({256, 32, 2});
    cache.access(0, 4);
    cache.access(256, 4);
    cache.access(0, 4);
    cache.access(256, 4);
    EXPECT_EQ(cache.stats().misses, 2u); // both fit in the set
}

TEST(ICache, LruEvictsOldest)
{
    // 2-way, 1 set per way pair at these addresses: fill both ways,
    // then a third line evicts the least recently used.
    ICache cache({64, 32, 2}); // 1 set, 2 ways
    cache.access(0, 4);    // miss, way0
    cache.access(32, 4);   // miss, way1
    cache.access(0, 4);    // hit (refreshes 0)
    cache.access(64, 4);   // miss, evicts 32
    cache.access(0, 4);    // hit
    cache.access(32, 4);   // miss again
    EXPECT_EQ(cache.stats().misses, 4u);
}

TEST(ICache, StraddlingAccessTouchesBothLines)
{
    ICache cache({256, 32, 1});
    cache.access(30, 4); // spans lines 0 and 1
    EXPECT_EQ(cache.stats().accesses, 2u);
    EXPECT_EQ(cache.stats().misses, 2u);
    cache.access(30, 4);
    EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(ICache, NeverUsedWaysFillBeforeAnyEviction)
{
    // Single 4-way set. The victim scan is index-ordered over the ways,
    // so among never-used ways (all lastUse 0) the lowest index wins
    // deterministically, and no resident line is evicted while an
    // untouched way remains.
    ICache cache({128, 32, 4});
    cache.access(0, 4);   // miss -> way 0
    cache.access(32, 4);  // miss -> way 1
    cache.access(0, 4);   // hit
    cache.access(32, 4);  // hit
    cache.access(64, 4);  // miss -> way 2 (never used), not an eviction
    cache.access(96, 4);  // miss -> way 3
    cache.access(0, 4);   // still resident
    cache.access(32, 4);  // still resident
    EXPECT_EQ(cache.stats().misses, 4u);

    cache.access(128, 4); // set full: evicts the true LRU, line 64
    cache.access(96, 4);  // hit: not the victim
    cache.access(0, 4);   // hit
    cache.access(32, 4);  // hit
    cache.access(64, 4);  // miss: it was the one evicted
    EXPECT_EQ(cache.stats().misses, 6u);
}

TEST(ICache, ResetClearsEverything)
{
    ICache cache({256, 32, 1});
    cache.access(0, 4);
    cache.reset();
    EXPECT_EQ(cache.stats().accesses, 0u);
    cache.access(0, 4);
    EXPECT_EQ(cache.stats().misses, 1u); // cold again
}

TEST(ICache, FillAndEvictionCounters)
{
    // Direct-mapped ping-pong: every miss fills a line; every fill
    // after the set's first displaces a resident line.
    ICache cache({256, 32, 1});
    cache.access(0, 4);   // cold fill, no eviction
    cache.access(256, 4); // fills over line 0: eviction
    cache.access(0, 4);   // and back: eviction
    EXPECT_EQ(cache.stats().misses, 3u);
    EXPECT_EQ(cache.stats().lineFills, 3u);
    EXPECT_EQ(cache.stats().evictions, 2u);

    cache.reset();
    EXPECT_EQ(cache.stats(), CacheStats{});
}

TEST(ICache, AccessReportsMissedLineCount)
{
    ICache cache({256, 32, 1});
    EXPECT_EQ(cache.access(30, 4), 2u); // straddle, both lines cold
    EXPECT_EQ(cache.access(30, 4), 0u); // both resident now
    EXPECT_EQ(cache.access(64, 4), 1u);
    EXPECT_TRUE(cache.touch(64));
    EXPECT_FALSE(cache.touch(96));
}

// Bad geometries are rejected as catchable fatals (CC_FATAL throws), so
// tools can report them as usage errors instead of aborting.
TEST(ICache, RejectsBadGeometry)
{
    // capacity not a whole number of sets: numSets() would truncate
    // 100/32 down to 3 sets and silently model a 96-byte cache.
    EXPECT_THROW(ICache({100, 32, 1}), std::runtime_error);
    EXPECT_THROW(ICache({256, 24, 1}), std::runtime_error); // line !pow2
    EXPECT_THROW(ICache({256, 2, 1}), std::runtime_error);  // line < 4
    EXPECT_THROW(ICache({256, 32, 0}), std::runtime_error); // no ways
    EXPECT_THROW(ICache({16, 32, 1}), std::runtime_error); // 0 sets
    EXPECT_THROW(ICache({96, 32, 1}), std::runtime_error); // 3 sets !pow2
    EXPECT_NE(cacheConfigError({100, 32, 1}).find("whole number"),
              std::string::npos);
    EXPECT_EQ(cacheConfigError({1024, 32, 2}), "");
}

/**
 * Every valid geometry of at most 64 KB: every line size and every set
 * count, with 1..8 ways and every power-of-two way count above that.
 * The index math never reads the way count (it only scales a set's row
 * offset) and the LRU scan is linear in it, so the other way counts
 * would add run time, not coverage.
 */
std::vector<CacheConfig>
geometriesUpTo64K()
{
    constexpr uint32_t limit = 64 * 1024;
    std::vector<CacheConfig> geometries;
    for (uint32_t line = 4; line <= limit; line *= 2)
        for (uint32_t ways = 1; line * ways <= limit;
             ways = ways < 8 ? ways + 1 : ways * 2)
            for (uint32_t sets = 1; line * ways * sets <= limit; sets *= 2)
                geometries.push_back({line * ways * sets, line, ways});
    return geometries;
}

TEST(ICacheOracle, ShiftIndexingMatchesDivisionOnEveryGeometry)
{
    Rng rng(15);
    std::vector<CacheConfig> geometries = geometriesUpTo64K();
    EXPECT_EQ(geometries.size(), 1005u);
    for (const CacheConfig &config : geometries) {
        std::string what = std::to_string(config.capacityBytes) + ":" +
                           std::to_string(config.lineBytes) + ":" +
                           std::to_string(config.ways);
        ASSERT_EQ(cacheConfigError(config), "") << what;
        ICache model(config);
        test::DivisionICache oracle(config);

        uint32_t line = config.lineBytes;
        uint32_t top = 0u - line; // first byte of the top line below 2^32
        std::vector<std::pair<uint32_t, uint32_t>> accesses = {
            {0, 1},           {0, line},       {top, line},
            {UINT32_MAX, 1},  {line - 2, 4},   {top - 2, 4},
            {0, 2 * line},    {top, 1},
        };
        // Seeded addresses: half anywhere in 32 bits (distinct tags),
        // half in a window of four capacities (hits, conflicts and
        // evictions); up to two lines long, so many straddle.
        for (int i = 0; i < 192; ++i) {
            uint32_t addr =
                rng.chance(1, 2)
                    ? static_cast<uint32_t>(rng.next())
                    : static_cast<uint32_t>(
                          rng.below(4ull * config.capacityBytes));
            accesses.push_back(
                {addr, 1 + static_cast<uint32_t>(rng.below(2 * line))});
        }
        for (auto [addr, bytes] : accesses)
            ASSERT_EQ(model.access(addr, bytes), oracle.access(addr, bytes))
                << what << " access " << addr << "+" << bytes;
        for (int i = 0; i < 64; ++i) {
            uint32_t addr = static_cast<uint32_t>(
                rng.below(4ull * config.capacityBytes));
            ASSERT_EQ(model.touch(addr), oracle.touch(addr))
                << what << " touch " << addr;
        }
        ASSERT_EQ(model.stats(), oracle.stats()) << what;
    }
}

TEST(FetchStream, NativeFetchCountMatchesInstCount)
{
    Program p = workloads::buildBenchmark("compress");
    uint64_t fetches = 0;
    FetchStats stats;
    ExecResult r = Cpu(p).run([&](const FetchEvent &event) {
        EXPECT_EQ(event.bytes, 4u);
        EXPECT_EQ(event.retired, 1u);
        EXPECT_FALSE(event.isCodeword);
        ++fetches;
        stats(event);
    });
    EXPECT_EQ(fetches, r.instCount);
    // The statistics observer agrees with the raw stream.
    EXPECT_EQ(stats.itemFetches, r.instCount);
    EXPECT_EQ(stats.fetchedBytes, r.instCount * 4);
}

TEST(FetchStream, CompressedFetchesAreSmallerAndFewerBytes)
{
    Program p = workloads::buildBenchmark("compress");
    compress::CompressorConfig config;
    config.scheme = compress::Scheme::Nibble;
    config.maxEntries = 4680;
    compress::CompressedImage image = compress::compressProgram(p, config);

    uint64_t native_bytes = 0;
    Cpu(p).run([&native_bytes](const FetchEvent &event) {
        native_bytes += event.bytes;
    });

    uint64_t compressed_bytes = 0;
    CompressedCpu(image).run([&compressed_bytes](const FetchEvent &event) {
        compressed_bytes += event.bytes;
    });

    // The compressed fetch stream moves strictly fewer bytes for the
    // same execution (the bandwidth argument of the paper's intro).
    EXPECT_LT(compressed_bytes, native_bytes);
}

TEST(FetchStream, StraddlingCompressedFetchTouchesExactlyTwoLines)
{
    // Variable-size compressed items land at arbitrary byte offsets, so
    // some fetches straddle a cache-line boundary. Each such fetch must
    // count as exactly two line touches -- no more, no less -- and the
    // cache's access count must equal the sum of per-fetch line spans.
    Program p = workloads::buildBenchmark("compress");
    compress::CompressorConfig config;
    config.scheme = compress::Scheme::Nibble;
    compress::CompressedImage image = compress::compressProgram(p, config);

    constexpr uint32_t line = 32;
    ICache cache({2048, line, 2});
    uint64_t expected_touches = 0;
    uint64_t straddles = 0;
    CompressedCpu(image).run([&](const FetchEvent &event) {
        ASSERT_GE(event.bytes, 1u);
        ASSERT_LE(event.bytes, line); // an item never covers three lines
        uint32_t lines = (event.addr + event.bytes - 1) / line -
                         event.addr / line + 1;
        ASSERT_LE(lines, 2u);
        straddles += lines == 2;
        expected_touches += lines;
        cache.access(event.addr, event.bytes);
    });
    EXPECT_GT(straddles, 0u);
    EXPECT_EQ(cache.stats().accesses, expected_touches);
}

TEST(FetchStream, CompressedCodeMissesLessInSmallCache)
{
    Program p = workloads::buildBenchmark("go");
    compress::CompressorConfig config;
    config.scheme = compress::Scheme::Nibble;
    config.maxEntries = 4680;
    compress::CompressedImage image = compress::compressProgram(p, config);

    CacheConfig geometry{2048, 32, 1};
    ICache native(geometry);
    Cpu(p).run([&native](const FetchEvent &event) {
        native.access(event.addr, event.bytes);
    });

    ICache compressed(geometry);
    CompressedCpu(image).run([&compressed](const FetchEvent &event) {
        compressed.access(event.addr, event.bytes);
    });

    EXPECT_LT(compressed.stats().missRate(), native.stats().missRate());
}

} // namespace
