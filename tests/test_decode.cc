/**
 * @file
 * Golden-checksum cross-decoder suite (DESIGN.md section 10): the
 * table-driven scan must be bit-for-bit interchangeable with the
 * nibble-at-a-time reference decoder of tests/decode_oracle.hh. Three
 * layers of proof:
 *
 *  - DecodeTable: every codeword rank and instruction word round-trips
 *    through the shared stream scan and the reference with identical
 *    items; the two agree on every truncation, fault included.
 *  - DecodeGolden: over every workload x scheme x strategy the engine's
 *    item table equals the reference scan and its expanded-instruction-
 *    stream FNV-1a64 digest equals the reference digest; for compress
 *    and li the digests are also pinned constants.
 *  - DecodeCache: the pre-decoded dictionary entries equal a fresh
 *    isa::decode of the raw entry words, rank for rank.
 *
 * These tests carry the `decode` ctest label.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "compress/compressor.hh"
#include "compress/encoding.hh"
#include "decode_oracle.hh"
#include "decompress/engine.hh"
#include "decompress/fault.hh"
#include "isa/builder.hh"
#include "isa/inst.hh"
#include "workloads/workloads.hh"

using namespace codecomp;
using namespace codecomp::compress;
using namespace codecomp::test;

namespace {

const std::vector<Scheme> testedSchemes = allSchemes();

/** A handful of real (legal-opcode) instruction words, so the escape
 *  rule genuinely distinguishes them from codewords. */
std::vector<isa::Word>
sampleWords()
{
    return {
        isa::encode(isa::li(3, 1)),
        isa::encode(isa::addi(3, 3, 1)),
        isa::encode(isa::lis(4, 1)),
        isa::encode(isa::ori(4, 4, 6)),
        isa::encode(isa::mtlr(4)),
        isa::encode(isa::sc()),
    };
}

// ---------------- table vs reference, exhaustively ----------------

TEST(DecodeTableCodewords, EveryRankMatchesReferenceDecoder)
{
    for (Scheme scheme : testedSchemes) {
        unsigned max = schemeParams(scheme).maxCodewords;
        for (uint32_t rank = 0; rank < max; ++rank) {
            NibbleWriter writer;
            emitCodeword(writer, scheme, rank);
            ASSERT_EQ(writer.nibbleCount(),
                      codewordNibbles(scheme, rank));

            StreamScan fast = sharedStreamScan(
                scheme, writer.bytes(), writer.nibbleCount(), max);
            ASSERT_EQ(fast, oracleStreamScan(scheme, writer.bytes(),
                                             writer.nibbleCount(), max))
                << schemeCliName(scheme) << " rank " << rank;
            ASSERT_FALSE(fast.fault.has_value());
            ASSERT_EQ(fast.items.size(), 1u);
            ASSERT_TRUE(fast.items[0].isCodeword);
            ASSERT_EQ(fast.items[0].rank, rank);
            ASSERT_EQ(fast.items[0].nibbles, writer.nibbleCount());
        }
    }
}

TEST(DecodeTableInstructions, RawWordsMatchReferenceDecoder)
{
    for (Scheme scheme : testedSchemes) {
        unsigned max = schemeParams(scheme).maxCodewords;
        for (isa::Word word : sampleWords()) {
            NibbleWriter writer;
            emitInstruction(writer, scheme, word);

            StreamScan fast = sharedStreamScan(
                scheme, writer.bytes(), writer.nibbleCount(), max);
            ASSERT_EQ(fast, oracleStreamScan(scheme, writer.bytes(),
                                             writer.nibbleCount(), max))
                << schemeCliName(scheme) << " word " << std::hex << word;
            ASSERT_FALSE(fast.fault.has_value());
            ASSERT_EQ(fast.items.size(), 1u);
            ASSERT_FALSE(fast.items[0].isCodeword);
            ASSERT_EQ(fast.items[0].word, word);
            ASSERT_EQ(fast.items[0].nibbles, schemeParams(scheme).insnNibbles);
        }
    }
}

TEST(DecodeTablePeek, AgreesWithReferenceOnEveryTruncation)
{
    // A stream holding one of everything, then every truncated prefix
    // of it, against the full dictionary and a one-entry one: the scan
    // must yield the reference's items and stop at the reference's
    // fault -- the item the stream cannot hold, or the first rank past
    // the dictionary.
    for (Scheme scheme : testedSchemes) {
        NibbleWriter writer;
        unsigned max = schemeParams(scheme).maxCodewords;
        for (uint32_t rank : {0u, 1u, 7u, 31u, max - 1})
            emitCodeword(writer, scheme, rank % max);
        for (isa::Word word : sampleWords())
            emitInstruction(writer, scheme, word);

        for (size_t dict_size : {size_t{max}, size_t{1}}) {
            for (size_t len = 0; len <= writer.nibbleCount(); ++len) {
                ASSERT_EQ(
                    sharedStreamScan(scheme, writer.bytes(), len,
                                     dict_size),
                    oracleStreamScan(scheme, writer.bytes(), len,
                                     dict_size))
                    << schemeCliName(scheme) << " truncated to " << len
                    << " nibbles, dictionary of " << dict_size;
            }
        }
    }
}

TEST(DecodeTableShape, TablesCoverEveryPrefixConsistently)
{
    for (Scheme scheme : testedSchemes) {
        const DecodeTables &tables = decodeTables(scheme);
        unsigned prefix_values = 1u << (4 * tables.prefixNibbles);
        ASSERT_LE(prefix_values, tables.classes.size());
        for (unsigned prefix = 0; prefix < prefix_values; ++prefix) {
            const ItemClass &cls = tables.classes[prefix];
            // An item is never shorter than its prefix, and the fast
            // scan's 64-bit window must always hold it.
            EXPECT_GE(cls.nibbles, tables.prefixNibbles);
            EXPECT_LE(cls.nibbles, 9u);
            EXPECT_LE(tables.prefixNibbles + cls.indexNibbles,
                      cls.nibbles);
            if (cls.isCodeword) {
                // The class's rank range stays inside the scheme.
                uint32_t top = cls.rankBase +
                               (1u << (4 * cls.indexNibbles)) - 1;
                EXPECT_LT(top, schemeParams(scheme).maxCodewords);
            } else {
                EXPECT_EQ(cls.indexNibbles, 0u);
            }
        }
    }
}

// ---------------- golden checksums over the full suite ----------------

using GoldenPoint = std::tuple<std::string, Scheme, StrategyKind>;

std::string
goldenName(const GoldenPoint &point)
{
    const auto &[name, scheme, strategy] = point;
    return name + "_" + schemeCliName(scheme) + "_" +
           (strategy == StrategyKind::Greedy ? "greedy" : "refit");
}

/** expandedStreamDigest() of the default-config image, pinned for two
 *  workloads: any change to selection, layout, emission or decode that
 *  alters the expanded stream shows up here, even one the engine and
 *  the reference scan would agree on. */
const std::map<std::string, uint64_t> pinnedDigests = {
    {"compress_baseline_greedy", 0xd82102e295c52df2ull},
    {"compress_onebyte_greedy", 0xd1bfec90f85801d3ull},
    {"compress_nibble_greedy", 0xfa4d6a399008e834ull},
    {"compress_opfac_greedy", 0x0689f01cacc701f3ull},
    {"compress_baseline_refit", 0xd82102e295c52df2ull},
    {"compress_onebyte_refit", 0xd1bfec90f85801d3ull},
    {"compress_nibble_refit", 0x851e344c675a2044ull},
    {"compress_opfac_refit", 0x0689f01cacc701f3ull},
    {"li_baseline_greedy", 0x588e7b9ea561934dull},
    {"li_onebyte_greedy", 0x2353549d8fef2532ull},
    {"li_nibble_greedy", 0x34809098170c9df1ull},
    {"li_opfac_greedy", 0x27e76d4512c1d8d2ull},
    {"li_baseline_refit", 0x588e7b9ea561934dull},
    {"li_onebyte_refit", 0x2353549d8fef2532ull},
    {"li_nibble_refit", 0x8017e7ee0c3fc45full},
    {"li_opfac_refit", 0x27e76d4512c1d8d2ull},
};

class DecodeGolden : public ::testing::TestWithParam<GoldenPoint>
{};

TEST_P(DecodeGolden, FastAndReferenceEnginesAgree)
{
    const auto &[name, scheme, strategy] = GetParam();
    Program p = workloads::buildBenchmark(name);
    CompressorConfig config;
    config.scheme = scheme;
    config.strategy = strategy;
    CompressedImage image = compressProgram(p, config);

    DecompressionEngine engine(image);
    std::vector<DecodedItem> reference = oracleScan(image);

    ASSERT_EQ(engine.items().size(), reference.size());
    EXPECT_EQ(engine.items(), reference);
    uint64_t digest = engine.expandedStreamDigest();
    EXPECT_EQ(digest, oracleDigest(image, reference));
    // The digest covers the whole expanded program: one word per
    // retired slot, so it must differ from the empty-stream offset.
    EXPECT_NE(digest, 14695981039346656037ull);

    if (name == "compress" || name == "li") {
        auto pinned = pinnedDigests.find(goldenName(GetParam()));
        ASSERT_NE(pinned, pinnedDigests.end())
            << "no pinned digest for " << goldenName(GetParam());
        EXPECT_EQ(digest, pinned->second)
            << goldenName(GetParam()) << " digest " << std::hex << digest;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, DecodeGolden,
    ::testing::Combine(
        ::testing::ValuesIn(workloads::benchmarkNames()),
        ::testing::ValuesIn(allSchemes()),
        ::testing::Values(StrategyKind::Greedy,
                          StrategyKind::IterativeRefit)),
    [](const auto &info) { return goldenName(info.param); });

// ---------------- engine and reference fault identically ----------------

std::string
faultOutcome(const MachineCheckError &error)
{
    return std::string("fault ") +
           std::to_string(static_cast<int>(error.fault())) + " @" +
           std::to_string(error.addr()) + ": " + error.what();
}

/** Outcome of an engine construction: the item count and digest, or
 *  the machine-check's kind/address/message. */
std::string
engineOutcome(const CompressedImage &image)
{
    try {
        DecompressionEngine engine(image);
        return "ok items=" + std::to_string(engine.items().size()) +
               " digest=" +
               std::to_string(engine.expandedStreamDigest());
    } catch (const MachineCheckError &error) {
        return faultOutcome(error);
    }
}

/** engineOutcome of the reference scan. */
std::string
referenceOutcome(const CompressedImage &image)
{
    try {
        std::vector<DecodedItem> items = oracleScan(image);
        return "ok items=" + std::to_string(items.size()) + " digest=" +
               std::to_string(oracleDigest(image, items));
    } catch (const MachineCheckError &error) {
        return faultOutcome(error);
    }
}

TEST(DecodeTableFaults, TruncatedStreamsFaultIdenticallyOnBothPaths)
{
    // Shave trailing nibbles off a real image: whatever each
    // truncation does (clean scan when it lands on an item boundary,
    // BadCodeword mid-item), the engine must match the reference
    // bit-for-bit.
    Program p = workloads::buildBenchmark("compress");
    for (Scheme scheme : testedSchemes) {
        CompressorConfig config;
        config.scheme = scheme;
        CompressedImage image = compressProgram(p, config);
        for (size_t cut = 1; cut <= 9 && cut < image.textNibbles;
             ++cut) {
            CompressedImage mutant = image;
            mutant.textNibbles -= cut;
            EXPECT_EQ(engineOutcome(mutant), referenceOutcome(mutant))
                << schemeCliName(scheme) << " cut " << cut;
        }
    }
}

TEST(DecodeTableFaults, OutOfRangeRankFaultsIdenticallyOnBothPaths)
{
    // Shrink the dictionary under a valid stream so some codeword's
    // rank dangles; the engine and the reference must report the same
    // DictIndexOutOfRange.
    Program p = workloads::buildBenchmark("li");
    for (Scheme scheme : testedSchemes) {
        CompressorConfig config;
        config.scheme = scheme;
        CompressedImage image = compressProgram(p, config);
        ASSERT_GT(image.entriesByRank.size(), 1u);
        CompressedImage mutant = image;
        mutant.entriesByRank.resize(1);
        std::string fast = engineOutcome(mutant);
        EXPECT_EQ(fast, referenceOutcome(mutant));
        EXPECT_NE(fast.find("beyond dictionary"), std::string::npos)
            << schemeCliName(scheme) << ": " << fast;
    }
}

// ---------------- pre-decoded entry cache ----------------

TEST(DecodeCache, PredecodedEntriesMatchFreshDecode)
{
    Program p = workloads::buildBenchmark("go");
    for (Scheme scheme : testedSchemes) {
        CompressorConfig config;
        config.scheme = scheme;
        CompressedImage image = compressProgram(p, config);
        DecompressionEngine engine(image);
        ASSERT_FALSE(image.entriesByRank.empty());
        for (uint32_t rank = 0; rank < image.entriesByRank.size();
             ++rank) {
            const std::vector<isa::Word> &words =
                image.entriesByRank[rank];
            DecodedEntry cached = engine.decodedEntry(rank);
            ASSERT_EQ(cached.size(), words.size());
            for (size_t slot = 0; slot < words.size(); ++slot)
                EXPECT_EQ(cached[slot], isa::decode(words[slot]))
                    << schemeCliName(scheme) << " rank " << rank
                    << " slot " << slot;
        }
    }
}

TEST(DecodeCache, BothPathsBuildTheSameCache)
{
    // Every codeword the reference scan finds expands, through the
    // engine's cache at the engine's rank, to the fresh decode of the
    // dictionary entry at the reference's rank.
    Program p = workloads::buildBenchmark("gcc");
    CompressorConfig config;
    config.scheme = Scheme::Nibble;
    CompressedImage image = compressProgram(p, config);
    DecompressionEngine engine(image);
    std::vector<DecodedItem> reference = oracleScan(image);
    ASSERT_EQ(engine.items().size(), reference.size());
    for (size_t i = 0; i < reference.size(); ++i) {
        if (!reference[i].isCodeword)
            continue;
        DecodedEntry cached = engine.decodedEntry(engine.items()[i].rank);
        const std::vector<isa::Word> &words =
            image.entriesByRank[reference[i].rank];
        ASSERT_EQ(cached.size(), words.size()) << "item " << i;
        for (size_t slot = 0; slot < words.size(); ++slot)
            ASSERT_EQ(cached[slot], isa::decode(words[slot]))
                << "item " << i << " slot " << slot;
    }
}

} // namespace
