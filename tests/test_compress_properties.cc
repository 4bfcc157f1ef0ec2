/**
 * @file
 * Parameterized property sweeps over the compressor: for every
 * (benchmark, scheme, budget, entry-length) combination checked, the
 * compressed stream must be well-formed, the address map unit-aligned,
 * the ratio accounting self-consistent, and the compressed program must
 * execute identically to the original.
 */

#include <gtest/gtest.h>

#include <ostream>

#include "compress/compressor.hh"
#include "compress/scan.hh"
#include "decompress/compressed_cpu.hh"
#include "decompress/cpu.hh"
#include "isa/isa.hh"
#include "workloads/workloads.hh"

using namespace codecomp;
using namespace codecomp::compress;

namespace {

struct SweepPoint
{
    const char *bench;
    Scheme scheme;
    uint32_t maxEntries;
    uint32_t maxEntryLen;
};

/** gtest's parameter printer for the ctest names: the fields, not the
 *  struct's raw bytes (which hold the bench-name pointer and so change
 *  with every link). */
void
PrintTo(const SweepPoint &pt, std::ostream *os)
{
    *os << pt.bench << " " << schemeCliName(pt.scheme)
        << " maxEntries=" << pt.maxEntries
        << " maxEntryLen=" << pt.maxEntryLen;
}

std::string
pointName(const ::testing::TestParamInfo<SweepPoint> &info)
{
    const SweepPoint &pt = info.param;
    std::string scheme = schemeName(pt.scheme);
    for (char &c : scheme)
        if (c == '-')
            c = '_';
    return std::string(pt.bench) + "_" + scheme + "_e" +
           std::to_string(pt.maxEntries) + "_l" +
           std::to_string(pt.maxEntryLen);
}

class CompressorSweep : public ::testing::TestWithParam<SweepPoint>
{
  protected:
    static Program &
    benchProgram(const std::string &name)
    {
        static std::map<std::string, Program> cache;
        auto it = cache.find(name);
        if (it == cache.end())
            it = cache.emplace(name, workloads::buildBenchmark(name))
                     .first;
        return it->second;
    }
};

TEST_P(CompressorSweep, StreamWellFormed)
{
    const SweepPoint &pt = GetParam();
    Program &program = benchProgram(pt.bench);
    CompressorConfig config;
    config.scheme = pt.scheme;
    config.maxEntries = pt.maxEntries;
    config.maxEntryLen = pt.maxEntryLen;
    CompressedImage image = compressProgram(program, config);
    SchemeParams params = schemeParams(pt.scheme);

    // Ratio sanity and double-entry accounting.
    EXPECT_GT(image.compressionRatio(), 0.15);
    EXPECT_LT(image.compressionRatio(), 1.0);
    EXPECT_EQ(image.composition.totalNibbles(),
              image.textNibbles + image.dictionaryBytes() * 2);

    // Entry budget and lengths respected.
    EXPECT_LE(image.entriesByRank.size(),
              std::min(pt.maxEntries, params.maxCodewords));
    for (const auto &entry : image.entriesByRank) {
        EXPECT_GE(entry.size(), 1u);
        EXPECT_LE(entry.size(), pt.maxEntryLen);
        // No relative branches inside entries; no illegal words.
        for (isa::Word word : entry) {
            isa::Inst inst = isa::decode(word);
            EXPECT_FALSE(inst.isRelativeBranch());
            EXPECT_NE(inst.op, isa::Op::Illegal);
        }
    }

    // Address map: unit alignment, entry point present.
    for (uint32_t orig = 0; orig < image.addrMap.size(); ++orig) {
        uint32_t nib = image.addrMap[orig];
        if (nib != CompressedImage::noItem) {
            EXPECT_EQ(nib % params.unitNibbles, 0u) << orig;
        }
    }
    EXPECT_NE(image.addrMap[program.entryIndex], CompressedImage::noItem);

    // The rank permutation is a bijection.
    std::vector<bool> hit(image.rankOfEntry.size(), false);
    for (uint32_t rank : image.rankOfEntry) {
        ASSERT_LT(rank, hit.size());
        EXPECT_FALSE(hit[rank]);
        hit[rank] = true;
    }

    // Frequency ranking: use counts are non-increasing along ranks.
    std::vector<uint32_t> uses_by_rank(image.entriesByRank.size(), 0);
    for (uint32_t id = 0; id < image.rankOfEntry.size(); ++id)
        uses_by_rank[image.rankOfEntry[id]] = image.selection.useCount[id];
    for (size_t r = 1; r < uses_by_rank.size(); ++r)
        EXPECT_LE(uses_by_rank[r], uses_by_rank[r - 1]) << "rank " << r;
}

TEST_P(CompressorSweep, ExecutesIdentically)
{
    const SweepPoint &pt = GetParam();
    Program &program = benchProgram(pt.bench);
    ExecResult reference = runProgram(program, 1ull << 27);

    CompressorConfig config;
    config.scheme = pt.scheme;
    config.maxEntries = pt.maxEntries;
    config.maxEntryLen = pt.maxEntryLen;
    CompressedImage image = compressProgram(program, config);

    ExecResult run = runCompressed(image, 1ull << 27);
    EXPECT_EQ(run.output, reference.output);
    EXPECT_EQ(run.exitCode, reference.exitCode);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CompressorSweep,
    ::testing::Values(
        SweepPoint{"compress", Scheme::Baseline, 16, 1},
        SweepPoint{"compress", Scheme::Baseline, 8192, 8},
        SweepPoint{"compress", Scheme::OneByte, 8, 4},
        SweepPoint{"compress", Scheme::Nibble, 64, 2},
        SweepPoint{"li", Scheme::Baseline, 256, 4},
        SweepPoint{"li", Scheme::OneByte, 32, 2},
        SweepPoint{"li", Scheme::Nibble, 4680, 4},
        SweepPoint{"m88ksim", Scheme::Baseline, 1024, 4},
        SweepPoint{"m88ksim", Scheme::Nibble, 512, 6},
        SweepPoint{"perl", Scheme::Nibble, 4680, 4},
        SweepPoint{"vortex", Scheme::Baseline, 8192, 4},
        SweepPoint{"gcc", Scheme::Nibble, 4680, 4}),
    pointName);

TEST(CompressorEdge, EmptyBudgetMeansNoCompression)
{
    Program program = workloads::buildBenchmark("compress");
    CompressorConfig config;
    config.maxEntries = 0;
    CompressedImage image = compressProgram(program, config);
    EXPECT_TRUE(image.entriesByRank.empty());
    // Pure pass-through: text is 8 nibbles per instruction.
    EXPECT_EQ(image.textNibbles, program.text.size() * 8);
    EXPECT_EQ(runCompressed(image).exitCode, runProgram(program).exitCode);
}

TEST(CompressorEdge, EntryLengthOneStillExecutes)
{
    Program program = workloads::buildBenchmark("ijpeg");
    CompressorConfig config;
    config.scheme = Scheme::Nibble;
    config.maxEntryLen = 1;
    CompressedImage image = compressProgram(program, config);
    for (const auto &entry : image.entriesByRank)
        EXPECT_EQ(entry.size(), 1u);
    EXPECT_EQ(runCompressed(image).output, runProgram(program).output);
}

TEST(CompressorEdge, BaselineStreamBytesNeverAliasEscapes)
{
    // Scan the emitted stream: the first byte of every uncompressed
    // instruction must be a *legal* opcode and the first byte of every
    // codeword an illegal one -- the property that lets a baseline
    // processor run original programs unmodified (paper section 4.1).
    Program program = workloads::buildBenchmark("li");
    CompressorConfig config;
    config.scheme = Scheme::Baseline;
    CompressedImage image = compressProgram(program, config);

    NibbleReader reader(image.text.data(), image.textNibbles);
    size_t items = 0;
    std::optional<StreamFault> fault = scanStream(
        decodeTables(Scheme::Baseline), image.text, image.textNibbles,
        image.entriesByRank.size(), [&](const DecodedItem &item) {
            ++items;
            reader.seek(item.nibbleAddr);
            uint8_t first = static_cast<uint8_t>(reader.getNibbles(2));
            EXPECT_EQ(isa::isIllegalPrimOp(first >> 2), item.isCodeword)
                << "item at nibble " << item.nibbleAddr;
            if (!item.isCodeword) {
                EXPECT_FALSE(isa::isIllegalPrimOp(isa::primOpOf(item.word)));
            }
            return true;
        });
    EXPECT_FALSE(fault.has_value());
    EXPECT_GT(items, 0u);
}

} // namespace
