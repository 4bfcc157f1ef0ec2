/**
 * @file
 * Tests for the decompression engine and CompressedCpu specifics:
 * stream scanning vs the compressor's address map, fetch statistics,
 * far-branch stub execution, and jump-table re-patching.
 */

#include <gtest/gtest.h>

#include "codegen/codegen.hh"
#include "compress/compressor.hh"
#include "decompress/compressed_cpu.hh"
#include "decompress/cpu.hh"
#include "decompress/fault.hh"
#include "workloads/generator.hh"
#include "workloads/workloads.hh"

using namespace codecomp;
using namespace codecomp::compress;

namespace {

TEST(Engine, StreamScanAgreesWithAddressMap)
{
    Program p = workloads::buildBenchmark("li");
    for (Scheme scheme : allSchemes()) {
        CompressorConfig config;
        config.scheme = scheme;
        CompressedImage image = compressProgram(p, config);
        DecompressionEngine engine(image);

        // Every address-map entry is an item boundary of the scan, and
        // the item kinds match what the compressor placed there.
        size_t codewords = 0;
        for (const DecodedItem &item : engine.items())
            codewords += item.isCodeword;
        EXPECT_EQ(codewords, image.selection.placements.size());

        for (uint32_t nib : image.addrMap) {
            if (nib == CompressedImage::noItem)
                continue;
            const DecodedItem &item = engine.itemAt(nib);
            EXPECT_EQ(item.nibbleAddr, nib);
        }

        // Items tile the stream exactly.
        uint32_t pos = 0;
        for (const DecodedItem &item : engine.items()) {
            EXPECT_EQ(item.nibbleAddr, pos);
            pos += item.nibbles;
        }
        EXPECT_EQ(pos, image.textNibbles);
    }
}

TEST(Engine, ExpandedEntriesMatchOriginalText)
{
    Program p = workloads::buildBenchmark("compress");
    CompressorConfig config;
    CompressedImage image = compressProgram(p, config);
    DecompressionEngine engine(image);

    // Walking the stream and expanding codewords must reproduce the
    // original instruction sequence exactly (modulo patched branch
    // displacement fields, which we re-check structurally).
    std::vector<isa::Word> rebuilt;
    for (const DecodedItem &item : engine.items()) {
        if (item.isCodeword) {
            for (isa::Word word : engine.entry(item.rank))
                rebuilt.push_back(word);
        } else {
            rebuilt.push_back(item.word);
        }
    }
    ASSERT_EQ(rebuilt.size(), p.text.size());
    size_t exact = 0;
    for (size_t i = 0; i < rebuilt.size(); ++i) {
        isa::Inst orig = isa::decode(p.text[i]);
        isa::Inst got = isa::decode(rebuilt[i]);
        if (orig.isRelativeBranch()) {
            // Displacement is re-encoded at codeword granularity; all
            // other fields are untouched.
            got.disp = orig.disp;
            got.aa = orig.aa;
        }
        EXPECT_EQ(isa::encode(got), p.text[i]) << "index " << i;
        exact += rebuilt[i] == p.text[i];
    }
    EXPECT_GT(exact, rebuilt.size() / 2);
}

TEST(Engine, FetchStatisticsAreConsistent)
{
    Program p = workloads::buildBenchmark("compress");
    CompressorConfig config;
    CompressedImage image = compressProgram(p, config);

    FetchStats stats;
    ExecResult r = CompressedCpu(image).run(stats);
    EXPECT_GT(stats.itemFetches, 0u);
    EXPECT_GT(stats.codewordFetches, 0u);
    EXPECT_LT(stats.codewordFetches, stats.itemFetches);
    // Every architectural instruction came from a plain fetch or an
    // expansion.
    EXPECT_EQ(r.instCount,
              (stats.itemFetches - stats.codewordFetches) +
                  stats.expandedInsts);
}

TEST(Engine, FarBranchStubExecutesCorrectly)
{
    // A conditional branch spanning a > 4 KiB loop body loses offset
    // range at nibble granularity and must run through the stub.
    std::string src =
        workloads::bigLoopFunction("huge", 3000, 7) +
        "int main() { puti(huge(5)); return 0; }\n";
    Program p = codegen::compile(src);
    ExecResult reference = runProgram(p, 1 << 24);

    CompressorConfig config;
    config.scheme = Scheme::Nibble;
    config.maxEntries = 4680;
    CompressedImage image = compressProgram(p, config);
    ASSERT_GE(image.farBranchExpansions, 1u)
        << "test needs at least one stub to be meaningful";

    ExecResult compressed = runCompressed(image, 1 << 24);
    EXPECT_EQ(compressed.output, reference.output);
    EXPECT_EQ(compressed.exitCode, reference.exitCode);
    // The stub adds instructions, so the dynamic count grows.
    EXPECT_GT(compressed.instCount, reference.instCount);
}

TEST(Engine, JumpTablesRepatchedToCompressedSpace)
{
    Program p = codegen::compile(R"(
        int pick(int x) {
            switch (x) {
              case 0: return 10;
              case 1: return 11;
              case 2: return 12;
              case 3: return 13;
              case 4: return 14;
              case 5: return 15;
              default: return -1;
            }
        }
        int main() {
            int i;
            int acc = 0;
            for (i = -1; i < 8; i = i + 1) acc = acc + pick(i);
            return acc;
        }
    )");
    ASSERT_FALSE(p.codeRelocs.empty());
    ExecResult reference = runProgram(p);

    for (Scheme scheme : allSchemes()) {
        CompressorConfig config;
        config.scheme = scheme;
        CompressedImage image = compressProgram(p, config);

        // The patched slots hold valid compressed-space pointers.
        for (const CodeReloc &reloc : p.codeRelocs) {
            uint32_t pointer =
                (static_cast<uint32_t>(image.data[reloc.dataOffset])
                 << 24) |
                (static_cast<uint32_t>(image.data[reloc.dataOffset + 1])
                 << 16) |
                (static_cast<uint32_t>(image.data[reloc.dataOffset + 2])
                 << 8) |
                static_cast<uint32_t>(image.data[reloc.dataOffset + 3]);
            EXPECT_EQ(pointer, image.codePointer(reloc.targetIndex));
        }
        EXPECT_EQ(runCompressed(image).exitCode, reference.exitCode)
            << schemeName(scheme);
    }
}

TEST(Engine, EntryPointMapsToFirstInstruction)
{
    Program p = workloads::buildBenchmark("compress");
    CompressorConfig config;
    CompressedImage image = compressProgram(p, config);
    EXPECT_EQ(image.entryPointNibble, image.addrMap[p.entryIndex]);
    // _start is instruction 0, so the entry sits at stream offset 0.
    EXPECT_EQ(image.entryPointNibble, 0u);
}


TEST(Engine, MidItemFetchFaults)
{
    Program p = workloads::buildBenchmark("compress");
    CompressorConfig config;
    CompressedImage image = compressProgram(p, config);
    DecompressionEngine engine(image);
    // Nibble offset 1 is inside the first item for every scheme here.
    try {
        engine.itemAt(1);
        FAIL() << "mid-item fetch went unnoticed";
    } catch (const MachineCheckError &error) {
        EXPECT_EQ(error.fault(), MachineFault::MisalignedPc);
        EXPECT_EQ(error.addr(), 1u);
    }
}

TEST(Engine, FetchBeyondTextFaults)
{
    // The dense lookup table covers exactly textNibbles entries; a PC
    // one past the end of the stream must trap, not read out of bounds.
    Program p = workloads::buildBenchmark("compress");
    CompressorConfig config;
    CompressedImage image = compressProgram(p, config);
    DecompressionEngine engine(image);
    try {
        engine.itemAt(static_cast<uint32_t>(image.textNibbles));
        FAIL() << "fetch beyond compressed text went unnoticed";
    } catch (const MachineCheckError &error) {
        EXPECT_EQ(error.fault(), MachineFault::FetchOutOfText);
    }
}

TEST(Engine, DenseIndexAgreesWithStreamScan)
{
    // itemIndexAt answers from a dense nibble->index table instead of a
    // hash map; walking the stream item by item must agree with it at
    // every item head, under every scheme.
    Program p = workloads::buildBenchmark("ijpeg");
    for (Scheme scheme : allSchemes()) {
        CompressorConfig config;
        config.scheme = scheme;
        CompressedImage image = compressProgram(p, config);
        DecompressionEngine engine(image);
        uint32_t index = 0;
        uint32_t nib = 0;
        while (nib < image.textNibbles) {
            ASSERT_EQ(engine.itemIndexAt(nib), index);
            nib += engine.itemAt(nib).nibbles;
            ++index;
        }
    }
}

} // namespace
