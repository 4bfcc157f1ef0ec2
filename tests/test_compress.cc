/**
 * @file
 * Tests for the compression core: candidate enumeration, greedy
 * selection (including lazy-heap vs reference equivalence), codeword
 * encodings, layout/branch patching, and full execution equivalence of
 * compressed programs on the CompressedCpu.
 */

#include <gtest/gtest.h>

#include "codegen/codegen.hh"
#include "compress/compressor.hh"
#include "compress/greedy.hh"
#include "compress/objfile.hh"
#include "isa/builder.hh"
#include "decompress/compressed_cpu.hh"
#include "decompress/cpu.hh"
#include "support/rng.hh"
#include "support/thread_pool.hh"
#include "workloads/workloads.hh"

using namespace codecomp;
using namespace codecomp::compress;

namespace {

Program
smallProgram()
{
    return codegen::compile(R"(
        int table[16];
        int fill(int n) {
            int i;
            for (i = 0; i < 16; i = i + 1) table[i] = i * n + 3;
            return table[n & 15];
        }
        int sum() {
            int i;
            int acc = 0;
            for (i = 0; i < 16; i = i + 1) acc = acc + table[i];
            return acc;
        }
        int main() {
            int r = fill(5);
            r = r + fill(9);
            r = r + sum();
            puti(r);
            return r & 127;
        }
    )");
}

// ---------------- candidates ----------------

TEST(Candidates, EligibilityExcludesRelativeBranches)
{
    Program program = smallProgram();
    std::vector<bool> eligible = eligibilityMask(program);
    ASSERT_EQ(eligible.size(), program.text.size());
    for (size_t i = 0; i < program.text.size(); ++i) {
        isa::Inst inst = isa::decode(program.text[i]);
        EXPECT_EQ(eligible[i], !inst.isRelativeBranch()) << "index " << i;
    }
    // Sanity: the program does contain both kinds.
    EXPECT_NE(std::count(eligible.begin(), eligible.end(), false), 0);
    EXPECT_NE(std::count(eligible.begin(), eligible.end(), true), 0);
}

TEST(Candidates, SequencesStayInsideBlocks)
{
    Program program = smallProgram();
    Cfg cfg = Cfg::build(program);
    auto candidates = enumerateCandidates(program, cfg, 1, 4);
    EXPECT_FALSE(candidates.empty());
    for (const Candidate &cand : candidates) {
        std::span<const isa::Word> seq = candidates.sequenceOf(cand);
        for (uint32_t pos : candidates.positionsOf(cand)) {
            uint32_t block = cfg.blockOf(pos);
            EXPECT_EQ(cfg.blockOf(pos + cand.len - 1), block);
            // Occurrence content matches the candidate key.
            for (size_t k = 0; k < seq.size(); ++k)
                EXPECT_EQ(program.text[pos + k], seq[k]);
        }
    }
}

TEST(Candidates, CountNonOverlapping)
{
    // Positions 0,1,2,10 with length 2: 0 and 2 overlap 1; max is 0,2,10.
    std::vector<uint32_t> pos = {0, 1, 2, 10};
    EXPECT_EQ(countNonOverlapping(pos, 2, {}), 3u);
    EXPECT_EQ(countNonOverlapping(pos, 1, {}), 4u);
    EXPECT_EQ(countNonOverlapping(pos, 9, {}), 2u);

    std::vector<bool> consumed(16, false);
    consumed[11] = true; // kills the occurrence at 10 for length 2
    EXPECT_EQ(countNonOverlapping(pos, 2, consumed), 2u);
}

// ---------------- greedy ----------------

TEST(Greedy, SavingsModel)
{
    GreedyConfig config; // 8 insn nibbles, 4 codeword nibbles, 8 dict
    // One occurrence of a single instruction: 8 - 4 - 8 < 0.
    EXPECT_LT(savingsNibbles(config, 1, 1), 0);
    // Three occurrences: 3*4 - 8 > 0.
    EXPECT_GT(savingsNibbles(config, 1, 3), 0);
    // Long sequences save more per occurrence.
    EXPECT_GT(savingsNibbles(config, 4, 2), savingsNibbles(config, 1, 2));
}

TEST(Greedy, PlacementsAreValid)
{
    Program program = smallProgram();
    GreedyConfig config;
    config.maxEntries = 64;
    SelectionResult sel = selectGreedy(program, config);
    EXPECT_FALSE(sel.dict.entries.empty());
    ASSERT_EQ(sel.useCount.size(), sel.dict.entries.size());

    std::vector<bool> covered(program.text.size(), false);
    std::vector<uint32_t> uses(sel.dict.entries.size(), 0);
    for (const Placement &p : sel.placements) {
        ASSERT_LT(p.entryId, sel.dict.entries.size());
        const auto &entry = sel.dict.entries[p.entryId];
        ASSERT_EQ(entry.size(), p.length);
        for (uint32_t k = 0; k < p.length; ++k) {
            EXPECT_EQ(program.text[p.start + k], entry[k]);
            EXPECT_FALSE(covered[p.start + k]) << "overlap at "
                                               << p.start + k;
            covered[p.start + k] = true;
        }
        ++uses[p.entryId];
    }
    EXPECT_EQ(uses, sel.useCount);
}

TEST(Greedy, LazyHeapMatchesReference)
{
    // The lazy heap must be *exactly* the greedy algorithm, not an
    // approximation (DESIGN.md section 5.2).
    Program program = smallProgram();
    for (uint32_t max_len : {1u, 2u, 4u, 8u}) {
        GreedyConfig config;
        config.maxEntries = 128;
        config.maxEntryLen = max_len;
        SelectionResult fast = selectGreedy(program, config);
        SelectionResult slow = selectGreedyReference(program, config);
        EXPECT_EQ(fast.dict.entries, slow.dict.entries)
            << "maxEntryLen=" << max_len;
        EXPECT_EQ(fast.placements, slow.placements);
        EXPECT_EQ(fast.useCount, slow.useCount);
    }
}

TEST(Greedy, StaleHeapReevaluationMatchesReference)
{
    // Dense prefix/suffix overlap between candidates: accepting any
    // top candidate destroys occurrences of many others, so the heap
    // repeatedly pops entries with stale cached savings and must
    // re-evaluate and re-push them. The lazy heap and the from-scratch
    // reference must still agree exactly, and acceptance (which shares
    // forEachNonOverlapping with re-evaluation) must never trip the
    // "no live occurrences" assert.
    Program program = workloads::buildBenchmark("compress");
    for (uint32_t max_len : {2u, 4u, 8u}) {
        GreedyConfig config;
        config.maxEntries = 48;
        config.maxEntryLen = max_len;
        SelectionResult fast = selectGreedy(program, config);
        SelectionResult slow = selectGreedyReference(program, config);
        EXPECT_EQ(fast.dict.entries, slow.dict.entries)
            << "maxEntryLen=" << max_len;
        EXPECT_EQ(fast.placements, slow.placements);
        EXPECT_EQ(fast.useCount, slow.useCount);
    }
}

TEST(Greedy, RespectsEntryBudget)
{
    Program program = workloads::buildBenchmark("compress");
    GreedyConfig config;
    config.maxEntries = 16;
    SelectionResult sel = selectGreedy(program, config);
    EXPECT_LE(sel.dict.entries.size(), 16u);
    EXPECT_EQ(sel.dict.entries.size(), 16u); // plenty of candidates exist
}

TEST(Greedy, RespectsLengthLimit)
{
    Program program = workloads::buildBenchmark("compress");
    GreedyConfig config;
    config.maxEntries = 256;
    config.maxEntryLen = 2;
    SelectionResult sel = selectGreedy(program, config);
    for (const auto &entry : sel.dict.entries)
        EXPECT_LE(entry.size(), 2u);
}

// ---------------- encodings ----------------

TEST(Encoding, SchemeParameters)
{
    EXPECT_EQ(schemeParams(Scheme::Baseline).maxCodewords, 8192u);
    EXPECT_EQ(schemeParams(Scheme::OneByte).maxCodewords, 32u);
    EXPECT_EQ(schemeParams(Scheme::Nibble).maxCodewords, 4680u);
    EXPECT_EQ(schemeParams(Scheme::Baseline).unitNibbles, 4u);
    EXPECT_EQ(schemeParams(Scheme::OneByte).unitNibbles, 2u);
    EXPECT_EQ(schemeParams(Scheme::Nibble).unitNibbles, 1u);
}

TEST(Encoding, NibbleCodewordLengthsByRank)
{
    EXPECT_EQ(codewordNibbles(Scheme::Nibble, 0), 1u);
    EXPECT_EQ(codewordNibbles(Scheme::Nibble, 7), 1u);
    EXPECT_EQ(codewordNibbles(Scheme::Nibble, 8), 2u);
    EXPECT_EQ(codewordNibbles(Scheme::Nibble, 71), 2u);
    EXPECT_EQ(codewordNibbles(Scheme::Nibble, 72), 3u);
    EXPECT_EQ(codewordNibbles(Scheme::Nibble, 583), 3u);
    EXPECT_EQ(codewordNibbles(Scheme::Nibble, 584), 4u);
    EXPECT_EQ(codewordNibbles(Scheme::Nibble, 4679), 4u);
}

class EncodingRoundTrip : public ::testing::TestWithParam<Scheme>
{};

TEST_P(EncodingRoundTrip, MixedStreamDecodes)
{
    Scheme scheme = GetParam();
    SchemeParams params = schemeParams(scheme);
    Rng rng(7);

    // Random interleaving of codewords and instructions.
    std::vector<std::optional<uint32_t>> expected;
    NibbleWriter writer;
    for (int i = 0; i < 500; ++i) {
        if (rng.chance(1, 2)) {
            uint32_t rank =
                static_cast<uint32_t>(rng.below(params.maxCodewords));
            emitCodeword(writer, scheme, rank);
            expected.push_back(rank);
        } else {
            isa::Word word = isa::encode(
                isa::addi(static_cast<uint8_t>(rng.below(32)),
                          static_cast<uint8_t>(rng.below(32)),
                          static_cast<int32_t>(rng.range(-100, 100))));
            emitInstruction(writer, scheme, word);
            expected.push_back(std::nullopt);
        }
    }

    NibbleReader reader(writer.bytes().data(), writer.nibbleCount());
    for (const auto &want : expected) {
        auto got = decodeCodeword(reader, scheme);
        EXPECT_EQ(got.has_value(), want.has_value());
        if (want && got) {
            EXPECT_EQ(*got, *want);
        } else if (!want) {
            reader.getWord(); // consume the instruction
        }
    }
    EXPECT_TRUE(reader.atEnd());
}

INSTANTIATE_TEST_SUITE_P(Schemes, EncodingRoundTrip,
                         ::testing::ValuesIn(allSchemes()),
                         [](const auto &info) {
                             return schemeTestName(info.param);
                         });

TEST(Encoding, BaselineEscapeBytesUseIllegalOpcodes)
{
    // Every codeword's first byte must decode as an illegal opcode and
    // every legal instruction's first byte must not (the paper's
    // backward-compatibility property, section 4.1).
    for (uint32_t rank : {0u, 255u, 256u, 4095u, 8191u}) {
        NibbleWriter writer;
        emitCodeword(writer, Scheme::Baseline, rank);
        uint8_t first = writer.bytes()[0];
        EXPECT_TRUE(isa::isIllegalPrimOp(first >> 2)) << rank;
    }
}

// ---------------- end-to-end compression ----------------

TEST(Compressor, SmallProgramShrinksAndRuns)
{
    Program program = smallProgram();
    ExecResult original = runProgram(program);

    CompressorConfig config;
    CompressedImage image = compressProgram(program, config);

    EXPECT_LT(image.compressionRatio(), 1.0);
    EXPECT_GT(image.compressionRatio(), 0.2);
    EXPECT_EQ(image.originalTextBytes, program.textBytes());

    ExecResult compressed = runCompressed(image);
    EXPECT_EQ(compressed.output, original.output);
    EXPECT_EQ(compressed.exitCode, original.exitCode);
}

TEST(Compressor, CompositionSumsToImageSize)
{
    Program program = workloads::buildBenchmark("compress");
    for (Scheme scheme : allSchemes()) {
        CompressorConfig config;
        config.scheme = scheme;
        CompressedImage image = compressProgram(program, config);
        EXPECT_EQ(image.composition.totalNibbles(),
                  image.textNibbles + image.dictionaryBytes() * 2)
            << schemeName(scheme);
        if (scheme == Scheme::Baseline) {
            // 2-byte codewords: escape and index bytes are equal.
            EXPECT_EQ(image.composition.escapeNibbles,
                      image.composition.codewordNibbles);
        }
    }
}

TEST(Compressor, AddressMapIsMonotoneAndComplete)
{
    Program program = workloads::buildBenchmark("li");
    CompressorConfig config;
    CompressedImage image = compressProgram(program, config);

    // Every branch target and jump-table target resolves.
    for (uint32_t i = 0; i < program.text.size(); ++i) {
        isa::Inst inst = isa::decode(program.text[i]);
        if (inst.isRelativeBranch()) {
            EXPECT_TRUE(
                image.addrMap.count(program.branchTargetIndex(i)));
        }
    }
    for (const CodeReloc &reloc : program.codeRelocs) {
        EXPECT_TRUE(image.addrMap.count(reloc.targetIndex));
    }

    // Monotone in original index.
    uint32_t prev = 0;
    bool first = true;
    for (uint32_t i = 0; i < program.text.size(); ++i) {
        auto it = image.addrMap.find(i);
        if (it == image.addrMap.end())
            continue;
        if (!first) {
            EXPECT_GT(it->second, prev) << "at index " << i;
        }
        prev = it->second;
        first = false;
    }
}

TEST(Compressor, MoreCodewordsNeverHurt)
{
    Program program = workloads::buildBenchmark("ijpeg");
    double prev_ratio = 1.0;
    for (uint32_t budget : {16u, 64u, 256u, 1024u, 8192u}) {
        CompressorConfig config;
        config.maxEntries = budget;
        CompressedImage image = compressProgram(program, config);
        EXPECT_LE(image.compressionRatio(), prev_ratio + 1e-9)
            << "budget " << budget;
        prev_ratio = image.compressionRatio();
    }
    EXPECT_LT(prev_ratio, 0.85); // meaningful compression at 8192
}

// ---------------- parallel determinism ----------------

TEST(Candidates, EnumerationIdenticalAcrossJobCounts)
{
    Program program = workloads::buildBenchmark("compress");
    Cfg cfg = Cfg::build(program);
    setGlobalJobs(1);
    auto serial = enumerateCandidates(program, cfg, 1, 4);
    for (unsigned jobs : {2u, 3u, 8u}) {
        setGlobalJobs(jobs);
        auto parallel = enumerateCandidates(program, cfg, 1, 4);
        EXPECT_TRUE(parallel == serial) << "jobs " << jobs;
    }
    setGlobalJobs(0);
}

TEST(Compressor, ImageBitIdenticalAcrossJobCounts)
{
    // The determinism contract of the parallel pipeline: for every
    // scheme, --jobs 1/2/8 must produce byte-for-byte identical
    // compressed images, down to the serialized .cci file.
    Program program = workloads::buildBenchmark("li");
    for (Scheme scheme : allSchemes()) {
        CompressorConfig config;
        config.scheme = scheme;
        setGlobalJobs(1);
        CompressedImage serial = compressProgram(program, config);
        std::vector<uint8_t> serialBytes = saveImage(serial);
        for (unsigned jobs : {2u, 8u}) {
            setGlobalJobs(jobs);
            CompressedImage parallel = compressProgram(program, config);
            EXPECT_EQ(parallel.text, serial.text)
                << schemeName(scheme) << " jobs " << jobs;
            EXPECT_EQ(parallel.textNibbles, serial.textNibbles);
            EXPECT_EQ(parallel.entriesByRank, serial.entriesByRank);
            EXPECT_EQ(parallel.data, serial.data);
            EXPECT_EQ(parallel.entryPointNibble,
                      serial.entryPointNibble);
            EXPECT_EQ(saveImage(parallel), serialBytes)
                << schemeName(scheme) << " jobs " << jobs;
        }
    }
    setGlobalJobs(0);
}

/** Every benchmark x every scheme: compressed execution must match. */
class CompressedExecution
    : public ::testing::TestWithParam<std::tuple<std::string, Scheme>>
{};

TEST_P(CompressedExecution, MatchesOriginal)
{
    const auto &[name, scheme] = GetParam();
    Program program = workloads::buildBenchmark(name);
    ExecResult original = runProgram(program);

    CompressorConfig config;
    config.scheme = scheme;
    CompressedImage image = compressProgram(program, config);
    EXPECT_LT(image.compressionRatio(), 1.0) << "no compression achieved";

    ExecResult compressed = runCompressed(image);
    EXPECT_EQ(compressed.output, original.output);
    EXPECT_EQ(compressed.exitCode, original.exitCode);
    // Without far-branch stubs the dynamic instruction streams are
    // identical, down to the count.
    if (image.farBranchExpansions == 0)
        EXPECT_EQ(compressed.instCount, original.instCount);
    else
        EXPECT_GE(compressed.instCount, original.instCount);
}

INSTANTIATE_TEST_SUITE_P(
    Suite, CompressedExecution,
    ::testing::Combine(::testing::Values("compress", "li", "ijpeg", "go"),
                       ::testing::ValuesIn(allSchemes())),
    [](const auto &info) {
        return std::get<0>(info.param) + std::string("_") +
               schemeTestName(std::get<1>(info.param));
    });

} // namespace
