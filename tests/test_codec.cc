/**
 * @file
 * Invariants of the scheme-codec registry (compress/codec.hh): every
 * registered codec round-trips emit -> decode over its full rank range
 * through the shared stream scan driven by its decode tables and
 * through the reference decoder of tests/decode_oracle.hh, its CLI name
 * parses back to itself, its tables agree with the reference for every
 * prefix value and truncation,
 * and its dictionary serialization inverts exactly. Plus the
 * operand-factored backend's own algebra: factor/fuse bijection,
 * canonical-form enforcement, and rejection of malformed factored
 * payloads.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "compress/codec.hh"
#include "compress/compressor.hh"
#include "compress/objfile.hh"
#include "compress/opfac.hh"
#include "decode_oracle.hh"
#include "isa/builder.hh"
#include "isa/inst.hh"
#include "support/bitstream.hh"
#include "support/rng.hh"
#include "support/serialize.hh"
#include "workloads/workloads.hh"

using namespace codecomp;
using namespace codecomp::compress;

namespace {

// ---------------- registry shape ----------------

TEST(CodecRegistry, EnumOrderUniqueIdsAndLookup)
{
    const std::vector<const SchemeCodec *> &codecs = allCodecs();
    ASSERT_FALSE(codecs.empty());
    std::set<uint8_t> ids;
    for (size_t i = 0; i < codecs.size(); ++i) {
        // Registry order mirrors the enum, with no gaps or duplicates.
        EXPECT_EQ(static_cast<size_t>(codecs[i]->id()), i);
        EXPECT_TRUE(ids.insert(static_cast<uint8_t>(codecs[i]->id())).second);
        EXPECT_EQ(&schemeCodec(codecs[i]->id()), codecs[i]);
        EXPECT_EQ(findSchemeCodec(static_cast<uint8_t>(codecs[i]->id())),
                  codecs[i]);
    }
    EXPECT_EQ(findSchemeCodec(static_cast<uint8_t>(codecs.size())),
              nullptr);
    EXPECT_EQ(findSchemeCodec(0xff), nullptr);
    EXPECT_EQ(allSchemes().size(), codecs.size());
}

TEST(CodecRegistry, CliNameParseIsABijection)
{
    std::set<std::string> names;
    for (const SchemeCodec *codec : allCodecs()) {
        std::string name = codec->cliName();
        EXPECT_TRUE(names.insert(name).second) << name << " duplicated";
        auto parsed = parseSchemeName(name);
        ASSERT_TRUE(parsed.has_value()) << name;
        EXPECT_EQ(*parsed, codec->id());
        EXPECT_EQ(schemeCliName(codec->id()), std::string(name));
        // Test labels must be gtest identifiers.
        std::string label = schemeTestName(codec->id());
        EXPECT_FALSE(label.empty());
        for (char c : label)
            EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)))
                << label;
    }
    EXPECT_FALSE(parseSchemeName("no-such-scheme").has_value());
    EXPECT_FALSE(parseSchemeName("").has_value());
    // The joined list mentions every name once.
    std::string joined = schemeCliNames(",");
    for (const std::string &name : names)
        EXPECT_NE(joined.find(name), std::string::npos) << name;
}

// ---------------- per-codec invariants ----------------

class CodecInvariants : public ::testing::TestWithParam<Scheme>
{
  protected:
    const SchemeCodec &codec() const { return schemeCodec(GetParam()); }
};

TEST_P(CodecInvariants, EveryRankRoundTripsOnBothDecodePaths)
{
    const SchemeCodec &c = codec();
    SchemeParams params = c.params();
    NibbleWriter writer;
    for (uint32_t rank = 0; rank < params.maxCodewords; ++rank) {
        size_t before = writer.nibbleCount();
        c.emitCodeword(writer, rank);
        ASSERT_EQ(writer.nibbleCount() - before, c.codewordNibbles(rank))
            << "rank " << rank;
    }

    test::StreamScan table = test::sharedStreamScan(
        c.id(), writer.bytes(), writer.nibbleCount(), params.maxCodewords);
    ASSERT_EQ(table,
              test::oracleStreamScan(c.id(), writer.bytes(),
                                     writer.nibbleCount(),
                                     params.maxCodewords));
    EXPECT_FALSE(table.fault.has_value());
    ASSERT_EQ(table.items.size(), params.maxCodewords);
    for (uint32_t rank = 0; rank < params.maxCodewords; ++rank) {
        const DecodedItem &item = table.items[rank];
        ASSERT_TRUE(item.isCodeword) << "rank " << rank;
        EXPECT_EQ(item.rank, rank);
        EXPECT_EQ(item.nibbles, c.codewordNibbles(rank)) << "rank " << rank;
    }
}

TEST_P(CodecInvariants, InstructionsSurviveBothDecodePaths)
{
    const SchemeCodec &c = codec();
    const isa::Word words[] = {
        isa::encode(isa::li(3, 1)),     isa::encode(isa::addi(3, 3, 1)),
        isa::encode(isa::lis(4, -2)),   isa::encode(isa::ori(4, 4, 6)),
        isa::encode(isa::mtlr(4)),      isa::encode(isa::sc()),
    };
    NibbleWriter writer;
    for (isa::Word word : words)
        c.emitInstruction(writer, word);

    unsigned dict_size = c.params().maxCodewords;
    test::StreamScan table = test::sharedStreamScan(
        c.id(), writer.bytes(), writer.nibbleCount(), dict_size);
    ASSERT_EQ(table, test::oracleStreamScan(c.id(), writer.bytes(),
                                            writer.nibbleCount(),
                                            dict_size));
    EXPECT_FALSE(table.fault.has_value());
    ASSERT_EQ(table.items.size(), std::size(words));
    for (size_t k = 0; k < std::size(words); ++k) {
        EXPECT_FALSE(table.items[k].isCodeword);
        EXPECT_EQ(table.items[k].word, words[k]);
        EXPECT_EQ(table.items[k].nibbles, c.params().insnNibbles);
    }
}

TEST_P(CodecInvariants, TablesAgreeWithReferencePeekForEveryPrefix)
{
    // Feed both decoders every possible value of the prefix nibbles
    // followed by a fixed pattern: the table-driven scan must match the
    // cascaded-branch reference exactly, item for item and fault for
    // fault, for every prefix value and for truncated streams.
    const SchemeCodec &c = codec();
    const DecodeTables &tables = c.tables();
    unsigned dict_size = c.params().maxCodewords;
    unsigned prefixValues = 1u << (4 * tables.prefixNibbles);
    for (unsigned value = 0; value < prefixValues; ++value) {
        NibbleWriter writer;
        for (unsigned n = tables.prefixNibbles; n > 0; --n)
            writer.putNibble((value >> (4 * (n - 1))) & 0xf);
        for (unsigned pad = 0; pad < 12; ++pad)
            writer.putNibble((pad * 5 + 3) & 0xf);

        test::StreamScan full = test::sharedStreamScan(
            c.id(), writer.bytes(), writer.nibbleCount(), dict_size);
        ASSERT_EQ(full, test::oracleStreamScan(c.id(), writer.bytes(),
                                               writer.nibbleCount(),
                                               dict_size))
            << "prefix " << value;
        // Every item fits in the prefix plus 12 nibbles.
        ASSERT_FALSE(full.items.empty()) << "prefix " << value;
        EXPECT_EQ(full.items[0].nibbles, tables.classes[value].nibbles)
            << "prefix " << value;

        // Every truncation point: the two decoders must agree on the
        // items that fit and on where the stream stops fitting.
        for (unsigned len = 0; len < writer.nibbleCount(); ++len) {
            ASSERT_EQ(test::sharedStreamScan(c.id(), writer.bytes(), len,
                                             dict_size),
                      test::oracleStreamScan(c.id(), writer.bytes(), len,
                                             dict_size))
                << "prefix " << value << " len " << len;
        }
    }
}

TEST_P(CodecInvariants, AccountingSumsMatchItemWidths)
{
    const SchemeCodec &c = codec();
    EmitAccounting insn = c.instructionAccounting();
    EXPECT_EQ(insn.insnNibbles + insn.escapeNibbles + insn.codewordNibbles,
              c.params().insnNibbles);
    for (uint32_t rank : {0u, 1u, c.params().maxCodewords - 1}) {
        EmitAccounting cw = c.codewordAccounting(rank);
        EXPECT_EQ(cw.insnNibbles + cw.escapeNibbles + cw.codewordNibbles,
                  c.codewordNibbles(rank))
            << "rank " << rank;
    }
}

TEST_P(CodecInvariants, DictionarySerializationInverts)
{
    const SchemeCodec &c = codec();
    std::vector<DictEntry> entries = {
        {isa::encode(isa::li(3, 0))},
        {isa::encode(isa::addi(1, 1, -16)), isa::encode(isa::stw(0, 20, 1))},
        {isa::encode(isa::mtlr(0)), isa::encode(isa::ori(9, 9, 0xff)),
         isa::encode(isa::lwz(0, 20, 1))},
        {isa::encode(isa::cmpi(0, 3, 7))},
    };
    ByteSink sink;
    c.putDictionary(sink, entries);
    // dictionaryBytes prices the dictionary's ROM payload; the
    // serialized form may add structural framing (entry boundaries,
    // table counts) on top, but never less than the ROM cost.
    EXPECT_LE(c.dictionaryBytes(entries), sink.bytes().size());

    std::vector<uint8_t> bytes = sink.take();
    ByteSource source(bytes);
    std::vector<DictEntry> loaded;
    auto error = c.getDictionary(
        source, static_cast<uint32_t>(entries.size()), 64, loaded);
    ASSERT_FALSE(error.has_value()) << *error;
    EXPECT_EQ(loaded, entries);
    EXPECT_EQ(source.remaining(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Registry, CodecInvariants,
                         ::testing::ValuesIn(allSchemes()),
                         [](const auto &info) {
                             return schemeTestName(info.param);
                         });

// ---------------- operand factoring algebra ----------------

TEST(OperandFactoredAlgebra, FactorFuseIsABijectionOverRandomWords)
{
    // Structured words covering every field geometry, then a random
    // sweep (including illegal opcodes, which factor as all-skeleton).
    std::vector<isa::Word> words = {
        isa::encode(isa::addi(31, 1, -32768)),
        isa::encode(isa::lis(0, 32767)),
        isa::encode(isa::lwz(12, 4, 31)),
        isa::encode(isa::stb(5, -1, 6)),
        isa::encode(isa::rlwinm(7, 8, 31, 0, 31)),
        isa::encode(isa::add(3, 4, 5)),
        isa::encode(isa::mtlr(9)),
        isa::encode(isa::blr()),
        isa::encode(isa::sc()),
        isa::encode(isa::b(-4)),
        0x00000000u,
        0xffffffffu,
    };
    Rng rng(0x0f5eedu);
    for (int i = 0; i < 5000; ++i)
        words.push_back(static_cast<isa::Word>(rng.next()));

    for (isa::Word word : words) {
        FactoredWord factored = factorWord(word);
        EXPECT_EQ(fuseWord(factored), word) << std::hex << word;
        EXPECT_TRUE(isCanonicalFactoring(factored)) << std::hex << word;
        // The three streams partition the word: no operand bits remain
        // in the skeleton.
        OperandFields fields = operandFields(isa::primOpOf(word));
        EXPECT_EQ(factored.skeleton &
                      (fields.regMask() | fields.immMask()),
                  0u)
            << std::hex << word;
    }
}

TEST(OperandFactoredAlgebra, NonCanonicalTriplesAreRejected)
{
    // Skeleton carrying operand bits.
    FactoredWord bad = factorWord(isa::encode(isa::addi(3, 4, 5)));
    bad.skeleton |= 1u << 21; // an rt bit
    EXPECT_FALSE(isCanonicalFactoring(bad));

    // Register tuple wider than the format's block.
    FactoredWord wideRegs = factorWord(isa::encode(isa::addi(3, 4, 5)));
    wideRegs.regs = 1u << 10; // D-forms have a 10-bit block
    EXPECT_FALSE(isCanonicalFactoring(wideRegs));

    // Immediate wider than the field.
    FactoredWord wideImm = factorWord(isa::encode(isa::addi(3, 4, 5)));
    wideImm.imm = 1u << 16;
    EXPECT_FALSE(isCanonicalFactoring(wideImm));
}

// ---------------- factored dictionary hardening ----------------

/** Serialize entries with the operand-factored codec, then hand the
 *  mutated bytes back to getDictionary. */
std::optional<std::string>
loadFactored(std::vector<uint8_t> bytes, uint32_t entryCount)
{
    ByteSource source(bytes);
    std::vector<DictEntry> loaded;
    return operandFactoredCodec().getDictionary(source, entryCount, 64,
                                                loaded);
}

TEST(OperandFactoredDictionary, MalformedPayloadsAreRejected)
{
    std::vector<DictEntry> entries = {
        {isa::encode(isa::addi(1, 1, -16)), isa::encode(isa::stw(0, 20, 1))},
        {isa::encode(isa::add(3, 4, 5))},
    };
    ByteSink sink;
    operandFactoredCodec().putDictionary(sink, entries);
    std::vector<uint8_t> good = sink.take();
    {
        // Sanity: the untouched payload loads.
        EXPECT_FALSE(loadFactored(good, 2).has_value());
    }
    {
        // Skeleton 0 with an operand bit set is not canonical. The
        // first skeleton word (addi's) starts at byte 4, after the u32
        // table count; its rt field occupies bits 21..25.
        std::vector<uint8_t> bad = good;
        bad[4] |= 0x02; // bit 25 of the first skeleton word
        EXPECT_TRUE(loadFactored(bad, 2).has_value());
    }
    {
        // A duplicated skeleton table entry is not canonical.
        ByteSink craft;
        craft.put32(2);
        craft.put32(isa::encode(isa::sc()));
        craft.put32(isa::encode(isa::sc()));
        craft.put8(1);
        EXPECT_TRUE(loadFactored(craft.take(), 1).has_value());
    }
    {
        // A zero entry length is outside 1..maxEntryWords.
        ByteSink craft;
        craft.put32(0); // skeletons
        craft.put8(0);  // entry length 0
        EXPECT_TRUE(loadFactored(craft.take(), 1).has_value());
    }
    {
        // Words but no skeleton table to index.
        ByteSink craft;
        craft.put32(0);
        craft.put8(1);
        EXPECT_TRUE(loadFactored(craft.take(), 1).has_value());
    }
    {
        // Skeleton index beyond the declared table: three skeletons
        // need 2 index bits, so index 3 is representable but invalid.
        ByteSink craft;
        craft.put32(3);
        craft.put32(isa::encode(isa::sc()));         // all-skeleton
        craft.put32(isa::encode(isa::add(0, 0, 0))); // Op31, regs zero
        craft.put32(isa::encode(isa::b(0)));         // B, disp zero
        craft.put8(1);  // one 1-word entry
        craft.put8(0xc0); // bit-packed skeleton index 3
        EXPECT_TRUE(loadFactored(craft.take(), 1).has_value());
    }
    {
        // Nonzero pad bits after the word stream: a single Op31
        // skeleton makes the index 0 bits wide, so one word is 15 raw
        // register bits and the 16th bit is pad -- which must be zero.
        ByteSink craft;
        craft.put32(1);
        craft.put32(isa::encode(isa::add(0, 0, 0)));
        craft.put8(1);
        craft.put8(0xff);
        craft.put8(0xff); // low bit = nonzero pad
        EXPECT_TRUE(loadFactored(craft.take(), 1).has_value());

        ByteSink ok;
        ok.put32(1);
        ok.put32(isa::encode(isa::add(0, 0, 0)));
        ok.put8(1);
        ok.put8(0xff);
        ok.put8(0xfe); // same word, zero pad: loads
        EXPECT_FALSE(loadFactored(ok.take(), 1).has_value());
    }
    {
        // Declared skeleton count that overruns the payload.
        ByteSink craft;
        craft.put32(0x40000000);
        EXPECT_TRUE(loadFactored(craft.take(), 1).has_value());
    }
}

TEST(OperandFactoredDictionary, FactoredFormIsSmallerOnRealSelections)
{
    // The point of the backend: on a real workload's dictionary the
    // factored serialization undercuts the flat 4-bytes-per-word form.
    Program program = workloads::buildBenchmark("compress");
    CompressorConfig config;
    config.scheme = Scheme::OperandFactored;
    CompressedImage image = compressProgram(program, config);
    ASSERT_FALSE(image.entriesByRank.empty());

    size_t words = 0;
    for (const DictEntry &entry : image.entriesByRank)
        words += entry.size();
    size_t flat = words * isa::instBytes;
    EXPECT_LT(image.dictionaryBytes(), flat)
        << "factored dictionary should beat the flat layout";

    // The ROM price is the serialized form minus structural metadata
    // (the u32 skeleton count and one length byte per entry) -- exact
    // by construction, not a parallel formula.
    ByteSink sink;
    operandFactoredCodec().putDictionary(sink, image.entriesByRank);
    EXPECT_EQ(image.dictionaryBytes(),
              sink.bytes().size() - 4 - image.entriesByRank.size());

    // And the serialized image must survive a save/load round trip
    // bit-exactly (the container re-serializes the dictionary).
    std::vector<uint8_t> bytes = saveImage(image);
    Result<CompressedImage> loaded = tryLoadImage(bytes);
    ASSERT_TRUE(loaded.ok()) << loaded.error().message();
    EXPECT_EQ(loaded.value().entriesByRank, image.entriesByRank);
    EXPECT_EQ(saveImage(loaded.value()), bytes);
}

} // namespace
