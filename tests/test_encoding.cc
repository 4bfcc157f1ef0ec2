/**
 * @file
 * Exhaustive codeword-encoding tests: every rank of every scheme must
 * round-trip through emitCodeword and the shared stream scan
 * (compress/scan.hh), identically to the reference decoder of
 * tests/decode_oracle.hh; codeword sizes must match codewordNibbles;
 * and odd-nibble-count streams must end cleanly at their declared
 * nibble count -- the pad nibble of the final byte is dead, not a
 * phantom rank-0 codeword.
 */

#include <gtest/gtest.h>

#include "compress/encoding.hh"
#include "decode_oracle.hh"
#include "isa/builder.hh"
#include "isa/isa.hh"
#include "support/bitstream.hh"

using namespace codecomp;
using namespace codecomp::compress;
using namespace codecomp::test;

namespace {

/** The shared scan of @p writer's stream against a full-size
 *  dictionary, checked equal to the reference decoder's. */
StreamScan
scanChecked(Scheme scheme, const NibbleWriter &writer, size_t nibbles)
{
    size_t dict_size = schemeParams(scheme).maxCodewords;
    StreamScan fast =
        sharedStreamScan(scheme, writer.bytes(), nibbles, dict_size);
    EXPECT_EQ(fast,
              oracleStreamScan(scheme, writer.bytes(), nibbles, dict_size))
        << schemeCliName(scheme) << " over " << nibbles << " nibbles";
    return fast;
}

StreamScan
scanChecked(Scheme scheme, const NibbleWriter &writer)
{
    return scanChecked(scheme, writer, writer.nibbleCount());
}

class ExhaustiveRoundTrip : public ::testing::TestWithParam<Scheme>
{};

TEST_P(ExhaustiveRoundTrip, EveryRankRoundTripsAlone)
{
    Scheme scheme = GetParam();
    SchemeParams params = schemeParams(scheme);
    for (uint32_t rank = 0; rank < params.maxCodewords; ++rank) {
        NibbleWriter writer;
        emitCodeword(writer, scheme, rank);
        ASSERT_EQ(writer.nibbleCount(), codewordNibbles(scheme, rank))
            << "rank " << rank;

        StreamScan scan = scanChecked(scheme, writer);
        ASSERT_FALSE(scan.fault.has_value()) << "rank " << rank;
        ASSERT_EQ(scan.items.size(), 1u) << "rank " << rank;
        ASSERT_TRUE(scan.items[0].isCodeword) << "rank " << rank;
        ASSERT_EQ(scan.items[0].rank, rank);
        ASSERT_EQ(scan.items[0].nibbles, writer.nibbleCount())
            << "rank " << rank;
    }
}

TEST_P(ExhaustiveRoundTrip, EveryRankRoundTripsInOneStream)
{
    // All ranks concatenated: each item must span exactly its
    // codeword, never bleeding into the next.
    Scheme scheme = GetParam();
    SchemeParams params = schemeParams(scheme);
    NibbleWriter writer;
    for (uint32_t rank = 0; rank < params.maxCodewords; ++rank)
        emitCodeword(writer, scheme, rank);

    StreamScan scan = scanChecked(scheme, writer);
    EXPECT_FALSE(scan.fault.has_value());
    ASSERT_EQ(scan.items.size(), params.maxCodewords);
    uint32_t addr = 0;
    for (uint32_t rank = 0; rank < params.maxCodewords; ++rank) {
        const DecodedItem &item = scan.items[rank];
        ASSERT_TRUE(item.isCodeword) << "rank " << rank;
        ASSERT_EQ(item.rank, rank);
        ASSERT_EQ(item.nibbleAddr, addr) << "rank " << rank;
        addr += item.nibbles;
    }
    EXPECT_EQ(addr, writer.nibbleCount());
}

INSTANTIATE_TEST_SUITE_P(Schemes, ExhaustiveRoundTrip,
                         ::testing::ValuesIn(allSchemes()),
                         [](const auto &info) {
                             return schemeTestName(info.param);
                         });

TEST(OddNibblePadding, DeclaredCountEndsTheStream)
{
    // A single 4-bit codeword occupies one nibble; the backing byte
    // stream still has two. With the explicit count the scan ends after
    // one item -- the pad nibble never reaches the decoder.
    NibbleWriter writer;
    emitCodeword(writer, Scheme::Nibble, 3);
    ASSERT_EQ(writer.nibbleCount(), 1u);
    ASSERT_EQ(writer.sizeBytes(), 1u);

    StreamScan scan = scanChecked(Scheme::Nibble, writer);
    EXPECT_FALSE(scan.fault.has_value());
    ASSERT_EQ(scan.items.size(), 1u);
    EXPECT_EQ(scan.items[0].rank, 3u);
}

TEST(OddNibblePadding, PhantomPadNibbleWouldDecodeAsRankZero)
{
    // The hazard the explicit-count API closes: byte-rounding the
    // count (as a byte-vector constructor must) turns the zero pad
    // nibble into a valid rank-0 codeword under Scheme::Nibble.
    NibbleWriter writer;
    emitCodeword(writer, Scheme::Nibble, 3);
    StreamScan rounded =
        scanChecked(Scheme::Nibble, writer, writer.bytes().size() * 2);
    EXPECT_FALSE(rounded.fault.has_value());
    ASSERT_EQ(rounded.items.size(), 2u);
    EXPECT_EQ(rounded.items[0].rank, 3u);
    // The pad nibble as a codeword: exactly why rounding is unacceptable.
    ASSERT_TRUE(rounded.items[1].isCodeword);
    EXPECT_EQ(rounded.items[1].rank, 0u);
}

TEST(OddNibblePadding, OddMixedStreamConsumesExactCount)
{
    // Codeword sizes 1 and 3 keep the running count odd; an escaped
    // instruction (9 nibbles) keeps it odd again. The scan must land
    // exactly on the declared count.
    NibbleWriter writer;
    std::vector<uint32_t> ranks = {5, 100, 7, 2000, 1};
    emitCodeword(writer, Scheme::Nibble, ranks[0]);
    emitCodeword(writer, Scheme::Nibble, ranks[1]);
    isa::Word word = isa::encode(isa::addi(3, 4, 17));
    emitInstruction(writer, Scheme::Nibble, word);
    emitCodeword(writer, Scheme::Nibble, ranks[2]);
    emitCodeword(writer, Scheme::Nibble, ranks[3]);
    emitCodeword(writer, Scheme::Nibble, ranks[4]);
    ASSERT_EQ(writer.nibbleCount() % 2, 1u);

    StreamScan scan = scanChecked(Scheme::Nibble, writer);
    EXPECT_FALSE(scan.fault.has_value());
    ASSERT_EQ(scan.items.size(), 6u);
    EXPECT_EQ(scan.items[0].rank, ranks[0]);
    EXPECT_EQ(scan.items[1].rank, ranks[1]);
    EXPECT_FALSE(scan.items[2].isCodeword);
    EXPECT_EQ(scan.items[2].word, word);
    EXPECT_EQ(scan.items[3].rank, ranks[2]);
    EXPECT_EQ(scan.items[4].rank, ranks[3]);
    EXPECT_EQ(scan.items[5].rank, ranks[4]);
    EXPECT_EQ(scan.items[5].nibbleAddr + scan.items[5].nibbles,
              writer.nibbleCount());
}

TEST(EscapeBytes, EveryByteClassifiedConsistently)
{
    // The 256-entry classification table must agree with first
    // principles: a byte starts a codeword iff its high six bits are an
    // illegal primary opcode; any other byte starts a raw word.
    for (unsigned value = 0; value < 256; ++value) {
        uint8_t byte = static_cast<uint8_t>(value);
        NibbleWriter writer;
        writer.putNibbles(byte, 2);
        writer.putNibbles(0, 6); // index byte, then the rest of a word
        StreamScan scan = scanChecked(Scheme::Baseline, writer);
        ASSERT_FALSE(scan.items.empty()) << "byte " << value;
        const DecodedItem &first = scan.items[0];
        EXPECT_EQ(first.isCodeword, isa::isIllegalPrimOp(byte >> 2))
            << "byte " << value;
        if (first.isCodeword) {
            EXPECT_EQ(first.rank % 256, 0u); // index byte was zero
        } else {
            EXPECT_EQ(first.word, isa::Word{byte} << 24);
        }
    }

    // Distinctness across all 32 escape bytes x 256 indices is covered
    // by the exhaustive rank round-trip above; here just pin the group
    // arithmetic at the boundaries.
    NibbleWriter writer;
    emitCodeword(writer, Scheme::Baseline, 8191);
    StreamScan scan = scanChecked(Scheme::Baseline, writer);
    ASSERT_EQ(scan.items.size(), 1u);
    EXPECT_EQ(scan.items[0].rank, 8191u);
}

} // namespace
