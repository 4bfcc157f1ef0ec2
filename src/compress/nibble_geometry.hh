/**
 * @file
 * The 4/8/12/16-bit nibble-aligned codeword geometry of paper
 * Figure 10, factored out of the nibble codec so stream-compatible
 * backends (the operand-factored codec) can reuse it: first-nibble
 * classes 0-7 -> 4-bit codeword (8 ranks), 8-11 -> 8-bit (64),
 * 12-13 -> 12-bit (512), 14 -> 16-bit (4096), 15 -> escape preceding
 * an uncompressed 32-bit instruction; 4680 codewords total.
 *
 * Everything here is geometry only -- what the codewords look like on
 * the stream. What a rank *means* (which dictionary, how it is stored)
 * stays with the codec that embeds this header.
 */

#ifndef CODECOMP_COMPRESS_NIBBLE_GEOMETRY_HH
#define CODECOMP_COMPRESS_NIBBLE_GEOMETRY_HH

#include "compress/codec.hh"
#include "support/logging.hh"

namespace codecomp::compress::nibgeom {

/** Rank boundaries of the codeword classes. */
constexpr uint32_t class4Count = 8;
constexpr uint32_t class8Count = 4 * 16;    // first nibble 8..11
constexpr uint32_t class12Count = 2 * 256;  // first nibble 12..13
constexpr uint32_t class16Count = 1 * 4096; // first nibble 14
constexpr uint32_t totalCodewords =
    class4Count + class8Count + class12Count + class16Count; // 4680
constexpr uint8_t escapeNibble = 15;

/** The first nibble alone classifies the item (Figure 10); entries
 *  16..255 are unreachable (a 1-nibble prefix can only index 0..15).
 *  @p insnNibbles is the full escaped-instruction item length (9). */
constexpr DecodeTables
buildTables(uint8_t insnNibbles)
{
    DecodeTables tables{};
    tables.prefixNibbles = 1;
    for (uint32_t n0 = 0; n0 < 16; ++n0) {
        ItemClass &cls = tables.classes[n0];
        if (n0 < 8) {
            cls = {1, 1, 0, n0};
        } else if (n0 < 12) {
            cls = {2, 1, 1, class4Count + (n0 - 8) * 16};
        } else if (n0 < 14) {
            cls = {3, 1, 2, class4Count + class8Count + (n0 - 12) * 256};
        } else if (n0 == 14) {
            cls = {4, 1, 3, class4Count + class8Count + class12Count};
        } else {
            // Escape: an 8-nibble instruction follows the nibble; the
            // item's last 8 nibbles are the word.
            cls = {insnNibbles, 0, 0, 0};
        }
    }
    return tables;
}

inline unsigned
codewordNibbles(uint32_t rank)
{
    if (rank < class4Count)
        return 1;
    if (rank < class4Count + class8Count)
        return 2;
    if (rank < class4Count + class8Count + class12Count)
        return 3;
    CC_ASSERT(rank < totalCodewords, "nibble-class rank range");
    return 4;
}

inline void
emitCodeword(NibbleWriter &writer, uint32_t rank)
{
    if (rank < class4Count) {
        writer.putNibble(static_cast<uint8_t>(rank));
        return;
    }
    if (rank < class4Count + class8Count) {
        uint32_t v = rank - class4Count;
        writer.putNibble(static_cast<uint8_t>(8 + v / 16));
        writer.putNibble(static_cast<uint8_t>(v % 16));
        return;
    }
    if (rank < class4Count + class8Count + class12Count) {
        uint32_t v = rank - class4Count - class8Count;
        writer.putNibble(static_cast<uint8_t>(12 + v / 256));
        writer.putNibbles(v % 256, 2);
        return;
    }
    CC_ASSERT(rank < totalCodewords, "nibble-class rank range");
    uint32_t v = rank - class4Count - class8Count - class12Count;
    writer.putNibble(14);
    writer.putNibbles(v, 3);
}

inline void
emitInstruction(NibbleWriter &writer, isa::Word word)
{
    writer.putNibble(escapeNibble);
    writer.putWord(word);
}

} // namespace codecomp::compress::nibgeom

#endif // CODECOMP_COMPRESS_NIBBLE_GEOMETRY_HH
