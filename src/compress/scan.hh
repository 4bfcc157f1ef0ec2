/**
 * @file
 * The compressed-stream scan: the one loop that walks a nibble stream
 * item by item (DESIGN.md section 10.2). The decompression engine builds
 * its item table with it and the loader's validateImage checks every
 * item with it, so the two cannot disagree about where an item starts,
 * how long it is, or what it holds. The golden-checksum suite checks it
 * against a test-only nibble-at-a-time decoder (tests/decode_oracle.hh).
 */

#ifndef CODECOMP_COMPRESS_SCAN_HH
#define CODECOMP_COMPRESS_SCAN_HH

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>

#include "compress/codec.hh"
#include "isa/isa.hh"

namespace codecomp::compress {

/** One decoded item of a compressed stream. */
struct DecodedItem
{
    uint32_t nibbleAddr;  //!< offset within the compressed text
    uint8_t nibbles;      //!< total size including any escape
    bool isCodeword;
    uint32_t rank = 0;    //!< dictionary rank (codewords)
    isa::Word word = 0;   //!< instruction word (non-codewords)

    bool operator==(const DecodedItem &) const = default;
};

/** Where and why a scan stopped: the item at nibbleAddr runs past the
 *  end of the stream (Truncated), or it is a codeword whose rank lies
 *  past the end of the dictionary (RankOutOfRange). */
struct StreamFault
{
    enum Kind : uint8_t { Truncated, RankOutOfRange };

    Kind kind;
    uint32_t nibbleAddr;
    uint32_t rank = 0; //!< the dangling rank (RankOutOfRange)

    bool operator==(const StreamFault &) const = default;
};

/**
 * Walk the first @p textNibbles nibbles of @p text under @p tables and
 * hand each item, in stream order, to @p visit (a callable taking
 * `const DecodedItem &` and returning false to stop the walk). Returns
 * the first malformed item -- one that runs past the end, or a codeword
 * whose rank is not below @p dictSize -- as a fault, std::nullopt
 * otherwise. Bytes of @p text past the declared count never matter.
 *
 * One 64-bit window load and one decode-table load per item; the rank
 * index and the instruction word are shift/mask extractions, and
 * codeword-vs-raw selection is a mask. The only per-item branches are
 * the end-of-stream window test and the two fault guards, never taken
 * on a valid stream.
 */
template <typename Visit>
std::optional<StreamFault>
scanStream(const DecodeTables &tables, std::span<const uint8_t> text,
           size_t textNibbles, size_t dictSize, Visit &&visit)
{
    const unsigned prefix_nibbles = tables.prefixNibbles;

    const size_t avail = std::min(text.size(), (textNibbles + 1) / 2);
    const uint8_t *data = text.data();

    size_t pos = 0;
    while (pos < textNibbles) {
        // The 16-nibble big-endian window starting at nibble pos, read
        // in place, or zero-padded on the stack past the avail counted
        // bytes. An odd pos shifts the half-byte away, leaving 15 valid
        // nibbles -- still more than the 9-nibble worst-case item.
        const size_t at = pos / 2;
        uint8_t tail[8] = {};
        const uint8_t *p = tail;
        if (at + 8 <= avail)
            p = data + at;
        else if (at < avail)
            std::copy(data + at, data + avail, tail);
        uint64_t window = (static_cast<uint64_t>(p[0]) << 56) |
                          (static_cast<uint64_t>(p[1]) << 48) |
                          (static_cast<uint64_t>(p[2]) << 40) |
                          (static_cast<uint64_t>(p[3]) << 32) |
                          (static_cast<uint64_t>(p[4]) << 24) |
                          (static_cast<uint64_t>(p[5]) << 16) |
                          (static_cast<uint64_t>(p[6]) << 8) |
                          static_cast<uint64_t>(p[7]);
        if (pos & 1)
            window <<= 4;
        const ItemClass &cls =
            tables.classes[window >> (64 - 4 * prefix_nibbles)];
        // A truncated final item (including a lone trailing prefix
        // fragment classified against pad nibbles) always overruns the
        // stream, because an item is at least as long as its prefix.
        if (pos + cls.nibbles > textNibbles)
            return StreamFault{StreamFault::Truncated,
                               static_cast<uint32_t>(pos)};

        unsigned used = prefix_nibbles + cls.indexNibbles;
        uint32_t index = static_cast<uint32_t>(window >> (64 - 4 * used)) &
                         ((1u << (4 * cls.indexNibbles)) - 1u);
        uint32_t word =
            static_cast<uint32_t>(window >> (64 - 4 * cls.nibbles));
        uint32_t cw_mask = -static_cast<uint32_t>(cls.isCodeword);

        DecodedItem item;
        item.nibbleAddr = static_cast<uint32_t>(pos);
        item.nibbles = cls.nibbles;
        item.isCodeword = cls.isCodeword != 0;
        item.rank = (cls.rankBase + index) & cw_mask;
        item.word = word & ~cw_mask;
        if (item.isCodeword && item.rank >= dictSize)
            return StreamFault{StreamFault::RankOutOfRange,
                               item.nibbleAddr, item.rank};

        if (!visit(item))
            return std::nullopt;
        pos += cls.nibbles;
    }
    return std::nullopt;
}

} // namespace codecomp::compress

#endif // CODECOMP_COMPRESS_SCAN_HH
