/**
 * @file
 * Reference stream decoder for the tests: the cascaded-branch,
 * nibble-at-a-time decoders the table-driven scan replaced. It reads
 * the escape rule straight off the ISA and the codeword classes
 * straight off paper Figure 10, sharing no decode table with the
 * production code, so the shared stream scan (compress/scan.hh) and
 * the engine and loader built on it are checked against it item for
 * item.
 */

#ifndef CODECOMP_TESTS_DECODE_ORACLE_HH
#define CODECOMP_TESTS_DECODE_ORACLE_HH

#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "compress/image.hh"
#include "compress/scan.hh"
#include "decompress/engine.hh"
#include "decompress/fault.hh"
#include "isa/isa.hh"
#include "support/bitstream.hh"
#include "support/serialize.hh"

namespace codecomp::test {

/** Whether @p scheme writes the nibble-aligned stream of Figure 10
 *  (first nibble 0-7: 4-bit codeword, 8-11: 8-bit, 12-13: 12-bit, 14:
 *  16-bit, 15: escape before a raw word) rather than the byte-escape
 *  stream of Baseline/OneByte. */
inline bool
nibbleShaped(compress::Scheme scheme)
{
    switch (scheme) {
      case compress::Scheme::Baseline:
      case compress::Scheme::OneByte:
        return false;
      case compress::Scheme::Nibble:
      case compress::Scheme::OperandFactored:
        return true;
    }
    throw std::logic_error("no decode oracle for scheme " +
                           std::to_string(static_cast<int>(scheme)));
}

/** Codeword group (0..31) of a Baseline/OneByte first byte, or
 *  nullopt for a legal opcode byte: the high six bits name one of the
 *  eight illegal primary opcodes, the low two bits pick one of its
 *  four groups. */
inline std::optional<uint32_t>
oracleEscapeGroup(uint32_t byte)
{
    for (size_t i = 0; i < isa::illegalPrimOps.size(); ++i)
        if (isa::illegalPrimOps[i] == (byte >> 2))
            return static_cast<uint32_t>(4 * i + (byte & 3));
    return std::nullopt;
}

/** Decode the item at the reader's cursor: the codeword rank, or
 *  nullopt for a raw instruction, with the cursor left at its word
 *  (past a nibble escape; a byte-scheme word is pushed back whole). */
inline std::optional<uint32_t>
oracleDecodeCodeword(NibbleReader &reader, compress::Scheme scheme)
{
    if (nibbleShaped(scheme)) {
        uint32_t n0 = reader.getNibble();
        if (n0 < 8)
            return n0;
        if (n0 < 12)
            return 8 + (n0 - 8) * 16 + reader.getNibble();
        if (n0 < 14)
            return 8 + 64 + (n0 - 12) * 256 + reader.getNibbles(2);
        if (n0 == 14)
            return 8 + 64 + 512 + reader.getNibbles(3);
        return std::nullopt; // escape: an instruction follows
    }
    std::optional<uint32_t> group = oracleEscapeGroup(reader.getNibbles(2));
    if (!group) {
        reader.seek(reader.pos() - 2); // plain instruction
        return std::nullopt;
    }
    if (scheme == compress::Scheme::OneByte)
        return *group;
    return *group * 256 + reader.getNibbles(2);
}

/** Nibble length of the item at the reader's cursor, or nullopt if the
 *  rest of the stream cannot hold it. */
inline std::optional<unsigned>
oraclePeekItemNibbles(NibbleReader reader, compress::Scheme scheme)
{
    size_t remaining = reader.size() - reader.pos();
    unsigned need;
    if (nibbleShaped(scheme)) {
        if (remaining < 1)
            return std::nullopt;
        uint32_t n0 = reader.getNibble();
        need = n0 < 8 ? 1 : n0 < 12 ? 2 : n0 < 14 ? 3 : n0 == 14 ? 4 : 9;
    } else {
        if (remaining < 2)
            return std::nullopt;
        if (!oracleEscapeGroup(reader.getNibbles(2)))
            need = 8;
        else
            need = scheme == compress::Scheme::Baseline ? 4 : 2;
    }
    if (need > remaining)
        return std::nullopt;
    return need;
}

/** The items of a stream in order, and the fault that stopped the walk
 *  early, if any: what the shared scan hands its visitor and returns,
 *  in one comparable value. */
struct StreamScan
{
    std::vector<DecodedItem> items;
    std::optional<compress::StreamFault> fault;

    bool operator==(const StreamScan &) const = default;
};

/** The reference walk of the first @p nibbles nibbles of @p bytes under
 *  @p scheme, against a dictionary of @p dictSize entries: every item
 *  up to the first that runs off the stream or names a rank at or past
 *  @p dictSize, which becomes the fault. */
inline StreamScan
oracleStreamScan(compress::Scheme scheme, std::span<const uint8_t> bytes,
                 size_t nibbles, size_t dictSize)
{
    StreamScan scan;
    NibbleReader reader(bytes.data(), nibbles);
    while (!reader.atEnd()) {
        DecodedItem item;
        item.nibbleAddr = static_cast<uint32_t>(reader.pos());
        // Classify the item length before decoding: a truncated stream
        // must surface as a fault, not a read past the end.
        if (!oraclePeekItemNibbles(reader, scheme)) {
            scan.fault = {compress::StreamFault::Truncated,
                          item.nibbleAddr};
            break;
        }
        std::optional<uint32_t> rank = oracleDecodeCodeword(reader, scheme);
        if (rank) {
            item.isCodeword = true;
            item.rank = *rank;
            if (item.rank >= dictSize) {
                scan.fault = {compress::StreamFault::RankOutOfRange,
                              item.nibbleAddr, item.rank};
                break;
            }
        } else {
            item.isCodeword = false;
            item.word = reader.getWord();
        }
        item.nibbles =
            static_cast<uint8_t>(reader.pos() - item.nibbleAddr);
        scan.items.push_back(item);
    }
    return scan;
}

/** The shared scan (compress/scan.hh) over the same input, collected
 *  into the same shape, for == against oracleStreamScan. */
inline StreamScan
sharedStreamScan(compress::Scheme scheme, std::span<const uint8_t> bytes,
                 size_t nibbles, size_t dictSize)
{
    StreamScan scan;
    scan.fault = compress::scanStream(
        compress::decodeTables(scheme), bytes, nibbles, dictSize,
        [&scan](const DecodedItem &item) {
            scan.items.push_back(item);
            return true;
        });
    return scan;
}

/**
 * The engine's item table rebuilt one item at a time with the decoders
 * above. A truncated stream or a rank beyond the dictionary raises the
 * MachineCheckError the engine raises: same fault, address and
 * message.
 */
inline std::vector<DecodedItem>
oracleScan(const compress::CompressedImage &image)
{
    StreamScan scan =
        oracleStreamScan(image.scheme, image.text, image.textNibbles,
                         image.entriesByRank.size());
    if (scan.fault && scan.fault->kind == compress::StreamFault::Truncated)
        throw MachineCheckError(MachineFault::BadCodeword,
                                scan.fault->nibbleAddr,
                                "compressed stream ends mid-item");
    if (scan.fault)
        throw MachineCheckError(
            MachineFault::DictIndexOutOfRange, scan.fault->nibbleAddr,
            "codeword rank " + std::to_string(scan.fault->rank) +
                " beyond dictionary of " +
                std::to_string(image.entriesByRank.size()) + " entries");
    return scan.items;
}

/** FNV-1a64 of the expanded instruction stream of @p items (codewords
 *  expanded through @p image's dictionary, words big-endian): what
 *  DecompressionEngine::expandedStreamDigest must return. */
inline uint64_t
oracleDigest(const compress::CompressedImage &image,
             const std::vector<DecodedItem> &items)
{
    std::vector<uint8_t> bytes;
    auto put = [&bytes](isa::Word word) {
        for (int shift = 24; shift >= 0; shift -= 8)
            bytes.push_back(static_cast<uint8_t>(word >> shift));
    };
    for (const DecodedItem &item : items) {
        if (!item.isCodeword) {
            put(item.word);
            continue;
        }
        for (isa::Word word : image.entriesByRank[item.rank])
            put(word);
    }
    return fnv1a64(bytes);
}

} // namespace codecomp::test

#endif // CODECOMP_TESTS_DECODE_ORACLE_HH
