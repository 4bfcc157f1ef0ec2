#include "decompress/engine.hh"

#include "compress/encoding.hh"

namespace codecomp {

namespace {

/** Load the 16-nibble big-endian window starting at nibble @p pos from
 *  @p padded (a text copy with >= 8 trailing zero bytes, so the 8-byte
 *  load never runs off the buffer). The item being decoded starts at
 *  the window's most significant nibble; an odd @p pos shifts the
 *  half-byte away, leaving 15 valid nibbles -- still more than the
 *  9-nibble worst-case item. */
inline uint64_t
windowAt(const uint8_t *padded, size_t pos)
{
    const uint8_t *p = padded + pos / 2;
    uint64_t window = (static_cast<uint64_t>(p[0]) << 56) |
                      (static_cast<uint64_t>(p[1]) << 48) |
                      (static_cast<uint64_t>(p[2]) << 40) |
                      (static_cast<uint64_t>(p[3]) << 32) |
                      (static_cast<uint64_t>(p[4]) << 24) |
                      (static_cast<uint64_t>(p[5]) << 16) |
                      (static_cast<uint64_t>(p[6]) << 8) |
                      static_cast<uint64_t>(p[7]);
    return (pos & 1) ? window << 4 : window;
}

[[noreturn]] void
throwTruncated(size_t pos)
{
    throw MachineCheckError(MachineFault::BadCodeword,
                            static_cast<uint32_t>(pos),
                            "compressed stream ends mid-item");
}

[[noreturn]] void
throwBadRank(uint32_t pos, uint32_t rank, size_t dict_size)
{
    throw MachineCheckError(MachineFault::DictIndexOutOfRange, pos,
                            "codeword rank " + std::to_string(rank) +
                                " beyond dictionary of " +
                                std::to_string(dict_size) + " entries");
}

} // namespace

DecompressionEngine::DecompressionEngine(
    const compress::CompressedImage &image)
    : image_(image)
{
    indexByAddr_.assign(image.textNibbles, noItem);
    // Every item is at least two nibbles except Nibble's one-nibble
    // codewords; half the nibble count is a tight upper bound in
    // practice and spares the scan its reallocation copies.
    items_.reserve(image.textNibbles / 2 + 1);
    scan();
    predecodeEntries();
}

/**
 * Table-driven scan: one decode-table load classifies each item from
 * the leading nibbles of a 64-bit window, and the rank index and
 * instruction word fall out as shift/mask extractions. The only
 * per-item branches are the two machine-check guards, never taken on a
 * valid image. Faults (kind, address, message) match the test-only
 * nibble-at-a-time decoder exactly (tests/decode_oracle.hh).
 */
void
DecompressionEngine::scan()
{
    const compress::DecodeTables &tables =
        compress::schemeCodec(image_.scheme).tables();
    const unsigned prefix_nibbles = tables.prefixNibbles;
    const uint32_t dict_size =
        static_cast<uint32_t>(image_.entriesByRank.size());
    const size_t text_nibbles = image_.textNibbles;

    std::vector<uint8_t> padded(image_.text);
    padded.resize(padded.size() + 8, 0);
    const uint8_t *data = padded.data();

    size_t pos = 0;
    while (pos < text_nibbles) {
        uint64_t window = windowAt(data, pos);
        const compress::ItemClass &cls =
            tables.classes[window >> (64 - 4 * prefix_nibbles)];
        // A truncated final item (including a lone trailing prefix
        // fragment classified against pad nibbles) always overruns the
        // stream, because an item is at least as long as its prefix.
        if (pos + cls.nibbles > text_nibbles)
            throwTruncated(pos);

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
        if (item.isCodeword && item.rank >= dict_size)
            throwBadRank(item.nibbleAddr, item.rank, dict_size);

        indexByAddr_[pos] = static_cast<uint32_t>(items_.size());
        items_.push_back(item);
        pos += cls.nibbles;
    }
}

void
DecompressionEngine::predecodeEntries()
{
    size_t total = 0;
    for (const std::vector<isa::Word> &entry : image_.entriesByRank)
        total += entry.size();
    decodedPool_.reserve(total);
    entryOffsets_.reserve(image_.entriesByRank.size() + 1);
    entryOffsets_.push_back(0);
    for (const std::vector<isa::Word> &entry : image_.entriesByRank) {
        for (isa::Word word : entry)
            decodedPool_.push_back(isa::decode(word));
        entryOffsets_.push_back(
            static_cast<uint32_t>(decodedPool_.size()));
    }
}

uint64_t
DecompressionEngine::expandedStreamDigest() const
{
    // Incremental FNV-1a64 over the big-endian bytes of every expanded
    // word, matching fnv1a64 over the same byte sequence.
    uint64_t hash = 14695981039346656037ull;
    auto mix = [&hash](isa::Word word) {
        for (int shift = 24; shift >= 0; shift -= 8) {
            hash ^= static_cast<uint8_t>(word >> shift);
            hash *= 1099511628211ull;
        }
    };
    for (const DecodedItem &item : items_) {
        if (item.isCodeword) {
            for (isa::Word word : image_.entriesByRank[item.rank])
                mix(word);
        } else {
            mix(item.word);
        }
    }
    return hash;
}

} // namespace codecomp
