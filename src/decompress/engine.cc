#include "decompress/engine.hh"

namespace codecomp {

namespace {

/** The machine check a malformed stream raises: same kind, address and
 *  message as the test-only reference decoder (tests/decode_oracle.hh). */
[[noreturn]] void
throwStreamFault(const compress::StreamFault &fault, size_t dict_size)
{
    if (fault.kind == compress::StreamFault::Truncated)
        throw MachineCheckError(MachineFault::BadCodeword, fault.nibbleAddr,
                                "compressed stream ends mid-item");
    throw MachineCheckError(MachineFault::DictIndexOutOfRange,
                            fault.nibbleAddr,
                            "codeword rank " + std::to_string(fault.rank) +
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
    if (std::optional<compress::StreamFault> fault = compress::scanStream(
            compress::schemeCodec(image.scheme).tables(), image.text,
            image.textNibbles, image.entriesByRank.size(),
            [this](const DecodedItem &item) {
                indexByAddr_[item.nibbleAddr] =
                    static_cast<uint32_t>(items_.size());
                items_.push_back(item);
                return true;
            }))
        throwStreamFault(*fault, image.entriesByRank.size());
    predecodeEntries();
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
