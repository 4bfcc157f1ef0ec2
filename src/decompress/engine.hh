/**
 * @file
 * Decompression engine: the decode-stage dictionary expander of the
 * compressed-program processor (paper Figure 3).
 *
 * The engine works from the raw compressed byte stream exactly as the
 * hardware would: it distinguishes codewords from uncompressed
 * instructions by the escape rule of the encoding (illegal primary
 * opcodes under Baseline/OneByte, the first-nibble class under Nibble)
 * and expands codewords through the rank-ordered dictionary. A one-time
 * sequential pass of the shared stream scan (compress/scan.hh, the same
 * table-driven walk the loader validates with) builds the random-access
 * item table that the fetch stage consults; a malformed stream raises
 * the matching machine check.
 *
 * The engine also pre-decodes every dictionary entry into isa::Inst
 * form at construction, so the execution core expands hot codewords
 * without re-running isa::decode per slot. The cache never needs
 * invalidation: images are immutable once loaded (the loader validates
 * and then only the engine reads them), and isa::decode is total, so
 * eager decoding cannot fault where lazy decoding would not.
 */

#ifndef CODECOMP_DECOMPRESS_ENGINE_HH
#define CODECOMP_DECOMPRESS_ENGINE_HH

#include <algorithm>
#include <vector>

#include "compress/image.hh"
#include "compress/scan.hh"
#include "decompress/fault.hh"
#include "isa/inst.hh"
#include "support/logging.hh"

namespace codecomp {

/** One decoded slot of the compressed stream. */
using compress::DecodedItem;

/** Contiguous view of one pre-decoded dictionary entry. The engine
 *  packs every entry's decoded instructions into a single arena, so an
 *  expansion walks cache-dense memory and engine construction makes
 *  one allocation for the whole cache instead of one per entry. */
struct DecodedEntry
{
    const isa::Inst *data;
    uint32_t count;

    const isa::Inst *begin() const { return data; }
    const isa::Inst *end() const { return data + count; }
    size_t size() const { return count; }
    const isa::Inst &operator[](size_t slot) const { return data[slot]; }

    bool
    operator==(const DecodedEntry &other) const
    {
        return count == other.count &&
               std::equal(begin(), end(), other.begin());
    }
};

class DecompressionEngine
{
  public:
    explicit DecompressionEngine(const compress::CompressedImage &image);

    /** Item starting at compressed-text nibble offset @p nibble_addr;
     *  raises a machine check if the address is not an item boundary (a
     *  real processor would fetch garbage -- only corrupt code pointers
     *  get here). */
    const DecodedItem &
    itemAt(uint32_t nibble_addr) const
    {
        return items_[itemIndexAt(nibble_addr)];
    }

    /**
     * Index into items() of the item starting at @p nibble_addr. This is
     * the fetch-stage hot path: a dense per-nibble table makes it a
     * single indexed load, with no hashing on the hottest loop. Throws
     * MachineCheckError (FetchOutOfText / MisalignedPc) on addresses no
     * item starts at.
     */
    uint32_t
    itemIndexAt(uint32_t nibble_addr) const
    {
        if (nibble_addr >= indexByAddr_.size())
            throw MachineCheckError(MachineFault::FetchOutOfText,
                                    nibble_addr,
                                    "fetch beyond compressed text");
        uint32_t index = indexByAddr_[nibble_addr];
        if (index == noItem)
            throw MachineCheckError(MachineFault::MisalignedPc, nibble_addr,
                                    "fetch from mid-item compressed "
                                    "address");
        return index;
    }

    /** Dictionary entry for codeword rank @p rank. */
    const std::vector<isa::Word> &
    entry(uint32_t rank) const
    {
        return image_.entriesByRank.at(rank);
    }

    /** Pre-decoded dictionary entry for codeword rank @p rank: the
     *  entry's words run through isa::decode once at construction, so
     *  the execution core's expansion loop is a cache walk, not a
     *  decoder. Index-validated by the same scan that bounds item
     *  ranks, so @p rank from a decoded item is always in range. */
    DecodedEntry
    decodedEntry(uint32_t rank) const
    {
        uint32_t begin = entryOffsets_[rank];
        return {decodedPool_.data() + begin,
                entryOffsets_[rank + 1] - begin};
    }

    const std::vector<DecodedItem> &items() const { return items_; }
    const compress::CompressedImage &image() const { return image_; }

    /** FNV-1a64 digest of the fully expanded instruction stream (every
     *  item in address order, codewords expanded through the
     *  dictionary, each word hashed big-endian) -- the value the
     *  golden-checksum suite pins per image (DESIGN.md section 10). */
    uint64_t expandedStreamDigest() const;

  private:
    /** indexByAddr_ sentinel for nibbles inside (not starting) an item. */
    static constexpr uint32_t noItem = UINT32_MAX;

    void predecodeEntries();

    const compress::CompressedImage &image_;
    std::vector<DecodedItem> items_;
    std::vector<uint32_t> indexByAddr_; //!< nibble addr -> items_ index
    std::vector<isa::Inst> decodedPool_;  //!< all entries, rank order
    std::vector<uint32_t> entryOffsets_;  //!< rank -> pool offset, +1 end
};

} // namespace codecomp

#endif // CODECOMP_DECOMPRESS_ENGINE_HH
