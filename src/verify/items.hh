/**
 * @file
 * The per-item view of a compressed image that the lockstep verifier
 * and the fault injector share: which original instruction each
 * decoded item begins, and which items form far-branch stubs.
 */

#ifndef CODECOMP_VERIFY_ITEMS_HH
#define CODECOMP_VERIFY_ITEMS_HH

#include <cstdint>
#include <vector>

#include "compress/image.hh"
#include "decompress/engine.hh"

namespace codecomp::verify {

/** Per decoded item (index = DecompressionEngine item index). */
struct ItemMap
{
    static constexpr uint32_t noIndex = UINT32_MAX;

    /** The original instruction index that begins at the item, or
     *  noIndex for a far-branch stub continuation. */
    std::vector<uint32_t> origOf;
    /** Part of a stub group: an unmapped continuation, or the mapped
     *  item before a run of them (the stub head, which inherited the
     *  branch's identity). */
    std::vector<bool> isStub;
    /** Stub head -> one-past-end nibble of its group; 0 elsewhere. */
    std::vector<uint32_t> stubEnd;
};

/** Classify every item of @p engine, the decoder of @p image. */
ItemMap mapItems(const DecompressionEngine &engine,
                 const compress::CompressedImage &image);

} // namespace codecomp::verify

#endif // CODECOMP_VERIFY_ITEMS_HH
