/**
 * @file
 * The uniform fetch stream of both processors.
 *
 * Every consumer -- cache models, the timing subsystem, the traffic
 * profiler, the fetch statistics -- wants the same thing: one event
 * per fetch-unit item carrying its memory footprint and what it
 * retired. Both processors emit FetchEvent.
 *
 * An observer is the only way to see the stream: `cpu.run(observer,
 * max_steps)` and `cpu.step(observer)` take it as a template
 * parameter, so it compiles into the step body. FetchStats is one such
 * observer; a run that passes none (noFetch) pays for no accounting.
 */

#ifndef CODECOMP_DECOMPRESS_FETCH_HH
#define CODECOMP_DECOMPRESS_FETCH_HH

#include <cstdint>

namespace codecomp {

/**
 * One fetch-unit item, uniform across processors. For the plain Cpu an
 * item is a 4-byte instruction; for the CompressedCpu it is one slot of
 * the compressed stream (an uncompressed instruction or a codeword),
 * with the nibble footprint rounded outward to whole bytes.
 */
struct FetchEvent
{
    uint32_t addr;      //!< byte address of the item's first byte
    uint32_t bytes;     //!< memory footprint of the item
    uint32_t retired;   //!< architectural instructions this item retired
    bool isCodeword;    //!< dictionary codeword (CompressedCpu only)
    bool taken;         //!< item ended in a taken branch (redirect)
    /** Dictionary rank of a codeword item (0 otherwise). Lets timing
     *  consumers model a pre-expanded decode cache over the hottest
     *  (lowest-rank) entries without re-decoding the stream. */
    uint32_t rank = 0;
};

/** The fetch observer that observes nothing: what step() and
 *  run(max_steps) pass. */
inline constexpr auto noFetch = [](const FetchEvent &) {};

/** Fetch-path statistics (decode-efficiency discussion, paper 2.1):
 *  a fetch observer, `cpu.run(stats)`, that accumulates the stream. */
struct FetchStats
{
    uint64_t itemFetches = 0;     //!< slots fetched from the stream
    uint64_t codewordFetches = 0; //!< slots that were codewords
    uint64_t expandedInsts = 0;   //!< instructions produced by expansion
    uint64_t fetchedBytes = 0;    //!< bytes moved by the fetch unit
    uint64_t takenBranches = 0;   //!< front-end redirects

    void
    operator()(const FetchEvent &event)
    {
        ++itemFetches;
        fetchedBytes += event.bytes;
        takenBranches += event.taken;
        if (event.isCodeword) {
            ++codewordFetches;
            expandedInsts += event.retired;
        }
    }

    bool operator==(const FetchStats &) const = default;
};

} // namespace codecomp

#endif // CODECOMP_DECOMPRESS_FETCH_HH
