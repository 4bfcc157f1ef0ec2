/**
 * @file
 * The uniform fetch stream of both processors.
 *
 * Cpu and CompressedCpu used to expose different ad-hoc surfaces (a
 * bare (addr, bytes) hook on one side, FetchStats counters on the
 * other). Every consumer -- cache models, the timing subsystem, the
 * traffic profiler -- actually wants the same thing: one event per
 * fetch-unit item carrying its memory footprint and what it retired.
 * Both processors now emit FetchEvent; FetchStats is just the default
 * accumulator over that stream.
 *
 * Consumers observe the stream in one of two ways. A run loop
 * templated on the observer (`cpu.run(observer, max_steps)`) inlines
 * it into the step loop; this is the hot path of the timing model,
 * the traffic profiler and the autotuner. A FetchHook
 * (`setFetchHook`) is a std::function the loop calls per event; it
 * serves stepping harnesses and tools that install one consumer.
 */

#ifndef CODECOMP_DECOMPRESS_FETCH_HH
#define CODECOMP_DECOMPRESS_FETCH_HH

#include <cstdint>
#include <functional>

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

/** Observe every fetch-unit item; fires after the item's effects land
 *  (so @p retired and @p taken are final), including the halting Sc. */
using FetchHook = std::function<void(const FetchEvent &event)>;

/** A fetch observer for the processors' templated run loops that
 *  forwards to @p hook when one is set: the adapter behind
 *  setFetchHook. */
inline auto
hookObserver(const FetchHook &hook)
{
    return [&hook](const FetchEvent &event) {
        if (hook)
            hook(event);
    };
}

/** Fetch-path statistics (decode-efficiency discussion, paper 2.1),
 *  accumulated from the event stream. */
struct FetchStats
{
    uint64_t itemFetches = 0;     //!< slots fetched from the stream
    uint64_t codewordFetches = 0; //!< slots that were codewords
    uint64_t expandedInsts = 0;   //!< instructions produced by expansion
    uint64_t fetchedBytes = 0;    //!< bytes moved by the fetch unit
    uint64_t takenBranches = 0;   //!< front-end redirects

    void
    record(const FetchEvent &event)
    {
        ++itemFetches;
        fetchedBytes += event.bytes;
        takenBranches += event.taken;
        if (event.isCodeword) {
            ++codewordFetches;
            expandedInsts += event.retired;
        }
    }

    void reset() { *this = FetchStats{}; }

    bool operator==(const FetchStats &) const = default;
};

} // namespace codecomp

#endif // CODECOMP_DECOMPRESS_FETCH_HH
