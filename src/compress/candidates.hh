/**
 * @file
 * Enumeration of candidate dictionary sequences.
 *
 * A candidate is a sequence of 1..maxLen instruction words that
 * (a) lies entirely within one basic block and (b) contains no
 * relative branch (paper section 3.1.1: branch instructions with
 * offset fields are never compressed; indirect branches are fair
 * game). Occurrence lists are start indices in .text.
 */

#ifndef CODECOMP_COMPRESS_CANDIDATES_HH
#define CODECOMP_COMPRESS_CANDIDATES_HH

#include <span>
#include <vector>

#include "program/cfg.hh"
#include "program/program.hh"

namespace codecomp::compress {

/**
 * One unique candidate sequence, as a view into its CandidateSet: the
 * sequence is text[firstPos, firstPos + len), and its occurrence start
 * indices are positions[posBegin, posEnd), sorted ascending (so
 * positions[posBegin] == firstPos). count is their standaloneCount,
 * the occurrences selection can replace while nothing is consumed.
 */
struct Candidate
{
    uint32_t firstPos;
    uint32_t len;
    uint32_t posBegin;
    uint32_t posEnd;
    uint32_t count;

    bool operator==(const Candidate &) const = default;
};

/**
 * Every candidate of one program. The set owns a copy of .text (so a
 * cached set stands alone) and keeps every occurrence list in one CSR
 * array: candidate i's positions are immediately followed by candidate
 * i+1's.
 */
struct CandidateSet
{
    std::vector<isa::Word> text;
    std::vector<Candidate> candidates; //!< first occurrence, then length
    std::vector<uint32_t> positions;

    size_t size() const { return candidates.size(); }
    bool empty() const { return candidates.empty(); }
    const Candidate &operator[](size_t id) const { return candidates[id]; }
    auto begin() const { return candidates.begin(); }
    auto end() const { return candidates.end(); }

    /** Sorted occurrence start indices of @p cand. */
    std::span<const uint32_t>
    positionsOf(const Candidate &cand) const
    {
        return {positions.data() + cand.posBegin,
                positions.data() + cand.posEnd};
    }

    /** The instruction words of @p cand. */
    std::span<const isa::Word>
    sequenceOf(const Candidate &cand) const
    {
        return {text.data() + cand.firstPos, cand.len};
    }

    /** Heap footprint of the three arrays, in bytes. */
    uint64_t
    bytes() const
    {
        return 4 * text.size() + sizeof(Candidate) * candidates.size() +
               4 * positions.size();
    }

    bool operator==(const CandidateSet &) const = default;
};

/**
 * Enumerate all candidates with lengths in [minLen, maxLen]
 * (maxLen <= maxImageEntryWords).
 *
 * Windows are grouped exactly by prefix-ID refinement: level 1 numbers
 * each distinct word, and level L numbers each distinct pair (level
 * L-1 ID at p, text[p + L - 1]), so two windows share an ID exactly
 * when their words are equal. A window seen once stays unique when
 * extended, so only the repeated windows go on to the next level; the
 * longer windows of a unique one are single-occurrence candidates. IDs
 * are handed out in ascending position order, so each level's groups
 * follow first occurrence, and one last pass over positions emits
 * candidates in the order of a serial left-to-right scan -- ascending
 * first occurrence, then length -- which selection and the pipeline
 * cache rely on. That pass also records each candidate's standalone
 * count. The scan is serial and deterministic.
 */
CandidateSet enumerateCandidates(const Program &program, const Cfg &cfg,
                                 uint32_t minLen, uint32_t maxLen);

/**
 * The one left-to-right walk behind every count of occurrences: over
 * the sorted @p positions of a sequence of @p length, choose each
 * position that starts at or after the end of the last chosen span and
 * whose span is not @p blocked, call fn(pos) for it, and return how
 * many were chosen. forEachNonOverlapping (blocked by a consumed mask)
 * and standaloneCount (nothing blocked) are its two uses.
 */
template <typename Blocked, typename Fn>
uint32_t
walkNonOverlapping(std::span<const uint32_t> positions, uint32_t length,
                   Blocked &&blocked, Fn &&fn)
{
    uint32_t count = 0;
    uint64_t next_free = 0;
    for (uint32_t pos : positions) {
        if (pos < next_free || blocked(pos))
            continue;
        fn(pos);
        ++count;
        next_free = static_cast<uint64_t>(pos) + length;
    }
    return count;
}

/**
 * How many of the sorted @p positions of a sequence of @p length a
 * left-to-right walk replaces when nothing is consumed yet: the
 * forEachNonOverlapping count over an all-live mask, by the same walk.
 * Enumeration stores it as Candidate::count, which seeds the selection
 * heap and decides which candidates go to greedy's singleton list.
 */
uint32_t standaloneCount(std::span<const uint32_t> positions,
                         uint32_t length);

/**
 * Walk the maximal set of non-overlapping occurrences from the sorted
 * position list of a sequence of @p length, skipping any occurrence
 * whose span touches a true bit of @p consumed (which must cover every
 * span). Calls fn(pos) for each chosen occurrence and returns how many
 * were chosen.
 *
 * Greedy acceptance (greedy.cc), savings re-evaluation
 * (countNonOverlapping) and the stored standalone counts all go
 * through walkNonOverlapping, so the savings cached in the selection
 * heap or the singleton list can never disagree with the placements
 * that acceptance actually emits. fn may mark the chosen span in @p
 * consumed: chosen spans end before the next position considered, so
 * such marks never affect the remainder of the same walk.
 */
template <typename Fn>
uint32_t
forEachNonOverlapping(std::span<const uint32_t> positions, uint32_t length,
                      const std::vector<bool> &consumed, Fn &&fn)
{
    return walkNonOverlapping(
        positions, length,
        [&](uint32_t pos) {
            for (uint32_t i = pos; i < pos + length; ++i)
                if (consumed[i])
                    return true;
            return false;
        },
        fn);
}

/** forEachNonOverlapping with no per-occurrence action: just the count. */
uint32_t countNonOverlapping(std::span<const uint32_t> positions,
                             uint32_t length,
                             const std::vector<bool> &consumed);

} // namespace codecomp::compress

#endif // CODECOMP_COMPRESS_CANDIDATES_HH
