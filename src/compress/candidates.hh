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
 * positions[posBegin] == firstPos).
 */
struct Candidate
{
    uint32_t firstPos;
    uint32_t len;
    uint32_t posBegin;
    uint32_t posEnd;

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

/** Per-instruction compressibility mask (false for relative branches). */
std::vector<bool> eligibilityMask(const Program &program);

/**
 * Enumerate all candidates with lengths in [minLen, maxLen]
 * (maxLen <= maxImageEntryWords).
 *
 * Windows are grouped exactly by prefix-ID refinement: level 1 numbers
 * each distinct word, and level L numbers each distinct pair (level
 * L-1 ID at p, text[p + L - 1]), so two windows share an ID exactly
 * when their words are equal. IDs are handed out in ascending position
 * order, so one last pass over positions emits candidates in the order
 * of a serial left-to-right scan -- ascending first occurrence, then
 * length -- which selection and the pipeline cache rely on. The scan
 * is serial and deterministic.
 */
CandidateSet enumerateCandidates(const Program &program, const Cfg &cfg,
                                 uint32_t minLen, uint32_t maxLen);

/**
 * Walk the maximal set of non-overlapping occurrences from the sorted
 * position list of a sequence of @p length, skipping any occurrence
 * whose span touches a true bit of @p consumed (pass an empty mask to
 * treat everything as live). Calls fn(pos) for each chosen occurrence
 * and returns how many were chosen.
 *
 * This is the single definition of "live occurrences": greedy
 * acceptance (greedy.cc) and savings re-evaluation
 * (countNonOverlapping) both walk through here, so the savings cached
 * in the selection heap can never disagree with the placements that
 * acceptance actually emits. fn may mark the chosen span in @p
 * consumed: chosen spans end before the next position considered, so
 * such marks never affect the remainder of the same walk.
 */
template <typename Fn>
uint32_t
forEachNonOverlapping(std::span<const uint32_t> positions, uint32_t length,
                      const std::vector<bool> &consumed, Fn &&fn)
{
    uint32_t count = 0;
    uint64_t next_free = 0;
    for (uint32_t pos : positions) {
        if (pos < next_free)
            continue;
        if (!consumed.empty()) {
            bool blocked = false;
            for (uint32_t i = pos; i < pos + length; ++i) {
                if (consumed[i]) {
                    blocked = true;
                    break;
                }
            }
            if (blocked)
                continue;
        }
        fn(pos);
        ++count;
        next_free = static_cast<uint64_t>(pos) + length;
    }
    return count;
}

/** forEachNonOverlapping with no per-occurrence action: just the count. */
uint32_t countNonOverlapping(std::span<const uint32_t> positions,
                             uint32_t length,
                             const std::vector<bool> &consumed);

} // namespace codecomp::compress

#endif // CODECOMP_COMPRESS_CANDIDATES_HH
