/**
 * @file
 * Greedy dictionary selection (paper section 3.1.1).
 *
 * Optimal dictionary choice is NP-complete [Storer77]; like the paper we
 * pick greedily by immediate savings. The production implementation uses
 * a lazy max-heap: replacing a sequence can only *destroy* occurrences of
 * other candidates (codeword tokens can never re-create an instruction
 * pattern), so a candidate's savings only ever decreases and lazy
 * revalidation at pop time is exact, not a heuristic. A naive reference
 * implementation is provided for differential testing.
 *
 * Both algorithms run over a pre-enumerated candidate list (the
 * pipeline's Enumerate pass), and both accept an optional per-candidate
 * codeword-cost vector so rank-aware strategies can replace the single
 * assumed cost of GreedyConfig::codewordNibbles with the true
 * rank-derived cost of each candidate (strategy.hh, IterativeRefit).
 */

#ifndef CODECOMP_COMPRESS_GREEDY_HH
#define CODECOMP_COMPRESS_GREEDY_HH

#include "compress/candidates.hh"
#include "compress/selection.hh"
#include "program/program.hh"

namespace codecomp::compress {

/**
 * Lazy-heap greedy selection over pre-enumerated @p candidates.
 * @p textSize is the instruction count of the program's .text (the
 * span of the consumed-slot mask). @p codewordCosts, when non-empty,
 * gives the assumed codeword cost in nibbles per candidate and must
 * have one element per candidate; empty means
 * config.codewordNibbles for every candidate. @p acceptedIds, when
 * non-null, receives the candidate ID of each dictionary entry.
 */
SelectionResult
selectGreedyFromCandidates(size_t textSize, const CandidateSet &candidates,
                           const GreedyConfig &config,
                           const std::vector<uint32_t> &codewordCosts = {},
                           std::vector<uint32_t> *acceptedIds = nullptr);

/** Reference implementation over pre-enumerated candidates: recompute
 *  every candidate's savings from scratch each round. Same tie-breaking
 *  rules as selectGreedyFromCandidates; O(candidates * selections). */
SelectionResult selectGreedyReferenceFromCandidates(
    size_t textSize, const CandidateSet &candidates,
    const GreedyConfig &config,
    const std::vector<uint32_t> &codewordCosts = {});

/** Enumerate + lazy-heap greedy selection over @p program. */
SelectionResult selectGreedy(const Program &program,
                             const GreedyConfig &config);

/** Enumerate + reference greedy selection over @p program; used by
 *  tests to prove the lazy heap exact. */
SelectionResult selectGreedyReference(const Program &program,
                                      const GreedyConfig &config);

/** Savings, in nibbles, of one candidate of @p length instructions
 *  with @p occ live non-overlapping occurrences, paying
 *  @p codeword_nibbles per occurrence. Negative values mean growth. */
inline int64_t
savingsNibbles(const GreedyConfig &config, uint32_t length, uint32_t occ,
               uint32_t codeword_nibbles)
{
    int64_t per_occurrence =
        static_cast<int64_t>(config.insnNibbles) * length -
        static_cast<int64_t>(codeword_nibbles);
    int64_t dict_cost =
        static_cast<int64_t>(config.dictEntryNibbles) * length +
        config.dictEntryExtraNibbles;
    return static_cast<int64_t>(occ) * per_occurrence - dict_cost;
}

/** savingsNibbles at the config's single assumed codeword cost. */
inline int64_t
savingsNibbles(const GreedyConfig &config, uint32_t length, uint32_t occ)
{
    return savingsNibbles(config, length, occ, config.codewordNibbles);
}

} // namespace codecomp::compress

#endif // CODECOMP_COMPRESS_GREEDY_HH
