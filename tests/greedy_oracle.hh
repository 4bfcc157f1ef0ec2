/**
 * @file
 * Reference greedy selection for the tests: every round recomputes
 * every candidate's savings from scratch and accepts the best one,
 * O(candidates x selections). The production lazy heap
 * (compress/greedy.hh) must pick exactly the same entries, placements
 * and use counts. Built only on the public occurrence walks and the
 * savings formula, so the heap's own bookkeeping is not reused.
 */

#ifndef CODECOMP_TESTS_GREEDY_ORACLE_HH
#define CODECOMP_TESTS_GREEDY_ORACLE_HH

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "compress/candidates.hh"
#include "compress/greedy.hh"

namespace codecomp::test {

/** Naive greedy over pre-enumerated @p candidates. @p codewordCosts,
 *  when non-empty, is the codeword cost in nibbles of each candidate
 *  (selectGreedyFromCandidates' override); empty means the config's
 *  assumed cost. Ties go to the lower candidate ID, the lazy heap's
 *  rule. */
inline compress::SelectionResult
selectGreedyReferenceFromCandidates(
    size_t textSize, const compress::CandidateSet &candidates,
    const compress::GreedyConfig &config,
    const std::vector<uint32_t> &codewordCosts = {})
{
    compress::SelectionResult result;
    std::vector<bool> consumed(textSize, false);
    while (result.dict.entries.size() < config.maxEntries) {
        int64_t best_savings = 0;
        uint32_t best_id = UINT32_MAX;
        for (uint32_t id = 0; id < candidates.size(); ++id) {
            const compress::Candidate &cand = candidates[id];
            uint32_t occ = compress::countNonOverlapping(
                candidates.positionsOf(cand), cand.len, consumed);
            uint32_t cost = codewordCosts.empty() ? config.codewordNibbles
                                                  : codewordCosts[id];
            int64_t savings =
                compress::savingsNibbles(config, cand.len, occ, cost);
            if (savings > best_savings) {
                best_savings = savings;
                best_id = id;
            }
        }
        if (best_id == UINT32_MAX)
            break;

        const compress::Candidate &cand = candidates[best_id];
        uint32_t entry = static_cast<uint32_t>(result.dict.entries.size());
        uint32_t count = compress::forEachNonOverlapping(
            candidates.positionsOf(cand), cand.len, consumed,
            [&](uint32_t pos) {
                for (uint32_t i = pos; i < pos + cand.len; ++i)
                    consumed[i] = true;
                result.placements.push_back({pos, cand.len, entry});
            });
        std::span<const isa::Word> seq = candidates.sequenceOf(cand);
        result.dict.entries.emplace_back(seq.begin(), seq.end());
        result.useCount.push_back(count);
    }
    std::sort(result.placements.begin(), result.placements.end(),
              [](const compress::Placement &a, const compress::Placement &b) {
                  return a.start < b.start;
              });
    return result;
}

/** Enumerate + naive greedy over @p program. */
inline compress::SelectionResult
selectGreedyReference(const Program &program,
                      const compress::GreedyConfig &config)
{
    Cfg cfg = Cfg::build(program);
    compress::CandidateSet candidates = compress::enumerateCandidates(
        program, cfg, config.minEntryLen, config.maxEntryLen);
    return selectGreedyReferenceFromCandidates(program.text.size(),
                                               candidates, config);
}

} // namespace codecomp::test

#endif // CODECOMP_TESTS_GREEDY_ORACLE_HH
