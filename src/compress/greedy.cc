#include "compress/greedy.hh"

#include <algorithm>
#include <queue>

#include "support/logging.hh"

namespace codecomp::compress {

namespace {

/** Heap entry: cached savings for a candidate. */
struct HeapEntry
{
    int64_t savings;
    uint32_t candId;
};

struct HeapLess
{
    bool
    operator()(const HeapEntry &a, const HeapEntry &b) const
    {
        // Max savings first; break ties toward the lower candidate id
        // (which is also "earliest first occurrence" by construction).
        if (a.savings != b.savings)
            return a.savings < b.savings;
        return a.candId > b.candId;
    }
};

/** Assumed codeword cost for candidate @p id under an optional
 *  per-candidate override. */
inline uint32_t
costOf(const GreedyConfig &config, const std::vector<uint32_t> &costs,
       uint32_t id)
{
    return costs.empty() ? config.codewordNibbles : costs[id];
}

/** Consume one accepted candidate: emit placements, mark slots. Walks
 *  the identical forEachNonOverlapping as countNonOverlapping, so the
 *  savings evaluated before acceptance always match what is placed. */
void
accept(const CandidateSet &candidates, uint32_t id,
       std::vector<bool> &consumed, SelectionResult &result,
       std::vector<uint32_t> *acceptedIds)
{
    const Candidate &cand = candidates[id];
    uint32_t length = cand.len;
    uint32_t entry_id = static_cast<uint32_t>(result.dict.entries.size());
    uint32_t count = forEachNonOverlapping(
        candidates.positionsOf(cand), length, consumed,
        [&](uint32_t pos) {
            for (uint32_t i = pos; i < pos + length; ++i)
                consumed[i] = true;
            result.placements.push_back({pos, length, entry_id});
        });
    CC_ASSERT(count > 0, "accepted candidate with no live occurrences");
    std::span<const isa::Word> seq = candidates.sequenceOf(cand);
    result.dict.entries.emplace_back(seq.begin(), seq.end());
    result.useCount.push_back(count);
    if (acceptedIds)
        acceptedIds->push_back(id);
}

SelectionResult
finish(SelectionResult result)
{
    std::sort(result.placements.begin(), result.placements.end(),
              [](const Placement &a, const Placement &b) {
                  return a.start < b.start;
              });
    return result;
}

void
checkConfig(const GreedyConfig &config)
{
    std::string error = greedyConfigError(config);
    if (!error.empty())
        CC_FATAL("invalid selection config: ", error);
}

void
checkInputs(const GreedyConfig &config, const CandidateSet &candidates,
            const std::vector<uint32_t> &codewordCosts)
{
    checkConfig(config);
    CC_ASSERT(codewordCosts.empty() ||
                  codewordCosts.size() == candidates.size(),
              "per-candidate cost vector length mismatch");
}

} // namespace

SelectionResult
selectGreedyFromCandidates(size_t textSize, const CandidateSet &candidates,
                           const GreedyConfig &config,
                           const std::vector<uint32_t> &codewordCosts,
                           std::vector<uint32_t> *acceptedIds)
{
    checkInputs(config, candidates, codewordCosts);

    std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapLess> heap;
    for (uint32_t id = 0; id < candidates.size(); ++id) {
        const Candidate &cand = candidates[id];
        uint32_t occ = countNonOverlapping(candidates.positionsOf(cand),
                                           cand.len, {});
        int64_t savings = savingsNibbles(config, cand.len, occ,
                                         costOf(config, codewordCosts, id));
        if (savings > 0)
            heap.push({savings, id});
    }

    SelectionResult result;
    std::vector<bool> consumed(textSize, false);

    while (!heap.empty() &&
           result.dict.entries.size() < config.maxEntries) {
        HeapEntry top = heap.top();
        heap.pop();
        const Candidate &cand = candidates[top.candId];
        uint32_t occ = countNonOverlapping(candidates.positionsOf(cand),
                                           cand.len, consumed);
        int64_t savings =
            savingsNibbles(config, cand.len, occ,
                           costOf(config, codewordCosts, top.candId));
        CC_ASSERT(savings <= top.savings,
                  "candidate savings increased; lazy heap invalid");
        if (savings <= 0)
            continue;
        if (savings < top.savings) {
            heap.push({savings, top.candId});
            continue;
        }
        accept(candidates, top.candId, consumed, result, acceptedIds);
    }
    return finish(std::move(result));
}

SelectionResult
selectGreedyReferenceFromCandidates(size_t textSize,
                                    const CandidateSet &candidates,
                                    const GreedyConfig &config,
                                    const std::vector<uint32_t> &codewordCosts)
{
    checkInputs(config, candidates, codewordCosts);

    SelectionResult result;
    std::vector<bool> consumed(textSize, false);

    while (result.dict.entries.size() < config.maxEntries) {
        int64_t best_savings = 0;
        uint32_t best_id = UINT32_MAX;
        for (uint32_t id = 0; id < candidates.size(); ++id) {
            const Candidate &cand = candidates[id];
            uint32_t occ = countNonOverlapping(
                candidates.positionsOf(cand), cand.len, consumed);
            int64_t savings =
                savingsNibbles(config, cand.len, occ,
                               costOf(config, codewordCosts, id));
            if (savings > best_savings) {
                best_savings = savings;
                best_id = id;
            }
        }
        if (best_id == UINT32_MAX)
            break;
        accept(candidates, best_id, consumed, result, nullptr);
    }
    return finish(std::move(result));
}

SelectionResult
selectGreedy(const Program &program, const GreedyConfig &config)
{
    checkConfig(config); // before enumeration sees the bad lengths
    Cfg cfg = Cfg::build(program);
    CandidateSet candidates = enumerateCandidates(
        program, cfg, config.minEntryLen, config.maxEntryLen);
    return selectGreedyFromCandidates(program.text.size(), candidates,
                                      config);
}

SelectionResult
selectGreedyReference(const Program &program, const GreedyConfig &config)
{
    checkConfig(config);
    Cfg cfg = Cfg::build(program);
    CandidateSet candidates = enumerateCandidates(
        program, cfg, config.minEntryLen, config.maxEntryLen);
    return selectGreedyReferenceFromCandidates(program.text.size(),
                                               candidates, config);
}

} // namespace codecomp::compress
