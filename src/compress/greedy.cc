#include "compress/greedy.hh"

#include <algorithm>
#include <numeric>
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

/**
 * The candidates with one standalone occurrence and positive savings
 * (@p savingsOf), best first: in the order the heap would pop them.
 * They are collected in id order, so a stable sort by savings alone
 * keeps ties in ascending id, as HeapLess orders them.
 */
template <typename SavingsOf>
std::vector<HeapEntry>
singletonsBestFirst(const CandidateSet &candidates, SavingsOf savingsOf)
{
    std::vector<HeapEntry> list;
    for (uint32_t id = 0; id < candidates.size(); ++id) {
        if (candidates[id].count != 1)
            continue;
        int64_t savings = savingsOf(id);
        if (savings > 0)
            list.push_back({savings, id});
    }
    std::stable_sort(list.begin(), list.end(),
                     [](const HeapEntry &a, const HeapEntry &b) {
                         return a.savings > b.savings;
                     });
    return list;
}

/** Selection state: the consumed-slot mask, and the dictionary entry
 *  whose placement starts at each slot. */
class Selector
{
  public:
    Selector(size_t textSize, const CandidateSet &candidates,
             std::vector<uint32_t> *acceptedIds)
        : candidates_(candidates), acceptedIds_(acceptedIds),
          consumed_(textSize, false), entryAt_(textSize, kNoEntry)
    {}

    const std::vector<bool> &consumed() const { return consumed_; }
    size_t entries() const { return result_.dict.entries.size(); }

    /** Place every live occurrence of candidate @p id and, if there was
     *  one, add its sequence to the dictionary. Walks the identical
     *  forEachNonOverlapping as countNonOverlapping, so the savings
     *  evaluated before acceptance always match what is placed.
     *  Returns the number of occurrences placed. */
    uint32_t
    accept(uint32_t id)
    {
        const Candidate &cand = candidates_[id];
        uint32_t length = cand.len;
        uint32_t entry_id = static_cast<uint32_t>(entries());
        uint32_t count = forEachNonOverlapping(
            candidates_.positionsOf(cand), length, consumed_,
            [&](uint32_t pos) {
                for (uint32_t i = pos; i < pos + length; ++i)
                    consumed_[i] = true;
                entryAt_[pos] = entry_id;
            });
        if (count == 0)
            return 0;
        std::span<const isa::Word> seq = candidates_.sequenceOf(cand);
        result_.dict.entries.emplace_back(seq.begin(), seq.end());
        result_.useCount.push_back(count);
        if (acceptedIds_)
            acceptedIds_->push_back(id);
        return count;
    }

    /** The selection, its placements in text order: one walk over
     *  the start slots lists them. */
    SelectionResult
    finish()
    {
        result_.placements.reserve(std::reduce(
            result_.useCount.begin(), result_.useCount.end(), size_t{0}));
        for (uint32_t pos = 0; pos < entryAt_.size(); ++pos) {
            uint32_t entry_id = entryAt_[pos];
            if (entry_id != kNoEntry)
                result_.placements.push_back(
                    {pos,
                     static_cast<uint32_t>(
                         result_.dict.entries[entry_id].size()),
                     entry_id});
        }
        return std::move(result_);
    }

  private:
    static constexpr uint32_t kNoEntry = UINT32_MAX;

    const CandidateSet &candidates_;
    std::vector<uint32_t> *acceptedIds_;
    std::vector<bool> consumed_;
    std::vector<uint32_t> entryAt_;
    SelectionResult result_;
};

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

    // A candidate with one standalone occurrence keeps its savings
    // until it is dead, so it never needs re-evaluation: singletons go
    // to one list sorted best first, everything else to the lazy heap,
    // and each step takes the better of the two heads. A singleton
    // saves at most what a free codeword would at its length, so the
    // list is built only once the heap top saves no more than that.
    auto savings_of = [&](uint32_t id) {
        const Candidate &cand = candidates[id];
        return savingsNibbles(config, cand.len, cand.count,
                              costOf(config, codewordCosts, id));
    };
    std::vector<HeapEntry> seeds;
    int64_t single_bound = 0;
    for (uint32_t id = 0; id < candidates.size(); ++id) {
        const Candidate &cand = candidates[id];
        if (cand.count == 1) {
            single_bound = std::max(
                single_bound, savingsNibbles(config, cand.len, 1, 0));
            continue;
        }
        int64_t savings = savings_of(id);
        if (savings > 0)
            seeds.push_back({savings, id});
    }
    std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapLess> heap(
        HeapLess{}, std::move(seeds));

    Selector selector(textSize, candidates, acceptedIds);
    std::vector<HeapEntry> singletons;
    bool listed = false;
    auto next_single = singletons.begin();
    while (selector.entries() < config.maxEntries) {
        if (!listed &&
            (heap.empty() || heap.top().savings <= single_bound)) {
            singletons = singletonsBestFirst(candidates, savings_of);
            next_single = singletons.begin();
            listed = true;
        }
        if (next_single != singletons.end() &&
            (heap.empty() || HeapLess{}(heap.top(), *next_single))) {
            // Live: accepted at its cached savings. Dead: dropped.
            selector.accept(next_single++->candId);
            continue;
        }
        if (heap.empty())
            break;
        HeapEntry top = heap.top();
        heap.pop();
        const Candidate &cand = candidates[top.candId];
        uint32_t occ = countNonOverlapping(candidates.positionsOf(cand),
                                           cand.len, selector.consumed());
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
        uint32_t placed = selector.accept(top.candId);
        CC_ASSERT(placed > 0, "accepted candidate with no live occurrences");
    }
    return selector.finish();
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

} // namespace codecomp::compress
