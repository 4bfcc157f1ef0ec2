#include "compress/strategy.hh"

#include <algorithm>
#include <functional>
#include <string>

#include "compress/greedy.hh"
#include "support/logging.hh"

namespace codecomp::compress {

namespace {

/** Every uniform codeword width the scheme's encoding can produce,
 *  except the width greedy already assumed in round 0. */
std::vector<unsigned>
alternativeWidths(const GreedyConfig &config, Scheme scheme)
{
    std::vector<unsigned> widths;
    unsigned max = schemeParams(scheme).maxCodewords;
    for (uint32_t rank = 0; rank < max; ++rank) {
        unsigned width = codewordNibbles(scheme, rank);
        if (width != config.codewordNibbles &&
            (widths.empty() || widths.back() != width))
            widths.push_back(width);
    }
    return widths;
}

/** True per-candidate codeword costs under @p previous's frequency
 *  ranking: actual rank width for previously selected sequences
 *  (entry e is candidate previousIds[e]), predicted rank width (by
 *  standalone occurrence count) for the rest. */
std::vector<uint32_t>
rankDerivedCosts(const CandidateSet &candidates,
                 const SelectionResult &previous,
                 const std::vector<uint32_t> &previousIds, Scheme scheme)
{
    std::vector<uint32_t> rank_of_entry = rankByUseCount(previous);
    constexpr uint32_t kUnselected = UINT32_MAX;
    std::vector<uint32_t> rank_of_cand(candidates.size(), kUnselected);
    for (uint32_t e = 0; e < previousIds.size(); ++e)
        rank_of_cand[previousIds[e]] = rank_of_entry[e];

    // useCount sorted descending IS the rank order; an unselected
    // candidate with occ occurrences would slot in after every
    // entry used more than occ times.
    std::vector<uint32_t> by_rank = previous.useCount;
    std::sort(by_rank.begin(), by_rank.end(), std::greater<>());

    std::vector<uint32_t> costs(candidates.size());
    for (uint32_t id = 0; id < candidates.size(); ++id) {
        uint32_t rank = rank_of_cand[id];
        if (rank == kUnselected) {
            rank = static_cast<uint32_t>(
                std::upper_bound(by_rank.begin(), by_rank.end(),
                                 candidates[id].count,
                                 std::greater<>()) -
                by_rank.begin());
            // A full dictionary predicts one-past-the-last rank;
            // price it like the widest real codeword.
            rank = std::min(rank, schemeParams(scheme).maxCodewords - 1);
        }
        costs[id] = codewordNibbles(scheme, rank);
    }
    return costs;
}

/**
 * Rank-aware cost refit. Greedy selection prices every codeword at one
 * assumed width, but the nibble scheme's true width is rank-dependent
 * (1..4 nibbles), so the assumption is wrong in two ways:
 *
 *  1. A global bias: the scheme default (2 nibbles) underestimates the
 *     width of most of the dictionary (every entry past rank 72 costs
 *     3-4 nibbles), so greedy over-admits marginal entries -- and each
 *     extra entry also pushes later entries across the 8/72/584 rank
 *     boundaries, widening *their* codewords.
 *  2. Per-candidate error: the most frequent entries cost only 1-2
 *     nibbles, less than a pessimistic global assumption would charge.
 *
 * The refit loop attacks both, keeping the selection with the smallest
 * estimated compressed size (estimateSelectionNibbles) throughout:
 *
 *  - Round 0 is plain greedy at the configured assumed cost --
 *    identical to the Greedy strategy, so refit can never end up with
 *    a worse estimate than greedy.
 *  - Bias rounds re-run greedy once per alternative uniform codeword
 *    width the scheme can produce (for the nibble scheme: 1, 3, and 4
 *    when the default 2 is configured). Fixed-width schemes have no
 *    alternative widths, so these rounds vanish there.
 *  - Rank rounds then re-run greedy with true per-candidate costs
 *    derived from the best selection so far: a previously selected
 *    candidate is priced at its actual rank's width, any other
 *    candidate at the width of the rank its standalone occurrence
 *    count would earn in that ranking. The loop stops when a round
 *    fails to improve the estimate or the round budget is exhausted.
 */
SelectProduct
selectRefit(uint32_t maxRounds, const CandidateSet &candidates,
            const GreedyConfig &config, Scheme scheme)
{
    size_t textSize = candidates.text.size();
    SelectProduct best;
    // best_ids[e]: the candidate behind entry e of best.
    std::vector<uint32_t> best_ids;
    best.selection = selectGreedyFromCandidates(textSize, candidates,
                                                config, {}, &best_ids);
    uint64_t best_estimate =
        estimateSelectionNibbles(best.selection, config, scheme, textSize);
    uint32_t budget = maxRounds;

    for (unsigned width : alternativeWidths(config, scheme)) {
        if (budget == 0)
            break;
        GreedyConfig biased = config;
        biased.codewordNibbles = width;
        std::vector<uint32_t> ids;
        SelectionResult result = selectGreedyFromCandidates(
            textSize, candidates, biased, {}, &ids);
        uint64_t estimate =
            estimateSelectionNibbles(result, config, scheme, textSize);
        ++best.rounds;
        --budget;
        if (estimate < best_estimate) {
            best.selection = std::move(result);
            best_ids = std::move(ids);
            best_estimate = estimate;
        }
    }

    while (budget > 0) {
        std::vector<uint32_t> costs =
            rankDerivedCosts(candidates, best.selection, best_ids, scheme);
        std::vector<uint32_t> ids;
        SelectionResult result = selectGreedyFromCandidates(
            textSize, candidates, config, costs, &ids);
        uint64_t estimate =
            estimateSelectionNibbles(result, config, scheme, textSize);
        ++best.rounds;
        --budget;
        if (estimate >= best_estimate)
            break;
        best.selection = std::move(result);
        best_ids = std::move(ids);
        best_estimate = estimate;
    }
    return best;
}

} // namespace

const char *
strategyName(StrategyKind kind)
{
    switch (kind) {
      case StrategyKind::Greedy:
        return "greedy";
      case StrategyKind::IterativeRefit:
        return "refit";
    }
    CC_PANIC("bad strategy kind");
}

std::optional<StrategyKind>
parseStrategyName(std::string_view name)
{
    if (name == "greedy")
        return StrategyKind::Greedy;
    if (name == "refit")
        return StrategyKind::IterativeRefit;
    return std::nullopt;
}

const std::vector<StrategyKind> &
allStrategyKinds()
{
    static const std::vector<StrategyKind> kinds = {
        StrategyKind::Greedy,
        StrategyKind::IterativeRefit,
    };
    return kinds;
}

std::string
strategyCliNames(const char *sep)
{
    std::string names;
    for (StrategyKind kind : allStrategyKinds()) {
        if (!names.empty())
            names += sep;
        names += strategyName(kind);
    }
    return names;
}

const char *
strategySummary(StrategyKind kind)
{
    switch (kind) {
      case StrategyKind::Greedy:
        return "lazy-heap greedy at the scheme's assumed codeword cost";
      case StrategyKind::IterativeRefit:
        return "rank-aware cost refit loop around greedy";
    }
    CC_PANIC("bad strategy kind");
}

StrategyKind
parseStrategyNameOrFatal(std::string_view name)
{
    std::optional<StrategyKind> kind = parseStrategyName(name);
    if (!kind)
        CC_FATAL("unknown strategy \"", std::string(name),
                 "\" (expected ", strategyCliNames(", "), ")");
    return *kind;
}

SelectProduct
selectDictionary(StrategyKind kind, uint32_t refitMaxRounds,
                 const CandidateSet &candidates, const GreedyConfig &config,
                 Scheme scheme)
{
    switch (kind) {
      case StrategyKind::Greedy:
        return {selectGreedyFromCandidates(candidates.text.size(),
                                           candidates, config),
                1};
      case StrategyKind::IterativeRefit:
        return selectRefit(refitMaxRounds, candidates, config, scheme);
    }
    CC_PANIC("bad strategy kind");
}

SelectionResult
selectByTraffic(const Program &program,
                const std::vector<uint64_t> &execCount,
                const GreedyConfig &config)
{
    std::string config_error = greedyConfigError(config);
    if (!config_error.empty())
        CC_FATAL("bad selection config: ", config_error);
    if (execCount.size() != program.text.size())
        CC_FATAL("profile covers ", execCount.size(),
                 " instructions, program has ", program.text.size());

    Cfg cfg = Cfg::build(program);
    CandidateSet candidates = enumerateCandidates(
        program, cfg, config.minEntryLen, config.maxEntryLen);

    // Dynamic nibbles saved by one occurrence per execution; the whole
    // sequence executes together (single basic block), so its count is
    // the count of its first instruction.
    auto traffic_savings = [&](const Candidate &cand,
                               const std::vector<bool> &consumed) {
        int64_t per_exec =
            static_cast<int64_t>(config.insnNibbles) * cand.len -
            static_cast<int64_t>(config.codewordNibbles);
        int64_t total = 0;
        forEachNonOverlapping(candidates.positionsOf(cand), cand.len,
                              consumed,
                              [&](uint32_t pos) {
                                  total += per_exec *
                                           static_cast<int64_t>(
                                               execCount[pos]);
                              });
        return total;
    };

    SelectionResult result;
    std::vector<bool> consumed(program.text.size(), false);
    while (result.dict.entries.size() < config.maxEntries) {
        int64_t best = 0;
        uint32_t best_id = UINT32_MAX;
        for (uint32_t id = 0; id < candidates.size(); ++id) {
            int64_t savings = traffic_savings(candidates[id], consumed);
            if (savings > best) {
                best = savings;
                best_id = id;
            }
        }
        if (best_id == UINT32_MAX)
            break;
        const Candidate &cand = candidates[best_id];
        uint32_t length = cand.len;
        uint32_t entry_id =
            static_cast<uint32_t>(result.dict.entries.size());
        uint32_t uses = forEachNonOverlapping(
            candidates.positionsOf(cand), length, consumed,
            [&](uint32_t pos) {
                for (uint32_t i = pos; i < pos + length; ++i)
                    consumed[i] = true;
                result.placements.push_back({pos, length, entry_id});
            });
        std::span<const isa::Word> seq = candidates.sequenceOf(cand);
        result.dict.entries.emplace_back(seq.begin(), seq.end());
        result.useCount.push_back(uses);
    }
    std::sort(result.placements.begin(), result.placements.end(),
              [](const Placement &a, const Placement &b) {
                  return a.start < b.start;
              });
    return result;
}

uint64_t
estimateSelectionNibbles(const SelectionResult &selection,
                         const GreedyConfig &config, Scheme scheme,
                         size_t textSize)
{
    std::vector<uint32_t> rank_of_entry = rankByUseCount(selection);
    uint64_t stream = 0;
    uint64_t covered = 0;
    for (const Placement &p : selection.placements) {
        stream += codewordNibbles(scheme, rank_of_entry[p.entryId]);
        covered += p.length;
    }
    CC_ASSERT(covered <= textSize, "placements exceed text");
    stream += (textSize - covered) * config.insnNibbles;
    uint64_t dict = 0;
    for (const auto &entry : selection.dict.entries)
        dict += entry.size() * config.dictEntryNibbles +
                config.dictEntryExtraNibbles;
    return stream + dict;
}

} // namespace codecomp::compress
