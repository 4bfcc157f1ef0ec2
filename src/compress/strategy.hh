/**
 * @file
 * Pluggable dictionary-selection strategies for the compression
 * pipeline's Select pass.
 *
 * The paper's compressor selects greedily with a *fixed assumed*
 * codeword cost, even though the nibble scheme's true cost is 4/8/12/16
 * bits depending on the entry's final frequency rank (DESIGN.md section
 * 5.3). A strategy object turns that choice into a policy:
 *
 *  - Greedy:          the production lazy-heap greedy at the scheme's
 *                     assumed cost (exact greedy, fast).
 *  - GreedyReference: the O(candidates x selections) oracle with the
 *                     same tie-breaking; differential-testing anchor.
 *  - IterativeRefit:  re-runs greedy selection with corrected codeword
 *                     costs -- first the alternative uniform widths the
 *                     scheme can produce, then per-candidate costs
 *                     derived from the best round's frequency ranking
 *                     -- keeping the best selection by estimated
 *                     compressed size, until the estimate stops
 *                     improving or a bounded round count is hit.
 *                     Round 0 equals Greedy, so refit never estimates
 *                     worse than greedy.
 *
 * Strategies are stateless between select() calls except for
 * per-invocation statistics (rounds), so one instance per compression
 * is the intended lifetime (PipelineContext owns it).
 */

#ifndef CODECOMP_COMPRESS_STRATEGY_HH
#define CODECOMP_COMPRESS_STRATEGY_HH

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "compress/candidates.hh"
#include "compress/encoding.hh"
#include "compress/selection.hh"

namespace codecomp::compress {

enum class StrategyKind : uint8_t {
    Greedy,          //!< lazy-heap greedy, assumed codeword cost
    GreedyReference, //!< naive from-scratch greedy oracle
    IterativeRefit,  //!< rank-aware cost refit loop around greedy
};

/** CLI name of @p kind: "greedy", "reference", "refit". */
const char *strategyName(StrategyKind kind);

/** Inverse of strategyName; nullopt for an unknown name. */
std::optional<StrategyKind> parseStrategyName(std::string_view name);

/** Every registered strategy kind, in CLI-listing order. */
const std::vector<StrategyKind> &allStrategyKinds();

/** The CLI names of every strategy joined by @p sep, for usage text
 *  and error messages ("greedy, reference, refit"). */
std::string strategyCliNames(const char *sep = ", ");

/** One-line description of @p kind (ccompress --list-strategies). */
const char *strategySummary(StrategyKind kind);

/** parseStrategyName that raises a catchable fatal naming the valid
 *  set on an unknown name; the shared parse path of ccfarm/ccautotune
 *  and the job-spec reader. */
StrategyKind parseStrategyNameOrFatal(std::string_view name);

class SelectionStrategy
{
  public:
    virtual ~SelectionStrategy() = default;

    virtual const char *name() const = 0;

    /** Select a dictionary over pre-enumerated @p candidates.
     *  @p textSize is program.text.size(); @p scheme feeds rank-aware
     *  cost models (ignored by the fixed-cost strategies). */
    virtual SelectionResult select(size_t textSize,
                                   const CandidateSet &candidates,
                                   const GreedyConfig &config,
                                   Scheme scheme) = 0;

    /** Selection rounds the last select() ran (1 for single-pass). */
    virtual uint32_t rounds() const { return 1; }
};

struct RefitOptions
{
    /** Refit iterations after the initial greedy round (uniform-width
     *  bias rounds plus rank-derived rounds); the rank-derived loop
     *  also stops as soon as the estimated size stops improving. */
    uint32_t maxRounds = 6;
};

std::unique_ptr<SelectionStrategy> makeStrategy(StrategyKind kind,
                                                const RefitOptions &refit = {});

/**
 * Traffic-weighted greedy selection: maximize *dynamic* fetch nibbles
 * saved instead of static nibbles. Each occurrence of a candidate is
 * worth (insnNibbles * len - codewordNibbles) nibbles of fetch traffic
 * per execution; a candidate lies within one basic block, so the
 * execution count of an occurrence is the count of its first
 * instruction. @p execCount holds per-instruction execution counts
 * indexed by original instruction index (timing::profileExecutionCounts
 * produces one from a profiling run) and must cover program.text.
 *
 * This is the static-vs-traffic objective split of bench/ext_profile,
 * promoted into the library so the timing subsystem and future
 * profile-guided strategies share one definition. Catchable fatal on an
 * invalid config or a mis-sized profile.
 */
SelectionResult selectByTraffic(const Program &program,
                                const std::vector<uint64_t> &execCount,
                                const GreedyConfig &config);

/**
 * Estimated compressed size, in nibbles, of @p selection: codewords at
 * their rank-derived width + uncompressed instructions + dictionary
 * contents. Equals Composition::totalNibbles() of the realized image
 * whenever layout inserts no far-branch stubs (the overwhelmingly
 * common case; see ext_ablations A3). The refit loop minimizes this.
 */
uint64_t estimateSelectionNibbles(const SelectionResult &selection,
                                  const GreedyConfig &config, Scheme scheme,
                                  size_t textSize);

} // namespace codecomp::compress

#endif // CODECOMP_COMPRESS_STRATEGY_HH
