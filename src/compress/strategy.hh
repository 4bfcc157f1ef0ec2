/**
 * @file
 * Dictionary-selection policies for the compression pipeline's Select
 * pass.
 *
 * The paper's compressor selects greedily with a *fixed assumed*
 * codeword cost, even though the nibble scheme's true cost is 4/8/12/16
 * bits depending on the entry's final frequency rank (DESIGN.md section
 * 5.3). StrategyKind turns that choice into a policy:
 *
 *  - Greedy:         the production lazy-heap greedy at the scheme's
 *                    assumed cost (exact greedy, fast).
 *  - IterativeRefit: re-runs greedy selection with corrected codeword
 *                    costs -- first the alternative uniform widths the
 *                    scheme can produce, then per-candidate costs
 *                    derived from the best round's frequency ranking
 *                    -- keeping the best selection by estimated
 *                    compressed size, until the estimate stops
 *                    improving or a bounded round count is hit.
 *                    Round 0 equals Greedy, so refit never estimates
 *                    worse than greedy.
 *
 * selectDictionary() runs either policy and reports the rounds it took
 * next to the selection.
 */

#ifndef CODECOMP_COMPRESS_STRATEGY_HH
#define CODECOMP_COMPRESS_STRATEGY_HH

#include <optional>
#include <string>
#include <string_view>

#include "compress/candidates.hh"
#include "compress/encoding.hh"
#include "compress/selection.hh"

namespace codecomp::compress {

/** Selection policies. The values are part of the Select cache key
 *  (and so of every on-disk store): pinned, never renumbered. */
enum class StrategyKind : uint8_t {
    Greedy = 0,         //!< lazy-heap greedy, assumed codeword cost
    IterativeRefit = 2, //!< rank-aware cost refit loop around greedy
};

/** CLI name of @p kind: "greedy", "refit". */
const char *strategyName(StrategyKind kind);

/** Inverse of strategyName; nullopt for an unknown name. */
std::optional<StrategyKind> parseStrategyName(std::string_view name);

/** Every registered strategy kind, in CLI-listing order. */
const std::vector<StrategyKind> &allStrategyKinds();

/** The CLI names of every strategy joined by @p sep, for usage text
 *  and error messages ("greedy, refit"). */
std::string strategyCliNames(const char *sep = ", ");

/** One-line description of @p kind (ccompress --list-strategies). */
const char *strategySummary(StrategyKind kind);

/** parseStrategyName that raises a catchable fatal naming the valid
 *  set on an unknown name; the shared parse path of ccfarm/ccautotune
 *  and the job-spec reader. */
StrategyKind parseStrategyNameOrFatal(std::string_view name);

/** The Select product: the dictionary selection plus the selection
 *  rounds that produced it. The Select cache stores it whole, so a
 *  cache hit reports the rounds of the run that computed it. */
struct SelectProduct
{
    SelectionResult selection;
    uint32_t rounds = 1;
};

/** Select a dictionary over @p candidates with policy @p kind.
 *  @p refitMaxRounds bounds the IterativeRefit iterations after the
 *  initial greedy round (uniform-width bias rounds plus rank-derived
 *  rounds; the rank-derived loop also stops as soon as the estimated
 *  size stops improving). @p scheme feeds the refit loop's rank-aware
 *  cost model; Greedy reads neither. */
SelectProduct selectDictionary(StrategyKind kind, uint32_t refitMaxRounds,
                               const CandidateSet &candidates,
                               const GreedyConfig &config, Scheme scheme);

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
