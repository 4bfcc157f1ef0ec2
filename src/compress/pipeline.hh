/**
 * @file
 * The compression passes: six named steps over a shared
 * PipelineContext, each timed with its counters into PassStats.
 *
 * The passes, in order:
 *
 *   Enumerate   - CFG construction + candidate enumeration
 *   Select      - dictionary selection under the configured
 *                 StrategyKind (selectDictionary, strategy.hh)
 *   RankAssign  - frequency ranking, rank-ordered dictionary
 *   Layout      - compressed-stream item list + initial addresses
 *   BranchPatch - far-branch stub expansion to fixpoint
 *   Emit        - nibble-stream emission + jump-table re-patching
 *
 * compressProgram() (compressor.hh) runs all six from one fixed table
 * of names and pass functions; compressWithSelection() runs the last
 * four over a caller's selection. The pass functions are exposed for
 * tests that step through them by hand.
 */

#ifndef CODECOMP_COMPRESS_PIPELINE_HH
#define CODECOMP_COMPRESS_PIPELINE_HH

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "compress/cache.hh"
#include "compress/candidates.hh"
#include "compress/compressor.hh"
#include "compress/strategy.hh"

namespace codecomp::compress {

struct LayoutWork;

/** Timing and counters for one executed pass. */
struct PassStats
{
    std::string name;
    double millis = 0.0;

    /** Pass-specific counts (candidates, entries, expansions, ...),
     *  in insertion order. */
    std::vector<std::pair<std::string, uint64_t>> counters;

    /** Counter value by name; 0 if the pass never set it. */
    uint64_t counter(std::string_view key) const;
};

/** Run record of one pipeline execution. */
struct PipelineStats
{
    std::string strategy; //!< strategyName(config.strategy)
    std::string scheme;
    uint32_t selectionRounds = 1;
    std::vector<PassStats> passes;

    double totalMillis() const;

    /** Stats of the pass named @p name, or nullptr if it did not run. */
    const PassStats *pass(std::string_view name) const;

    /** Serialize to a JSON object (support/json.hh). */
    std::string toJson() const;
};

/**
 * Everything the passes share. Constructing a context validates the
 * derived selection config (fatal on nonsense like minEntryLen >
 * maxEntryLen).
 */
struct PipelineContext
{
    PipelineContext(const Program &program, const CompressorConfig &config);
    ~PipelineContext();
    PipelineContext(const PipelineContext &) = delete;
    PipelineContext &operator=(const PipelineContext &) = delete;

    const Program &program;
    CompressorConfig config;
    SchemeParams params;
    GreedyConfig greedy; //!< derived: clipped maxEntries, scheme costs

    /**
     * Optional Enumerate/Select result cache (cache.hh), shared across
     * compressions (the farm attaches one per corpus run). When set,
     * @p programHash must hold PipelineCache::programHash(program);
     * cached products are used instead of being recomputed. Null
     * leaves the passes byte-for-byte as before -- and cached runs
     * produce bit-identical images anyway, because both cached stages
     * are deterministic in the key.
     */
    PipelineCache *cache = nullptr;
    uint64_t programHash = 0;
    /** Keys this run must compute (cache.hh); abandoned if it throws. */
    PipelineCache::Claim selectClaim, enumerateClaim;

    // ---- pass products ----
    /** Enumerate: the candidates, computed or shared with the cache.
     *  Stays null when the cache already held the Select product:
     *  Enumerate then fills @p selection and Select keeps it. */
    std::shared_ptr<const CandidateSet> candidates;
    SelectProduct selection;            //!< Select (or seeded by caller)
    std::unique_ptr<LayoutWork> layout; //!< Layout..Emit
    CompressedImage image;              //!< RankAssign..Emit

    /** Record a counter on the pass currently running (no-op when the
     *  pass functions are called one by one). */
    void counter(std::string name, uint64_t value);

    PassStats *activePass = nullptr;
};

// The six passes, exposed individually for tests.
void passEnumerate(PipelineContext &ctx);
void passSelect(PipelineContext &ctx);
void passRankAssign(PipelineContext &ctx);
void passLayout(PipelineContext &ctx);
void passBranchPatch(PipelineContext &ctx);
void passEmit(PipelineContext &ctx);

} // namespace codecomp::compress

#endif // CODECOMP_COMPRESS_PIPELINE_HH
