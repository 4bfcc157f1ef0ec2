/**
 * @file
 * The compression pipeline: an explicit sequence of named passes over a
 * shared PipelineContext, with per-pass wall time and counters.
 *
 * The passes, in order (Pipeline::standard()):
 *
 *   Enumerate   - CFG construction + candidate enumeration
 *   Select      - dictionary selection through the configured
 *                 SelectionStrategy (strategy.hh)
 *   RankAssign  - frequency ranking, rank-ordered dictionary
 *   Layout      - compressed-stream item list + initial addresses
 *   BranchPatch - far-branch stub expansion to fixpoint
 *   Emit        - nibble-stream emission + jump-table re-patching
 *
 * compressProgram()/compressWithSelection() (compressor.hh) are thin
 * wrappers over Pipeline::standard()/Pipeline::fromSelection(); callers
 * that want the per-pass breakdown run the pipeline directly or use the
 * stats-returning compressProgram overload.
 */

#ifndef CODECOMP_COMPRESS_PIPELINE_HH
#define CODECOMP_COMPRESS_PIPELINE_HH

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "compress/cache.hh"
#include "compress/candidates.hh"
#include "compress/compressor.hh"
#include "compress/strategy.hh"
#include "program/cfg.hh"

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
    std::string strategy; //!< SelectionStrategy name, "" if preselected
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
 * maxEntryLen) and instantiates the configured strategy.
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

    std::unique_ptr<SelectionStrategy> strategy;

    /**
     * Optional Enumerate/Select result cache (cache.hh), shared across
     * compressions (the farm attaches one per corpus run). When set,
     * @p programHash must hold PipelineCache::programHash(program);
     * products land in sharedCandidates / cachedSelection instead of
     * being recomputed. Null leaves the pipeline byte-for-byte as
     * before -- and cached runs produce bit-identical images anyway,
     * because both cached stages are deterministic in the key.
     */
    PipelineCache *cache = nullptr;
    uint64_t programHash = 0;

    // ---- pass products ----
    std::optional<Cfg> cfg;            //!< Enumerate
    CandidateSet candidates;           //!< Enumerate
    /** Enumerate product when served by (or stored into) the cache. */
    std::shared_ptr<const CandidateSet> sharedCandidates;
    /** Select product when the cache already held it (set during
     *  Enumerate, consumed by Select). */
    std::shared_ptr<const CachedSelection> cachedSelection;
    /** Rounds to report when Select was served from cache (0 = ask the
     *  strategy, as before). */
    uint32_t selectionRoundsOverride = 0;
    SelectionResult selection;         //!< Select (or seeded by caller)
    std::unique_ptr<LayoutWork> layout; //!< Layout..Emit
    CompressedImage image;             //!< RankAssign..Emit

    /** The enumerated candidates, wherever they live. */
    const CandidateSet &
    candidateList() const
    {
        return sharedCandidates ? *sharedCandidates : candidates;
    }

    /** Record a counter on the pass currently running (no-op when the
     *  pass functions are called outside Pipeline::run). */
    void counter(std::string name, uint64_t value);

    PassStats *activePass = nullptr;
};

/** An ordered list of named passes. */
class Pipeline
{
  public:
    using PassFn = std::function<void(PipelineContext &)>;

    Pipeline &addPass(std::string name, PassFn fn);

    /** Run every pass in order, timing each; ctx.image holds the
     *  compressed program afterwards. */
    PipelineStats run(PipelineContext &ctx) const;

    /** The full six-pass compression pipeline. */
    static Pipeline standard();

    /** RankAssign..Emit only, for a caller-seeded ctx.selection. */
    static Pipeline fromSelection();

  private:
    struct Pass
    {
        std::string name;
        PassFn fn;
    };

    std::vector<Pass> passes_;
};

// The standard passes, exposed individually for tests.
void passEnumerate(PipelineContext &ctx);
void passSelect(PipelineContext &ctx);
void passRankAssign(PipelineContext &ctx);
void passLayout(PipelineContext &ctx);
void passBranchPatch(PipelineContext &ctx);
void passEmit(PipelineContext &ctx);

} // namespace codecomp::compress

#endif // CODECOMP_COMPRESS_PIPELINE_HH
