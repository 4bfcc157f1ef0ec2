/**
 * @file
 * Profile-guided memory-budget autotuner: the closed loop over the
 * paper's central trade. The measurement stack (cctime, ext_timing)
 * prices ONE configuration; this subsystem SEARCHES the configuration
 * space. Given on-chip byte budgets (I-cache capacity + dictionary
 * ROM), it enumerates scheme x strategy x dictionary-share x layout x
 * cache-geometry candidates, compresses them as farm jobs via
 * runFarm -- reusing the shared PipelineCache (enumeration keys are
 * scheme-independent, so the whole sweep enumerates each workload
 * once) and the farm's --isolate fault tolerance -- times every image
 * under every kept geometry with timing::FetchTimer, and reports the
 * Pareto frontier over (on-chip bytes, cycles) plus the winner at each
 * requested budget. Each program is built and runs natively once,
 * before the farm, and nothing else executes: that run prices the
 * native baseline, supplies the traffic profile of the program's
 * hot/cold candidates (DESIGN.md section 14.6), and records the trace
 * that prices by replay every image the farm compresses from that
 * build and hands back in memory (section 14.7).
 *
 * Pruning keeps the sweep tractable (DESIGN.md section 14):
 *
 *  - geometry cutoff: a cache whose capacity alone exceeds the largest
 *    budget can never be feasible and is dropped up front;
 *  - analytic dictionary cutoff: a dictionary cap whose minimum ROM
 *    footprint (4 bytes per entry, the smallest possible entry) cannot
 *    fit beside the smallest kept cache is dropped -- a smaller cap
 *    subsumes it within budget;
 *  - dominated-point elimination: the frontier keeps only points no
 *    other point beats on both axes; budget winners read off it.
 *
 * Everything downstream of the (deterministic) farm is deterministic:
 * the same spec produces a byte-identical AutotuneResult::toJson() for
 * any --jobs value, inline or isolated, with or without a cache dir.
 */

#ifndef CODECOMP_AUTOTUNE_AUTOTUNE_HH
#define CODECOMP_AUTOTUNE_AUTOTUNE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cache/icache.hh"
#include "compress/cache.hh"
#include "compress/compressor.hh"
#include "compress/strategy.hh"
#include "farm/farm.hh"
#include "timing/timing.hh"

namespace codecomp::autotune {

/** What to search, and under which machine model. */
struct BudgetSpec
{
    /** On-chip byte budgets to answer for (I-cache capacity +
     *  dictionary ROM; the timing model's L2, when configured, is a
     *  fixed backdrop and not counted). At least one required. */
    std::vector<uint64_t> budgets;

    /** Candidate L1 I-cache geometries; validated like any timing
     *  cache config. At least one required. */
    std::vector<cache::CacheConfig> cacheGeometries;

    /** Candidate schemes; empty = every registered codec. */
    std::vector<compress::Scheme> schemes;

    /** Candidate selection strategies; empty = {greedy, refit}. */
    std::vector<compress::StrategyKind> strategies;

    /** Candidate dictionary caps (CompressorConfig::maxEntries),
     *  clipped per scheme to its codeword budget and deduplicated;
     *  empty = {16, 64, 256, 1024, 4096}. */
    std::vector<uint32_t> dictCaps;

    /** Also try the profile-guided hot/cold layout for every
     *  candidate (doubles the compression space). */
    bool tryHotCold = true;

    /** Machine model shared by every candidate; the icache field is
     *  overridden by each candidate geometry. An l2 here applies to
     *  every point (native included) as a fixed backdrop. */
    timing::TimingConfig model;

    /** Execution step bound per timing run. */
    uint64_t maxSteps = 1ull << 27;
};

/** Human-readable reason @p spec cannot drive a search, or "". */
std::string budgetSpecError(const BudgetSpec &spec);

/** One compression configuration the search will evaluate. */
struct SearchPoint
{
    compress::CompressorConfig config;
    std::string label; //!< "nibble/refit/d256/hotcold"
};

/**
 * Deterministic candidate enumerator with the pre-measurement pruning
 * rules (geometry cutoff + analytic dictionary cutoff). Construction
 * raises a catchable fatal on an invalid spec.
 */
struct SearchSpace
{
    explicit SearchSpace(const BudgetSpec &spec);

    std::vector<SearchPoint> points; //!< survivors, enumeration order
    /** Geometries that fit the largest budget, in spec order. */
    std::vector<cache::CacheConfig> geometries;
    uint64_t enumerated = 0;       //!< configs before pruning
    uint64_t pruned = 0;           //!< configs dropped
    uint64_t prunedGeometries = 0; //!< geometries dropped
};

/** One evaluated (configuration, geometry) pair on the byte/cycle
 *  plane. Native baselines appear with scheme "native". */
struct CandidatePoint
{
    std::string id;       //!< "<label>@<cap>:<line>:<ways>"
    std::string scheme;   //!< codec CLI name, or "native"
    std::string strategy; //!< "" for native
    std::string layout;   //!< "" for native
    uint32_t dictEntries = 0; //!< configured cap (0 for native)

    cache::CacheConfig geometry;
    uint64_t dictBytes = 0;  //!< measured dictionary ROM
    uint64_t totalBytes = 0; //!< image total (text for native)
    uint64_t onChipBytes = 0; //!< geometry capacity + dictBytes
    bool native = false;

    timing::TimingReport report;

    uint64_t cycles() const { return report.cycles(); }
};

/** The winning point index for one requested budget (-1 = nothing
 *  feasible at that budget). */
struct BudgetWinner
{
    uint64_t budget = 0;
    int32_t point = -1;
};

/** Every point, the Pareto frontier, and per-budget winners for one
 *  workload. */
struct WorkloadResult
{
    std::string workload;
    std::vector<CandidatePoint> points;
    /** Indices into points, ascending onChipBytes, strictly descending
     *  cycles (dominated points eliminated). */
    std::vector<uint32_t> frontier;
    std::vector<BudgetWinner> winners; //!< one per requested budget
};

struct AutotuneResult
{
    std::vector<uint64_t> budgets; //!< sorted, deduplicated
    std::vector<WorkloadResult> workloads;

    uint64_t enumerated = 0;
    uint64_t pruned = 0;
    uint64_t prunedGeometries = 0;
    uint64_t keptGeometries = 0; //!< for human output; not in toJson()
    uint64_t failedJobs = 0; //!< farm jobs that produced no image

    /** Run-variant extras, for human output only -- deliberately NOT
     *  part of toJson() so the artifact stays byte-identical across
     *  --jobs, isolation and cache dirs. */
    compress::PipelineCache::Stats cacheStats;
    double wallMillis = 0.0;
    double nativeMillis = 0.0; //!< native runs: baselines and traces
    double farmMillis = 0.0;   //!< compressing every candidate
    double priceMillis = 0.0;  //!< replaying the traces through images

    /** The deterministic artifact: spec echo, every point, frontier
     *  ids, and the budget -> winner table. */
    std::string toJson() const;
};

/**
 * Run the search over @p workloadNames, compressing the candidates
 * with runFarm under @p farmOptions. Catchable fatal on an invalid spec or unknown
 * workload name (validated before any work starts).
 */
AutotuneResult autotune(const std::vector<std::string> &workloadNames,
                        const BudgetSpec &spec,
                        const farm::FarmOptions &farmOptions = {});

} // namespace codecomp::autotune

#endif // CODECOMP_AUTOTUNE_AUTOTUNE_HH
