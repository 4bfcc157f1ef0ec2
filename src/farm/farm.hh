/**
 * @file
 * ccfarm: a batched, cached, fault-tolerant multi-program compression
 * service.
 *
 * A farm run takes a queue of jobs -- (workload program, compressor
 * config) pairs -- and produces one aggregated report. The run:
 *
 *  - builds each distinct (workload, scale) program exactly once, in
 *    parallel on the global worker pool;
 *  - shards the job queue across the same pool (one task per job;
 *    each job's compression is serial within its task);
 *  - deduplicates Enumerate/Select work through a shared PipelineCache
 *    (compress/cache.hh) keyed by program content hash + config --
 *    optionally backed by a crash-safe on-disk store (cacheDir) that
 *    survives across runs and processes; a job that duplicates an
 *    earlier one (same program and Select key) runs in a second wave,
 *    so it is a Select hit at any pool width;
 *  - streams per-job results (sizes, image bytes + FNV-1a64 digest,
 *    per-pass PipelineStats) into a FarmReport in job order.
 *
 * Fault tolerance (FarmOptions::isolate) moves each job into a forked
 * worker subprocess (the ccfarm binary in its hidden --worker mode):
 * a CC_PANIC, machine check, OOM-kill, or segfault in one job becomes
 * a structured per-job failure -- classified by FailureKind -- instead
 * of taking down the run. Jobs carry wall-clock deadlines (hung
 * workers are killed and reported as Timeout) and a retry budget with
 * exponential backoff + seeded jitter; attempts and the final failure
 * kind land in the report.
 *
 * Output images are bit-identical to the serial single-program path
 * (compress::compressProgram) for any pool width, isolated or inline,
 * on any attempt, cache off/on/persistent: jobs are index-addressed,
 * and both cached stages are deterministic pure functions of the
 * cache key.
 *
 * The starter corpus is the paper's sweep: 8 workloads x every
 * registered scheme x {greedy, refit} strategies. Larger corpora come
 * from job-spec JSON files (jobspec.hh).
 */

#ifndef CODECOMP_FARM_FARM_HH
#define CODECOMP_FARM_FARM_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "compress/cache.hh"
#include "compress/compressor.hh"
#include "compress/pipeline.hh"

namespace codecomp::farm {

/** One compression job: which program, compressed how. */
struct FarmJob
{
    std::string id;       //!< report key, e.g. "gcc/nibble/refit"
    std::string workload; //!< benchmark name (workloads.hh)
    int scale = 1;        //!< workload generator scale factor
    compress::CompressorConfig config;

    /** Per-job wall-clock deadline in ms; -1 = the farm default
     *  (FarmOptions::jobTimeoutMs), 0 = explicitly no deadline.
     *  Enforced only for isolated jobs (spec key "timeout_ms"). */
    int64_t timeoutMs = -1;

    /** Per-job retry budget; -1 = the farm default
     *  (FarmOptions::retries). Spec key "retries". */
    int32_t retries = -1;
};

/** Why a job ultimately failed -- the farm's failure taxonomy. */
enum class FailureKind : uint8_t {
    None = 0,     //!< the job succeeded
    Crash,        //!< worker died: signal, CC_PANIC, or abrupt exit
    Timeout,      //!< deadline expired; the worker was killed
    LoadError,    //!< spec/result/file plumbing failed (LoadFailure)
    MachineCheck, //!< a MachineCheckError surfaced from the worker
    SpecError,    //!< deterministic job error (bad config); not retried
};

const char *failureKindName(FailureKind kind);

/** Seeded deliberate-fault plan for the farm's self-test campaign
 *  (ccfarm --inject): crash or hang a deterministic subset of worker
 *  subprocesses. CorruptCache is driven at the tool level (bit-flip
 *  the persistent store between runs), not per worker. */
enum class InjectKind : uint8_t { None = 0, Crash, Hang, CorruptCache };

struct FaultPlan
{
    InjectKind kind = InjectKind::None;
    uint64_t seed = 1;
    uint32_t rateNum = 1; //!< inject ~rateNum/rateDen of the jobs
    uint32_t rateDen = 3;

    /** Inject only a job's first attempt (a transient fault: retries
     *  recover), instead of every attempt (a hard fault: the job
     *  fails with a fully-attributed report entry). */
    bool firstAttemptOnly = false;
};

/** Whether @p plan injects a fault into (job @p jobIndex, attempt
 *  @p attempt). Deterministic in (seed, jobIndex): the injected job
 *  subset is identical across runs, pool widths, and retries. */
bool shouldInject(const FaultPlan &plan, size_t jobIndex,
                  uint32_t attempt);

/** Retry delay before @p attempt (>= 1): exponential in the attempt
 *  with seeded jitter in [50%, 150%], capped. Deterministic in
 *  (seed, jobIndex, attempt) so reports are reproducible. */
uint64_t backoffMillis(uint32_t attempt, uint64_t baseMs, uint64_t capMs,
                       uint64_t seed, size_t jobIndex);

struct FarmOptions
{
    bool cache = true; //!< share a PipelineCache across the run

    /** Retain each job's serialized .cci bytes in its result (the
     *  digest is always computed). */
    bool keepImages = true;

    /** Non-empty: back the PipelineCache with this directory
     *  (crash-safe checksummed entry files; see cache.hh). Isolated
     *  workers share work through it across processes. */
    std::string cacheDir;

    /** In-memory cache caps (0 = unlimited); see
     *  PipelineCache::setCapacity. */
    size_t cacheMaxEntries = 0;
    uint64_t cacheMaxBytes = 0;

    /** Run each job in a worker subprocess (process isolation). */
    bool isolate = false;

    /** Worker executable (the ccfarm binary); "" resolves to the
     *  running executable via /proc/self/exe. */
    std::string workerBinary;

    /** Directory for per-job spec/result scratch files; "" uses the
     *  system temp directory. A per-run subdirectory is created and
     *  removed. */
    std::string scratchDir;

    /** Farm-default per-job deadline in ms (0 = none); per-job
     *  FarmJob::timeoutMs overrides. Isolated jobs only. */
    uint64_t jobTimeoutMs = 0;

    /** Farm-default retry budget per job; per-job FarmJob::retries
     *  overrides. Isolated jobs only. */
    uint32_t retries = 0;

    /** Exponential-backoff base and cap between attempts. */
    uint64_t backoffBaseMs = 50;
    uint64_t backoffCapMs = 2000;

    /** Seed for backoff jitter and fault injection. */
    uint64_t seed = 1;

    /** Deliberate-fault plan (self-test); requires isolate for
     *  Crash/Hang. */
    FaultPlan inject;
};

/** Outcome of one job, in job-queue order in the report. */
struct FarmJobResult
{
    std::string id;
    std::string workload;
    std::string scheme;
    std::string strategy;
    std::string error; //!< non-empty = the job failed

    std::vector<uint8_t> imageBytes; //!< saveImage() (if keepImages)
    uint64_t imageFnv64 = 0;         //!< digest of imageBytes

    uint64_t totalBytes = 0;
    uint64_t textBytes = 0;
    uint64_t dictBytes = 0;
    double ratio = 0.0;
    uint32_t farBranchExpansions = 0;

    compress::PipelineStats stats; //!< per-pass wall time + counters
    double millis = 0.0;           //!< job wall time (all attempts)

    uint32_t attempts = 1;         //!< executions tried (1 = no retry)
    FailureKind failureKind = FailureKind::None;

    bool ok() const { return error.empty(); }
};

struct FarmReport
{
    std::vector<FarmJobResult> results; //!< one per job, queue order
    compress::PipelineCache::Stats cacheStats;
    bool cacheEnabled = true;
    bool isolated = false;          //!< jobs ran in worker subprocesses
    unsigned poolJobs = 1;          //!< worker-pool width used
    double buildMillis = 0.0;       //!< program construction wall time
    double compressMillis = 0.0;    //!< job-queue wall time
    double wallMillis = 0.0;        //!< whole run

    size_t failures() const;

    /** Jobs that failed with @p kind. */
    size_t failuresOfKind(FailureKind kind) const;

    /** Sum of per-pass millis across every job, by pass name. */
    std::vector<std::pair<std::string, double>> passTotals() const;

    /**
     * The run-invariant half of the report: per-job identity, sizes,
     * ratio, and image digest -- everything except wall times,
     * attempt counts, and pool/cache configuration. Byte-identical
     * across pool widths, isolation on/off, retries, and cache
     * off/on/persistent (the farm determinism tests assert exactly
     * this).
     */
    std::string resultsJson() const;

    /** The full report: results (with per-job pipeline stats, wall
     *  times, attempts, and failure kinds) plus run totals,
     *  throughput, and cache counters. */
    std::string toJson() const;
};

/** The 8 workloads x registered schemes x {greedy, refit} starter
 *  corpus. */
std::vector<FarmJob> starterCorpus();

/**
 * Compress one job of @p program (whose PipelineCache::programHash is
 * @p programHash when @p cache is non-null) and capture the outcome --
 * success or in-band failure -- as a result. The shared single-job
 * body of the inline farm path and the --worker subprocess mode.
 */
FarmJobResult runFarmJob(const FarmJob &job, const Program &program,
                         uint64_t programHash,
                         compress::PipelineCache *cache, bool keepImages);

/**
 * Run @p jobs and aggregate the results. Unknown workload names and
 * non-positive scales are catchable fatals before any work starts; a
 * failure inside one job (an invalid config, or -- under isolate -- a
 * worker crash, hang, or kill) is captured in that job's result and
 * does not abort the run. An empty queue yields a valid empty report.
 */
FarmReport runFarm(const std::vector<FarmJob> &jobs,
                   const FarmOptions &options = {});

} // namespace codecomp::farm

#endif // CODECOMP_FARM_FARM_HH
