/**
 * @file
 * ccfarm: a batched, cached, fault-tolerant multi-program compression
 * service.
 *
 * A farm run takes a queue of jobs -- (workload program, compressor
 * config) pairs -- and produces one aggregated report. The run:
 *
 *  - looks up each distinct (workload, scale) program's content hash
 *    in the cache's Program kind, and builds the program, at most once
 *    and in one parallel stage (support/thread_pool), only where that lookup
 *    misses or one of its jobs has to compress it (FarmJob::program
 *    skips both);
 *  - runs the job queue as a second parallel stage (one index per
 *    job; each job's compression is serial);
 *  - deduplicates work through the run's one PipelineCache
 *    (compress/cache.hh) keyed by program content hash + config --
 *    backed by a crash-safe on-disk store when cacheDir is set, which
 *    survives across runs and processes. A job first looks up its
 *    finished image (the Image kind); only a miss profiles and
 *    compresses, sharing Enumerate/Select products with the other
 *    jobs of its program. The cache gives each key one computer and
 *    makes the key's other jobs wait for its product, so hit and miss
 *    counts depend on the job set, not on the pool width;
 *  - streams per-job results (sizes, the image + FNV-1a64 digest,
 *    per-pass PipelineStats) into a FarmReport in job order.
 *
 * Fault tolerance (FarmOptions::isolate) moves each job into a forked
 * worker subprocess (the ccfarm binary in its hidden --worker mode):
 * a CC_PANIC, machine check, OOM-kill, or segfault in one job becomes
 * a structured per-job failure -- classified by FailureKind -- instead
 * of taking down the run. Jobs carry wall-clock deadlines (hung
 * workers are killed and reported as Timeout) and a retry budget with
 * exponential backoff + per-job jitter; attempts and the final failure
 * kind land in the report. The farm injects no faults itself: the
 * tests crash and hang jobs through a stand-in worker binary
 * (FarmOptions::workerBinary).
 *
 * Output images are bit-identical to the serial single-program path
 * (compress::compressProgram) for any pool width, isolated or inline,
 * on any attempt, with or without a persistent store: jobs are
 * index-addressed, and every cached product is a deterministic pure
 * function of its cache key.
 *
 * The starter corpus is the paper's sweep: 8 workloads x every
 * registered scheme x {greedy, refit} strategies. Larger corpora come
 * from job-spec JSON files (jobspec.hh).
 */

#ifndef CODECOMP_FARM_FARM_HH
#define CODECOMP_FARM_FARM_HH

#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
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

    /** What workload builds to at scale, if the caller built it (null:
     *  the farm builds it). Job specs do not carry it: only inline runs
     *  use it, with no Program lookup or build. */
    std::shared_ptr<const Program> program;
};

/** Why a job ultimately failed -- the farm's failure taxonomy. */
enum class FailureKind : uint8_t {
    None = 0,     //!< the job succeeded
    Crash,        //!< worker died: signal, CC_PANIC, or abrupt exit
    Timeout,      //!< deadline expired; the worker was killed
    LoadError,    //!< spec/result/file plumbing failed (LoadFailure)
    MachineCheck, //!< a MachineCheckError surfaced from the job
    SpecError,    //!< deterministic job error (bad config); not retried
};

const char *failureKindName(FailureKind kind);

/** The failure kind of a job that threw @p error: MachineCheck for a
 *  MachineCheckError, LoadError for a LoadFailure, SpecError for any
 *  other error. The one classifier of the inline (runFarmJob) and the
 *  isolated (worker) paths, so both report the same kind. */
FailureKind classifyJobError(const std::exception &error);

/** Retry delay before @p attempt (>= 1): exponential in the attempt
 *  with jitter in [50%, 150%], capped at @p capMs before the jitter
 *  (any base saturates, none overflows). The jitter differs between
 *  jobs and is deterministic in (jobIndex, attempt). */
uint64_t backoffMillis(uint32_t attempt, uint64_t baseMs, uint64_t capMs,
                       size_t jobIndex);

struct FarmOptions
{
    /** Non-empty: back the run's PipelineCache with this directory
     *  (crash-safe checksummed entry files; see cache.hh). Isolated
     *  workers share work through it across processes. */
    std::string cacheDir;

    /** Run each job in a worker subprocess (process isolation). */
    bool isolate = false;

    /** Worker executable (the ccfarm binary); "" resolves to the
     *  running executable via /proc/self/exe. */
    std::string workerBinary;

    /** Farm-default per-job deadline in ms (0 = none); per-job
     *  FarmJob::timeoutMs overrides. Isolated jobs only. */
    uint64_t jobTimeoutMs = 0;

    /** Farm-default retry budget per job; per-job FarmJob::retries
     *  overrides. Isolated jobs only. */
    uint32_t retries = 0;

    /** Exponential-backoff base between attempts (capped at 2 s). */
    uint64_t backoffBaseMs = 50;
};

/** Outcome of one job, in job-queue order in the report. */
struct FarmJobResult
{
    FarmJobResult() = default;

    /** A result naming @p job, before the job has run. */
    explicit FarmJobResult(const FarmJob &job);

    std::string id;
    std::string workload;
    std::string scheme;
    std::string strategy;
    std::string error; //!< non-empty = the job failed

    /** The image and its bytes (set iff the job succeeded); under
     *  isolate, loaded back from the worker's bytes. */
    std::shared_ptr<const compress::ImageProduct> image;
    uint64_t imageFnv64 = 0; //!< digest of the image's bytes

    /** The image's sizes, computed once from image (not accessors:
     *  opfac's dictionaryBytes factors the whole dictionary). */
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
    bool isolated = false;          //!< jobs ran in worker subprocesses
    unsigned poolJobs = 1;          //!< worker-pool width used
    /** Wall time of the Program lookups before the queue, with the
     *  builds behind their misses. A build a job needs after a
     *  Program hit is in compressMillis. */
    double buildMillis = 0.0;
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
     * attempt counts, and pool configuration. Byte-identical across
     * pool widths, isolation on/off, retries, and with or without a
     * persistent store (the farm determinism tests assert exactly
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
 * The program of one (workload, scale), shared by every job that
 * compresses it, and its content hash (PipelineCache::programHash).
 * resolve() learns the hash: from the cache's Program entry if it has
 * one, which builds nothing, or by building the program and storing
 * the entry. get() builds the program on first use, once however many
 * jobs ask (a job needs it only when its Image misses). A build behind
 * a stored hash recomputes the hash, and if the two differ every get()
 * throws a LoadFailure naming the entry: a stale hash never names an
 * image that is computed or stored.
 */
class FarmProgram
{
  public:
    FarmProgram(std::string workload, int scale);

    /** A program built elsewhere; its hash is computed here. */
    explicit FarmProgram(std::shared_ptr<const Program> program);

    /** Learn the hash through @p cache. Call it once, before any job
     *  of the program looks up an image, so the Program claim precedes
     *  every Image claim (cache.hh). Without the executable's build-id
     *  there is no Program key, and the program is built and hashed
     *  here. A caller-built program is not looked up. */
    void resolve(compress::PipelineCache &cache);

    uint64_t hash() const { return hash_; }

    /** The built program; thread-safe. */
    const Program &get();

  private:
    std::string workload_;
    int scale_ = 1;
    uint64_t hash_ = 0;
    std::optional<uint64_t> entryKey_; //!< Program key hash_ came from
    std::once_flag built_;
    std::shared_ptr<const Program> program_;
    std::string staleEntry_; //!< non-empty: the build disagreed with it
};

/**
 * Compress one job of @p program (resolved against @p cache) and
 * capture the outcome -- success or in-band failure -- as a result. A
 * stored image of the job's Image key is the result, with no build,
 * profiling or compression (its PipelineStats stay empty). Otherwise
 * the program is built if it was not, a HotCold job without a traffic
 * profile is profiled here, and the image is compressed and stored.
 * The shared single-job body of the inline farm path and the --worker
 * subprocess mode.
 */
FarmJobResult runFarmJob(const FarmJob &job, FarmProgram &program,
                         compress::PipelineCache &cache);

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
