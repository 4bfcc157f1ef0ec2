#include "farm/farm.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <map>
#include <system_error>
#include <thread>
#include <tuple>

#include <unistd.h>

#include "compress/objfile.hh"
#include "decompress/fault.hh"
#include "farm/jobspec.hh"
#include "farm/worker.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/serialize.hh"
#include "support/subprocess.hh"
#include "support/thread_pool.hh"
#include "timing/timing.hh"
#include "workloads/workloads.hh"

namespace codecomp::farm {

namespace {

using Clock = std::chrono::steady_clock;

/** Longest exponential backoff between attempts, before jitter. */
constexpr uint64_t backoffCapMs = 2000;

double
millisSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

std::string
hexDigest(uint64_t value)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

/** Fill @p result's image, sizes and digest from @p product: the one
 *  body of a computed job, an Image cache hit and an isolated worker's
 *  loaded image. */
void
recordImage(FarmJobResult &result,
            std::shared_ptr<const compress::ImageProduct> product)
{
    const compress::CompressedImage &image = product->image;
    result.totalBytes = image.totalBytes();
    result.textBytes = image.compressedTextBytes();
    result.dictBytes = image.dictionaryBytes();
    result.ratio = image.compressionRatio();
    result.farBranchExpansions = image.farBranchExpansions;
    result.imageFnv64 = product->digest;
    result.image = std::move(product);
}

/** One per-job record; @p full adds wall time, attempts, failure
 *  attribution, and pipeline stats. */
void
jobRecordJson(JsonWriter &json, const FarmJobResult &result, bool full)
{
    json.beginObject();
    json.member("id", result.id);
    json.member("workload", result.workload);
    json.member("scheme", result.scheme);
    json.member("strategy", result.strategy);
    if (!result.ok()) {
        json.member("error", result.error);
    } else {
        json.member("total_bytes", result.totalBytes);
        json.member("text_bytes", result.textBytes);
        json.member("dict_bytes", result.dictBytes);
        json.member("ratio", result.ratio);
        json.member("far_branch_expansions", result.farBranchExpansions);
        json.member("image_fnv64", hexDigest(result.imageFnv64));
    }
    if (full) {
        json.member("millis", result.millis);
        json.member("attempts", result.attempts);
        if (!result.ok())
            json.member("failure_kind",
                        failureKindName(result.failureKind));
        if (result.ok() && !result.stats.passes.empty()) {
            json.key("pipeline");
            json.raw(result.stats.toJson());
        }
    }
    json.endObject();
}

uint64_t
mix64(uint64_t a, uint64_t b)
{
    ByteSink sink;
    sink.put64(a);
    sink.put64(b);
    return fnv1a64(sink.bytes());
}

/** First ~200 chars of the worker's captured stderr, for failure
 *  attribution (empty on any read problem). */
std::string
stderrExcerpt(const std::string &path)
{
    Result<std::vector<uint8_t>> bytes = tryReadFile(path);
    if (!bytes.ok() || bytes.value().empty())
        return "";
    std::string text(bytes.value().begin(), bytes.value().end());
    if (text.size() > 200)
        text.resize(200);
    for (char &c : text)
        if (c == '\n')
            c = ' ';
    return text;
}

/**
 * Run one job in a worker subprocess with deadline, retries, and
 * backoff. The worker gets its one-job spec as an argument; its result
 * and stderr files live under @p scratch and are removed per attempt.
 * The final result (success or a classified failure) carries the
 * attempt count and failure kind, and @p cacheStats the successful
 * worker's cache counters.
 */
FarmJobResult
runIsolatedJob(const FarmJob &job, size_t index,
               const FarmOptions &options, const std::string &workerBin,
               const std::filesystem::path &scratch,
               compress::PipelineCache::Stats &cacheStats)
{
    FarmJobResult result(job);
    // A job's own deadline and retry budget, or -1 for the farm's.
    uint64_t timeoutMs = job.timeoutMs >= 0
                             ? static_cast<uint64_t>(job.timeoutMs)
                             : options.jobTimeoutMs;
    uint32_t maxAttempts =
        1 + (job.retries >= 0 ? static_cast<uint32_t>(job.retries)
                              : options.retries);
    Clock::time_point jobStart = Clock::now();
    std::string specJson = writeJobSpec({job});

    // Preflight: a job the spec format itself rejects (an out-of-range
    // config) is deterministic -- fail it as a SpecError immediately
    // instead of burning worker spawns and retries on it.
    try {
        parseJobSpec(specJson);
    } catch (const std::exception &error) {
        result.error = error.what();
        result.failureKind = FailureKind::SpecError;
        result.millis = millisSince(jobStart);
        return result;
    }

    for (uint32_t attempt = 0; attempt < maxAttempts; ++attempt) {
        if (attempt > 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(
                backoffMillis(attempt, options.backoffBaseMs,
                              backoffCapMs, index)));
        result.attempts = attempt + 1;

        std::string stem =
            (scratch / ("job-" + std::to_string(index) + "-" +
                        std::to_string(attempt)))
                .string();
        std::string outPath = stem + ".bin";
        std::string errPath = stem + ".stderr";

        std::vector<std::string> argv = {workerBin, "--worker", specJson,
                                         "--worker-out", outPath};
        if (!options.cacheDir.empty()) {
            argv.push_back("--cache-dir");
            argv.push_back(options.cacheDir);
        }

        SubprocessOptions spawnOptions;
        spawnOptions.timeoutMs = timeoutMs;
        spawnOptions.stderrPath = errPath;
        SubprocessResult spawn = runSubprocess(argv, spawnOptions);

        WorkerResult worker;
        bool resultOk = false;
        std::string rejected; // why a clean exit's result was refused
        if (spawn.outcome == SubprocessResult::Outcome::Exited &&
            spawn.exitCode == 0) {
            Result<std::vector<uint8_t>> bytes = tryReadFile(outPath);
            Result<WorkerResult> parsed =
                bytes.ok() ? parseWorkerResult(bytes.value())
                           : Result<WorkerResult>(bytes.error());
            if (parsed.ok()) {
                worker = parsed.take();
                resultOk = true;
            } else {
                rejected = parsed.error().message();
            }
        }
        FailureKind kind = classifyWorkerOutcome(spawn, resultOk, worker);

        std::string excerpt = stderrExcerpt(errPath);
        std::error_code ec;
        std::filesystem::remove(outPath, ec);
        std::filesystem::remove(errPath, ec);

        if (kind == FailureKind::None) {
            uint32_t attempts = result.attempts;
            result = std::move(worker.result); // error-free: kind None
            result.attempts = attempts;
            // The worker ships no sizes: take them from its image.
            recordImage(result, std::move(result.image));
            cacheStats = worker.cacheStats;
            break;
        }

        result.failureKind = kind;
        if (resultOk && !worker.result.error.empty()) {
            result.error = worker.result.error;
        } else {
            result.error = std::string("worker ") +
                           subprocessOutcomeName(spawn.outcome);
            if (spawn.outcome == SubprocessResult::Outcome::Exited)
                result.error +=
                    " (exit " + std::to_string(spawn.exitCode) + ")";
            else if (spawn.outcome == SubprocessResult::Outcome::Signaled)
                result.error +=
                    " (signal " + std::to_string(spawn.signal) + ")";
            else if (spawn.outcome == SubprocessResult::Outcome::TimedOut)
                result.error += " (deadline " +
                                std::to_string(timeoutMs) + " ms)";
            if (!rejected.empty())
                result.error += ", result rejected: " + rejected;
            if (!excerpt.empty())
                result.error += ": " + excerpt;
        }
        // A SpecError is deterministic -- retrying replays the same
        // failure -- so only environment-shaped kinds burn retries.
        if (kind == FailureKind::SpecError)
            break;
    }
    result.millis = millisSince(jobStart);
    return result;
}

} // namespace

const char *
failureKindName(FailureKind kind)
{
    switch (kind) {
      case FailureKind::None:
        return "none";
      case FailureKind::Crash:
        return "crash";
      case FailureKind::Timeout:
        return "timeout";
      case FailureKind::LoadError:
        return "load_error";
      case FailureKind::MachineCheck:
        return "machine_check";
      case FailureKind::SpecError:
        return "spec_error";
    }
    return "?";
}

FailureKind
classifyJobError(const std::exception &error)
{
    if (dynamic_cast<const MachineCheckError *>(&error))
        return FailureKind::MachineCheck;
    if (dynamic_cast<const LoadFailure *>(&error))
        return FailureKind::LoadError;
    return FailureKind::SpecError;
}

uint64_t
backoffMillis(uint32_t attempt, uint64_t baseMs, uint64_t capMs,
              size_t jobIndex)
{
    CC_ASSERT(attempt >= 1, "backoff is a between-attempts delay");
    uint64_t exp = std::min<uint64_t>(attempt - 1, 20);
    // Saturate at the cap before shifting: baseMs << exp would wrap for
    // a base of 2^44 ms or more.
    uint64_t delay = baseMs > (capMs >> exp) ? capMs : baseMs << exp;
    // Jitter in [50%, 150%], per job so two workers retrying the same
    // moment don't stampede in sync -- but reproducibly.
    Rng rng(mix64(static_cast<uint64_t>(jobIndex), attempt));
    uint64_t percent = 50 + rng.below(101);
    return delay * percent / 100;
}

FarmJobResult::FarmJobResult(const FarmJob &job)
    : id(job.id), workload(job.workload),
      scheme(compress::schemeCliName(job.config.scheme)),
      strategy(compress::strategyName(job.config.strategy))
{}

size_t
FarmReport::failures() const
{
    return static_cast<size_t>(
        std::count_if(results.begin(), results.end(),
                      [](const FarmJobResult &r) { return !r.ok(); }));
}

size_t
FarmReport::failuresOfKind(FailureKind kind) const
{
    return static_cast<size_t>(std::count_if(
        results.begin(), results.end(), [kind](const FarmJobResult &r) {
            return !r.ok() && r.failureKind == kind;
        }));
}

std::vector<std::pair<std::string, double>>
FarmReport::passTotals() const
{
    std::vector<std::pair<std::string, double>> totals;
    for (const FarmJobResult &result : results) {
        for (const compress::PassStats &pass : result.stats.passes) {
            auto it = std::find_if(totals.begin(), totals.end(),
                                   [&pass](const auto &entry) {
                                       return entry.first == pass.name;
                                   });
            if (it == totals.end())
                totals.emplace_back(pass.name, pass.millis);
            else
                it->second += pass.millis;
        }
    }
    return totals;
}

std::string
FarmReport::resultsJson() const
{
    JsonWriter json;
    json.beginArray();
    for (const FarmJobResult &result : results)
        jobRecordJson(json, result, /*full=*/false);
    json.endArray();
    return json.str();
}

std::string
FarmReport::toJson() const
{
    JsonWriter json;
    json.beginObject();
    json.member("jobs", static_cast<uint64_t>(results.size()));
    json.member("failures", static_cast<uint64_t>(failures()));
    json.key("failure_kinds");
    json.beginObject();
    for (FailureKind kind :
         {FailureKind::Crash, FailureKind::Timeout, FailureKind::LoadError,
          FailureKind::MachineCheck, FailureKind::SpecError}) {
        size_t count = failuresOfKind(kind);
        if (count)
            json.member(failureKindName(kind),
                        static_cast<uint64_t>(count));
    }
    json.endObject();
    json.member("pool_jobs", poolJobs);
    json.member("isolate", isolated);
    json.member("build_millis", buildMillis);
    json.member("compress_millis", compressMillis);
    json.member("wall_millis", wallMillis);
    json.member("jobs_per_second",
                compressMillis > 0.0
                    ? 1000.0 * static_cast<double>(results.size()) /
                          compressMillis
                    : 0.0);
    json.key("cache_stats");
    json.beginObject();
    for (const auto &field : compress::PipelineCache::Stats::fields)
        json.member(field.name, cacheStats.*field.member);
    json.endObject();
    json.key("pass_millis");
    json.beginObject();
    for (const auto &[name, millis] : passTotals())
        json.member(name, millis);
    json.endObject();
    json.key("results");
    json.beginArray();
    for (const FarmJobResult &result : results)
        jobRecordJson(json, result, /*full=*/true);
    json.endArray();
    json.endObject();
    return json.str();
}

std::vector<FarmJob>
starterCorpus()
{
    static const compress::StrategyKind strategies[] = {
        compress::StrategyKind::Greedy,
        compress::StrategyKind::IterativeRefit,
    };
    std::vector<FarmJob> jobs;
    for (const std::string &workload : workloads::benchmarkNames()) {
        for (const compress::SchemeCodec *codec : compress::allCodecs()) {
            for (compress::StrategyKind strategy : strategies) {
                FarmJob job;
                job.workload = workload;
                job.config.scheme = codec->id();
                job.config.strategy = strategy;
                job.config.maxEntries = 4680; // the ccompress default
                job.id = workload + "/" + std::string(codec->cliName()) +
                         "/" + compress::strategyName(strategy);
                jobs.push_back(std::move(job));
            }
        }
    }
    return jobs;
}

FarmProgram::FarmProgram(std::string workload, int scale)
    : workload_(std::move(workload)), scale_(scale)
{}

FarmProgram::FarmProgram(std::shared_ptr<const Program> program)
    : hash_(compress::PipelineCache::programHash(*program)),
      program_(std::move(program))
{
    std::call_once(built_, [] {}); // get() has nothing to build
}

void
FarmProgram::resolve(compress::PipelineCache &cache)
{
    if (program_)
        return; // built by the caller and hashed on construction
    const std::vector<uint8_t> &stamp = selfBuildId();
    if (stamp.empty()) {
        hash_ = compress::PipelineCache::programHash(get());
        return;
    }
    uint64_t key =
        compress::PipelineCache::programKey(workload_, scale_, stamp);
    compress::PipelineCache::Claim claim;
    if (std::optional<uint64_t> stored = cache.findProgram(key, claim)) {
        hash_ = *stored;
        entryKey_ = key;
        return;
    }
    hash_ = compress::PipelineCache::programHash(get());
    cache.storeProgram(claim, hash_);
}

const Program &
FarmProgram::get()
{
    std::call_once(built_, [this] {
        program_ = std::make_shared<const Program>(
            workloads::buildBenchmark(workload_, scale_));
        if (!entryKey_)
            return;
        uint64_t built = compress::PipelineCache::programHash(*program_);
        if (built != hash_)
            staleEntry_ =
                compress::PipelineCache::programEntryName(*entryKey_) +
                " holds " + hexDigest(hash_) + ", but " + workload_ +
                " at scale " + std::to_string(scale_) + " builds to " +
                hexDigest(built) + "; remove the entry";
    });
    if (!staleEntry_.empty())
        throw LoadFailure(
            {LoadStatus::BadValue, 0, "program cache entry", staleEntry_});
    return *program_;
}

FarmJobResult
runFarmJob(const FarmJob &job, FarmProgram &program,
           compress::PipelineCache &cache)
{
    FarmJobResult result(job);
    Clock::time_point jobStart = Clock::now();
    try {
        // The Image claim comes first: compressProgram takes the
        // Select and Enumerate claims after it (cache.hh).
        compress::PipelineCache::Claim claim;
        std::shared_ptr<const compress::ImageProduct> product =
            cache.findImage(compress::PipelineCache::imageKey(
                                program.hash(), job.config),
                            claim);
        if (!product) {
            const Program &built = program.get();
            // Profile-guided layout without a caller-supplied profile:
            // profile here, where the built program is at hand, so job
            // specs stay declarative (the profile is deterministic).
            compress::CompressorConfig config = job.config;
            if (config.layout == compress::LayoutMode::HotCold &&
                config.trafficProfile.empty())
                config.trafficProfile =
                    timing::profileExecutionCounts(built);
            auto computed = std::make_shared<compress::ImageProduct>();
            computed->image = compress::compressProgram(
                built, config, &result.stats, &cache, program.hash());
            computed->bytes = saveImage(computed->image);
            computed->digest = fnv1a64(computed->bytes);
            cache.storeImage(claim, computed);
            product = std::move(computed);
        }
        recordImage(result, std::move(product));
    } catch (const std::exception &error) {
        result.error = error.what();
        result.failureKind = classifyJobError(error);
    }
    result.millis = millisSince(jobStart);
    return result;
}

FarmReport
runFarm(const std::vector<FarmJob> &jobs, const FarmOptions &options)
{
    Clock::time_point runStart = Clock::now();
    FarmReport report;
    report.isolated = options.isolate;
    report.poolJobs = globalJobs();

    // Validate the queue before any work starts: a typo'd workload
    // name should fail the run immediately, not 40 jobs in.
    const std::vector<std::string> &names = workloads::benchmarkNames();
    for (const FarmJob &job : jobs) {
        if (std::find(names.begin(), names.end(), job.workload) ==
            names.end())
            CC_FATAL("farm job '", job.id, "': unknown workload '",
                     job.workload, "'");
        if (job.scale < 1)
            CC_FATAL("farm job '", job.id, "': scale must be >= 1, got ",
                     job.scale);
    }

    if (options.isolate) {
        // Process isolation: every job runs in a forked worker (the
        // ccfarm binary in --worker mode), which builds its own program
        // (FarmJob::program does not cross the boundary); the parent
        // builds nothing and touches no job state, so no fault can
        // reach it.
        std::string workerBin = options.workerBinary.empty()
                                    ? selfExecutablePath()
                                    : options.workerBinary;
        if (workerBin.empty())
            CC_FATAL("isolation requires a worker binary (set "
                     "FarmOptions::workerBinary)");
        if (!std::filesystem::exists(workerBin))
            CC_FATAL("worker binary '", workerBin, "' does not exist");

        std::filesystem::path scratch =
            std::filesystem::temp_directory_path();
        scratch /= "ccfarm-" + std::to_string(::getpid()) + "-" +
                   hexDigest(static_cast<uint64_t>(
                       Clock::now().time_since_epoch().count()));
        std::error_code ec;
        std::filesystem::create_directories(scratch, ec);
        if (ec)
            CC_FATAL("cannot create farm scratch directory '",
                     scratch.string(), "': ", ec.message());

        std::vector<compress::PipelineCache::Stats> jobStats(jobs.size());
        Clock::time_point compressStart = Clock::now();
        report.results = parallelMap<FarmJobResult>(
            jobs.size(), [&](size_t i) {
                return runIsolatedJob(jobs[i], i, options, workerBin,
                                      scratch, jobStats[i]);
            });
        report.compressMillis = millisSince(compressStart);
        for (const compress::PipelineCache::Stats &stats : jobStats)
            report.cacheStats += stats;
        std::filesystem::remove_all(scratch, ec);
        report.wallMillis = millisSince(runStart);
        return report;
    }

    compress::PipelineCache cache;
    if (!options.cacheDir.empty())
        cache.setDiskStore(options.cacheDir);

    // Resolve each distinct program once, in parallel: its content
    // hash is the cache identity of every job that compresses it. A
    // Program hit builds nothing here; the program is built later only
    // if one of its jobs needs it. A caller-built program is its own.
    std::deque<FarmProgram> programs;
    std::map<std::tuple<std::string, int, const Program *>, FarmProgram *>
        byKey;
    std::vector<FarmProgram *> programOf;
    for (const FarmJob &job : jobs) {
        FarmProgram *&program =
            byKey[{job.workload, job.scale, job.program.get()}];
        if (!program)
            program = job.program
                          ? &programs.emplace_back(job.program)
                          : &programs.emplace_back(job.workload, job.scale);
        programOf.push_back(program);
    }
    Clock::time_point buildStart = Clock::now();
    parallelFor(programs.size(), [&](size_t i) {
        programs[i].resolve(cache);
    });
    report.buildMillis = millisSince(buildStart);

    // Shard the queue: one stage index per job, results index-addressed
    // so the report order is the queue order at any width. The
    // cache gives each key one computer; a job whose key is in flight
    // waits for that product instead of computing it again.
    Clock::time_point compressStart = Clock::now();
    report.results = parallelMap<FarmJobResult>(jobs.size(), [&](size_t i) {
        return runFarmJob(jobs[i], *programOf[i], cache);
    });
    report.compressMillis = millisSince(compressStart);
    report.cacheStats = cache.stats();
    report.wallMillis = millisSince(runStart);
    return report;
}

} // namespace codecomp::farm
