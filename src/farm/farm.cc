#include "farm/farm.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <system_error>
#include <thread>

#include <unistd.h>

#include "compress/objfile.hh"
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

double
millisSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/** One workload program built once and shared by all its jobs. */
struct BuiltProgram
{
    Program program;
    uint64_t hash = 0; //!< PipelineCache::programHash(program)
};

std::string
hexDigest(uint64_t value)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
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

/** Effective deadline/retry budget for @p job under @p options. */
uint64_t
effectiveTimeoutMs(const FarmJob &job, const FarmOptions &options)
{
    return job.timeoutMs >= 0 ? static_cast<uint64_t>(job.timeoutMs)
                              : options.jobTimeoutMs;
}

uint32_t
effectiveRetries(const FarmJob &job, const FarmOptions &options)
{
    return job.retries >= 0 ? static_cast<uint32_t>(job.retries)
                            : options.retries;
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
 * backoff. Scratch files live under @p scratch and are removed per
 * attempt; the final result (success or a classified failure) carries
 * the attempt count and failure kind.
 */
FarmJobResult
runIsolatedJob(const FarmJob &job, size_t index,
               const FarmOptions &options, const std::string &workerBin,
               const std::filesystem::path &scratch,
               compress::PipelineCache::Stats &cacheTotals,
               std::mutex &cacheTotalsMutex)
{
    FarmJobResult result;
    result.id = job.id;
    result.workload = job.workload;
    result.scheme = compress::schemeCliName(job.config.scheme);
    result.strategy = compress::strategyName(job.config.strategy);

    uint64_t timeoutMs = effectiveTimeoutMs(job, options);
    uint32_t maxAttempts = 1 + effectiveRetries(job, options);
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
                              options.backoffCapMs, options.seed,
                              index)));
        result.attempts = attempt + 1;

        std::string stem =
            (scratch / ("job-" + std::to_string(index) + "-" +
                        std::to_string(attempt)))
                .string();
        std::string specPath = stem + ".json";
        std::string outPath = stem + ".bin";
        std::string errPath = stem + ".stderr";
        writeFile(specPath,
                  std::vector<uint8_t>(specJson.begin(), specJson.end()));

        std::vector<std::string> argv = {workerBin, "--worker", specPath,
                                         "--worker-out", outPath};
        if (!options.cacheDir.empty() && options.cache) {
            argv.push_back("--cache-dir");
            argv.push_back(options.cacheDir);
        }
        if (!options.keepImages)
            argv.push_back("--worker-no-images");
        bool injected =
            (options.inject.kind == InjectKind::Crash ||
             options.inject.kind == InjectKind::Hang) &&
            shouldInject(options.inject, index, attempt);
        if (injected) {
            argv.push_back("--worker-inject");
            argv.push_back(options.inject.kind == InjectKind::Crash
                               ? "crash"
                               : "hang");
        }

        SubprocessOptions spawnOptions;
        spawnOptions.timeoutMs = timeoutMs;
        spawnOptions.stderrPath = errPath;
        SubprocessResult spawn = runSubprocess(argv, spawnOptions);

        WorkerResult worker;
        bool resultOk = false;
        if (spawn.outcome == SubprocessResult::Outcome::Exited &&
            spawn.exitCode == 0) {
            Result<std::vector<uint8_t>> bytes = tryReadFile(outPath);
            if (bytes.ok()) {
                Result<WorkerResult> parsed =
                    parseWorkerResult(bytes.value());
                if (parsed.ok()) {
                    worker = parsed.take();
                    resultOk = true;
                }
            }
        }
        FailureKind kind = classifyWorkerOutcome(spawn, resultOk, worker);

        std::string excerpt = stderrExcerpt(errPath);
        std::error_code ec;
        std::filesystem::remove(specPath, ec);
        std::filesystem::remove(outPath, ec);
        std::filesystem::remove(errPath, ec);

        if (kind == FailureKind::None) {
            uint32_t attempts = result.attempts;
            result = std::move(worker.result);
            result.attempts = attempts;
            result.failureKind = FailureKind::None;
            result.error.clear();
            {
                std::lock_guard<std::mutex> lock(cacheTotalsMutex);
                const compress::PipelineCache::Stats &cs =
                    worker.cacheStats;
                cacheTotals.enumHits += cs.enumHits;
                cacheTotals.enumMisses += cs.enumMisses;
                cacheTotals.selectHits += cs.selectHits;
                cacheTotals.selectMisses += cs.selectMisses;
                cacheTotals.evictions += cs.evictions;
                cacheTotals.persistHits += cs.persistHits;
                cacheTotals.persistMisses += cs.persistMisses;
                cacheTotals.persistStores += cs.persistStores;
                cacheTotals.persistCorrupt += cs.persistCorrupt;
            }
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

bool
shouldInject(const FaultPlan &plan, size_t jobIndex, uint32_t attempt)
{
    if (plan.kind == InjectKind::None ||
        plan.kind == InjectKind::CorruptCache || plan.rateDen == 0)
        return false;
    // Job-level decision only: the injected subset is a pure function
    // of (seed, jobIndex), so reports reproduce across runs, pool
    // widths, and attempt counts.
    Rng rng(mix64(plan.seed, static_cast<uint64_t>(jobIndex)));
    bool jobInjected = rng.chance(plan.rateNum, plan.rateDen);
    if (plan.firstAttemptOnly)
        return jobInjected && attempt == 0;
    return jobInjected;
}

uint64_t
backoffMillis(uint32_t attempt, uint64_t baseMs, uint64_t capMs,
              uint64_t seed, size_t jobIndex)
{
    CC_ASSERT(attempt >= 1, "backoff is a between-attempts delay");
    uint64_t exp = attempt - 1 >= 20 ? 20 : attempt - 1; // clamp shift
    uint64_t delay = baseMs << exp;
    if (capMs && delay > capMs)
        delay = capMs;
    // Jitter in [50%, 150%], seeded so two workers retrying the same
    // moment don't stampede in sync -- but reproducibly.
    Rng rng(mix64(mix64(seed, static_cast<uint64_t>(jobIndex)), attempt));
    uint64_t percent = 50 + rng.below(101);
    return delay * percent / 100;
}

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
    json.member("cache", cacheEnabled);
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
    json.member("enum_hits", cacheStats.enumHits);
    json.member("enum_misses", cacheStats.enumMisses);
    json.member("select_hits", cacheStats.selectHits);
    json.member("select_misses", cacheStats.selectMisses);
    json.member("evictions", cacheStats.evictions);
    json.member("persist_hits", cacheStats.persistHits);
    json.member("persist_misses", cacheStats.persistMisses);
    json.member("persist_stores", cacheStats.persistStores);
    json.member("persist_corrupt", cacheStats.persistCorrupt);
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

FarmJobResult
runFarmJob(const FarmJob &job, const Program &program,
           uint64_t programHash, compress::PipelineCache *cache,
           bool keepImages)
{
    FarmJobResult result;
    result.id = job.id;
    result.workload = job.workload;
    result.scheme = compress::schemeCliName(job.config.scheme);
    result.strategy = compress::strategyName(job.config.strategy);
    Clock::time_point jobStart = Clock::now();
    try {
        // Profile-guided layout without a caller-supplied profile:
        // profile here, where the built program is at hand, so job
        // specs stay declarative (the profile itself is deterministic).
        compress::CompressorConfig config = job.config;
        if (config.layout == compress::LayoutMode::HotCold &&
            config.trafficProfile.empty())
            config.trafficProfile = timing::profileExecutionCounts(program);
        compress::PipelineContext ctx(program, config);
        if (cache) {
            ctx.cache = cache;
            ctx.programHash = programHash;
        }
        result.stats = compress::Pipeline::standard().run(ctx);
        const compress::CompressedImage &image = ctx.image;
        result.totalBytes = image.totalBytes();
        result.textBytes = image.compressedTextBytes();
        result.dictBytes = image.dictionaryBytes();
        result.ratio = image.compressionRatio();
        result.farBranchExpansions = image.farBranchExpansions;
        std::vector<uint8_t> bytes = saveImage(image);
        result.imageFnv64 = fnv1a64(bytes);
        if (keepImages)
            result.imageBytes = std::move(bytes);
    } catch (const LoadFailure &failure) {
        result.error = failure.what();
        result.failureKind = FailureKind::LoadError;
    } catch (const std::exception &error) {
        result.error = error.what();
        result.failureKind = FailureKind::SpecError;
    }
    result.millis = millisSince(jobStart);
    return result;
}

FarmReport
runFarm(const std::vector<FarmJob> &jobs, const FarmOptions &options)
{
    Clock::time_point runStart = Clock::now();
    FarmReport report;
    report.cacheEnabled = options.cache;
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
        // ccfarm binary in --worker mode); the parent builds nothing
        // and touches no job state, so no fault can reach it.
        std::string workerBin = options.workerBinary.empty()
                                    ? selfExecutablePath()
                                    : options.workerBinary;
        if (workerBin.empty())
            CC_FATAL("isolation requires a worker binary (set "
                     "FarmOptions::workerBinary)");
        if (!std::filesystem::exists(workerBin))
            CC_FATAL("worker binary '", workerBin, "' does not exist");

        std::filesystem::path scratch =
            options.scratchDir.empty()
                ? std::filesystem::temp_directory_path()
                : std::filesystem::path(options.scratchDir);
        scratch /= "ccfarm-" + std::to_string(::getpid()) + "-" +
                   hexDigest(mix64(options.seed,
                                   static_cast<uint64_t>(
                                       Clock::now().time_since_epoch()
                                           .count())));
        std::error_code ec;
        std::filesystem::create_directories(scratch, ec);
        if (ec)
            CC_FATAL("cannot create farm scratch directory '",
                     scratch.string(), "': ", ec.message());

        compress::PipelineCache::Stats cacheTotals;
        std::mutex cacheTotalsMutex;
        Clock::time_point compressStart = Clock::now();
        report.results = parallelMap<FarmJobResult>(
            jobs.size(), [&](size_t i) {
                return runIsolatedJob(jobs[i], i, options, workerBin,
                                      scratch, cacheTotals,
                                      cacheTotalsMutex);
            });
        report.compressMillis = millisSince(compressStart);
        report.cacheStats = cacheTotals;
        std::filesystem::remove_all(scratch, ec);
        report.wallMillis = millisSince(runStart);
        return report;
    }

    // Build each distinct (workload, scale) program once, in parallel;
    // its content hash doubles as the cache identity for every job
    // that compresses it.
    std::vector<std::pair<std::string, int>> uniques;
    std::map<std::pair<std::string, int>, size_t> programOf;
    for (const FarmJob &job : jobs) {
        auto key = std::make_pair(job.workload, job.scale);
        if (programOf.emplace(key, uniques.size()).second)
            uniques.push_back(key);
    }
    Clock::time_point buildStart = Clock::now();
    std::vector<BuiltProgram> built = parallelMap<BuiltProgram>(
        uniques.size(), [&uniques](size_t i) {
            BuiltProgram b;
            b.program = workloads::buildBenchmark(uniques[i].first,
                                                  uniques[i].second);
            b.hash = compress::PipelineCache::programHash(b.program);
            return b;
        });
    report.buildMillis = millisSince(buildStart);

    // Shard the queue: one pool task per job, results index-addressed
    // so the report order is the queue order at any pool width.
    compress::PipelineCache cache;
    if (options.cacheMaxEntries || options.cacheMaxBytes)
        cache.setCapacity(options.cacheMaxEntries, options.cacheMaxBytes);
    if (!options.cacheDir.empty() && options.cache)
        cache.setDiskStore(options.cacheDir);
    auto programFor = [&](const FarmJob &job) -> const BuiltProgram & {
        return built[programOf.at({job.workload, job.scale})];
    };

    // A duplicate job (same program and Select key as an earlier one)
    // waits for a second wave, after the first copy has stored its
    // selection: duplicates are then Select cache hits at any pool
    // width instead of racing to compute the same entry.
    std::vector<size_t> firsts, duplicates;
    std::set<uint64_t> seenSelectKeys;
    for (size_t i = 0; i < jobs.size(); ++i) {
        uint64_t key = compress::PipelineCache::selectKey(
            programFor(jobs[i]).hash, jobs[i].config);
        if (!options.cache || seenSelectKeys.insert(key).second)
            firsts.push_back(i);
        else
            duplicates.push_back(i);
    }

    Clock::time_point compressStart = Clock::now();
    report.results.resize(jobs.size());
    for (const std::vector<size_t> *wave : {&firsts, &duplicates})
        globalPool().parallelFor(wave->size(), [&](size_t k) {
            size_t i = (*wave)[k];
            const BuiltProgram &prog = programFor(jobs[i]);
            report.results[i] = runFarmJob(
                jobs[i], prog.program, prog.hash,
                options.cache ? &cache : nullptr, options.keepImages);
        });
    report.compressMillis = millisSince(compressStart);
    report.cacheStats = cache.stats();
    report.wallMillis = millisSince(runStart);
    return report;
}

} // namespace codecomp::farm
