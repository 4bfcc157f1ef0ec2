/**
 * @file
 * ccfarm -- run a queue of compression jobs as one batched, cached,
 * fault-tolerant parallel farm run and aggregate the results.
 *
 *   ccfarm [--spec jobs.json]
 *          [--workloads a,b,...] [--schemes x,y] [--strategies s,t]
 *          [--jobs N] [--isolate N] [--job-timeout MS] [--retries N]
 *          [--backoff MS] [--cache-dir dir/]
 *          [--report out.json] [--results out.json] [--images outdir/]
 *          [--list]
 *
 * Without --spec the queue is the starter corpus (all 8 workloads x
 * every registered scheme x {greedy, refit}), optionally narrowed by
 * the --workloads / --schemes / --strategies comma lists. With --spec
 * the queue comes from a job-spec JSON file (src/farm/jobspec.hh) and
 * the narrowing flags are rejected.
 *
 * --isolate N runs every job in a forked worker subprocess (this very
 * binary in its hidden --worker mode) on an N-wide pool: a crash,
 * hang, machine check, or OOM kill in one job becomes a classified
 * per-job failure instead of taking down the run. --job-timeout and
 * --retries add deadlines and retry-with-backoff on top; the delay
 * doubles from --backoff MS, with jitter fixed per (job, attempt).
 *
 * Every run shares its work through one pipeline cache. --cache-dir
 * backs it with a crash-safe on-disk store shared across runs and
 * worker processes; a damaged store is detected (checksums),
 * quarantined, and silently recomputed -- results are never affected.
 *
 * --images writes each job's .cci image into the directory (job ids
 * with '/' becoming '-'); the images are bit-identical to what serial
 * ccompress produces for the same program and config, at any --jobs /
 * --isolate width, with retries, and with or without --cache-dir.
 * --report writes the full aggregated JSON report; --results writes
 * just the deterministic results array (the byte-identity surface the
 * determinism tests compare); stdout always carries a human summary.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "compress/encoding.hh"
#include "compress/strategy.hh"
#include "farm/farm.hh"
#include "farm/jobspec.hh"
#include "farm/worker.hh"
#include "support/serialize.hh"
#include "support/thread_pool.hh"
#include "workloads/workloads.hh"
#include "tool_common.hh"

using namespace codecomp;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: ccfarm [--spec jobs.json] [--workloads a,b,...] "
                 "[--schemes %s,...] "
                 "[--strategies greedy,refit] [--jobs N] "
                 "[--isolate N] [--job-timeout MS] [--retries N] "
                 "[--backoff MS] "
                 "[--cache-dir dir/] [--report out.json] "
                 "[--results out.json] [--images outdir/] [--list]\n",
                 compress::schemeCliNames(",").c_str());
    return tools::exitUserError;
}

int
badArg(const std::string &message)
{
    std::fprintf(stderr, "ccfarm: %s\n", message.c_str());
    return tools::exitUserError;
}

/** "gcc/nibble/refit" -> "gcc-nibble-refit.cci". */
std::string
imageFileName(const std::string &id)
{
    std::string name = id;
    for (char &c : name)
        if (c == '/')
            c = '-';
    return name + ".cci";
}

void
writeText(const std::string &path, const std::string &text)
{
    writeFile(path, std::vector<uint8_t>(text.begin(), text.end()));
}

/**
 * Hidden worker mode: execute exactly one job from the one-job spec
 * given as the argument of --worker and write the checksummed binary
 * result (writeFileAtomic, so a kill mid-write leaves no half-written
 * file the parent could mistake for a result). In-band job failures
 * still exit 0 -- the result file carries their FailureKind; only
 * worker-level plumbing failures (bad spec, unwritable result) exit
 * nonzero.
 */
int
runWorker(int argc, char **argv)
{
    std::string spec;
    std::string outPath;
    std::string cacheDir;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--worker" && i + 1 < argc) {
            spec = argv[++i];
        } else if (arg == "--worker-out" && i + 1 < argc) {
            outPath = argv[++i];
        } else if (arg == "--cache-dir" && i + 1 < argc) {
            cacheDir = argv[++i];
        } else {
            return badArg("unknown worker-mode argument '" + arg + "'");
        }
    }
    if (spec.empty() || outPath.empty())
        return badArg("--worker requires --worker-out");

    std::vector<farm::FarmJob> jobs = farm::parseJobSpec(spec);
    if (jobs.size() != 1)
        return badArg("worker spec must contain exactly one job, got " +
                      std::to_string(jobs.size()));

    farm::WorkerResult result = farm::runWorkerJob(jobs[0], cacheDir);
    if (std::optional<LoadError> error = writeFileAtomic(
            outPath, farm::serializeWorkerResult(result)))
        throw LoadFailure(*error);
    return tools::exitOk;
}

int
run(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--worker")
            return runWorker(argc, argv);

    std::string specPath;
    std::string reportPath;
    std::string resultsPath;
    std::string imagesDir;
    std::vector<std::string> workloadFilter;
    std::vector<std::string> schemeFilter;
    std::vector<std::string> strategyFilter;
    bool list = false;
    farm::FarmOptions options;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--spec" && i + 1 < argc) {
            specPath = argv[++i];
        } else if (arg == "--workloads" && i + 1 < argc) {
            workloadFilter = tools::splitList(argv[++i]);
        } else if (arg == "--schemes" && i + 1 < argc) {
            schemeFilter = tools::splitList(argv[++i]);
        } else if (arg == "--strategies" && i + 1 < argc) {
            strategyFilter = tools::splitList(argv[++i]);
        } else if (arg == "--jobs" && i + 1 < argc) {
            setGlobalJobs(tools::flagValue<unsigned>("--jobs", argv[++i], 1));
        } else if (arg == "--isolate" && i + 1 < argc) {
            setGlobalJobs(
                tools::flagValue<unsigned>("--isolate", argv[++i], 1));
            options.isolate = true;
        } else if (arg == "--job-timeout" && i + 1 < argc) {
            options.jobTimeoutMs =
                tools::flagValue<uint64_t>("--job-timeout", argv[++i]);
        } else if (arg == "--retries" && i + 1 < argc) {
            options.retries =
                tools::flagValue<uint32_t>("--retries", argv[++i], 0, 100);
        } else if (arg == "--backoff" && i + 1 < argc) {
            options.backoffBaseMs =
                tools::flagValue<uint64_t>("--backoff", argv[++i]);
        } else if (arg == "--cache-dir" && i + 1 < argc) {
            options.cacheDir = argv[++i];
        } else if (arg == "--report" && i + 1 < argc) {
            reportPath = argv[++i];
        } else if (arg == "--results" && i + 1 < argc) {
            resultsPath = argv[++i];
        } else if (arg == "--images" && i + 1 < argc) {
            imagesDir = argv[++i];
        } else if (arg == "--list") {
            list = true;
        } else {
            return usage();
        }
    }

    // Preflight every output destination before any job runs: an
    // unwritable report path must fail in milliseconds, not after the
    // whole corpus has been compressed.
    for (const std::string &path : {reportPath, resultsPath}) {
        if (path.empty())
            continue;
        std::filesystem::path parent =
            std::filesystem::path(path).parent_path();
        if (!parent.empty() && !std::filesystem::is_directory(parent))
            return badArg("output directory '" + parent.string() +
                          "' does not exist");
    }
    if (!imagesDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(imagesDir, ec);
        if (ec || !std::filesystem::is_directory(imagesDir))
            return badArg("cannot create image directory '" + imagesDir +
                          "'" + (ec ? ": " + ec.message() : ""));
    }

    // Assemble the queue: a spec file, or the (filtered) starter corpus.
    std::vector<farm::FarmJob> jobs;
    if (!specPath.empty()) {
        if (!workloadFilter.empty() || !schemeFilter.empty() ||
            !strategyFilter.empty())
            return badArg("--spec and the --workloads/--schemes/"
                          "--strategies filters are mutually exclusive");
        std::vector<uint8_t> bytes = readFile(specPath);
        jobs = farm::parseJobSpec(
            std::string(bytes.begin(), bytes.end()));
    } else {
        // Validate the filters up front so a typo is a usage error,
        // not an empty run.
        for (const std::string &name : schemeFilter)
            if (!compress::parseSchemeName(name))
                return badArg("unknown scheme '" + name +
                              "' (expected " +
                              compress::schemeCliNames(", ") + ")");
        // The shared parser's catchable fatal carries the registry's
        // strategy list; runTool maps it to the same usage exit.
        for (const std::string &name : strategyFilter)
            compress::parseStrategyNameOrFatal(name);
        const std::vector<std::string> &known =
            workloads::benchmarkNames();
        for (const std::string &name : workloadFilter)
            if (std::find(known.begin(), known.end(), name) ==
                known.end())
                return badArg("unknown workload '" + name + "'");
        auto keep = [](const std::vector<std::string> &filter,
                       const std::string &value) {
            return filter.empty() ||
                   std::find(filter.begin(), filter.end(), value) !=
                       filter.end();
        };
        for (farm::FarmJob &job : farm::starterCorpus()) {
            if (keep(workloadFilter, job.workload) &&
                keep(schemeFilter,
                     compress::schemeCliName(job.config.scheme)) &&
                keep(strategyFilter,
                     compress::strategyName(job.config.strategy)))
                jobs.push_back(std::move(job));
        }
    }
    if (jobs.empty())
        return badArg("the job queue is empty");

    if (list) {
        for (const farm::FarmJob &job : jobs)
            std::printf("%s\n", job.id.c_str());
        return tools::exitOk;
    }

    farm::FarmReport report = farm::runFarm(jobs, options);

    if (!imagesDir.empty()) {
        for (const farm::FarmJobResult &result : report.results)
            if (result.ok())
                writeFile((std::filesystem::path(imagesDir) /
                           imageFileName(result.id))
                              .string(),
                          result.image->bytes);
    }
    if (!reportPath.empty())
        writeText(reportPath, report.toJson() + "\n");
    if (!resultsPath.empty())
        writeText(resultsPath, report.resultsJson() + "\n");

    for (const farm::FarmJobResult &result : report.results) {
        if (!result.ok()) {
            std::fprintf(stderr,
                         "ccfarm: %s: [%s, %u attempt%s] %s\n",
                         result.id.c_str(),
                         farm::failureKindName(result.failureKind),
                         result.attempts,
                         result.attempts == 1 ? "" : "s",
                         result.error.c_str());
            continue;
        }
        std::printf("%-28s %8llu bytes  ratio %5.1f%%  %7.1f ms\n",
                    result.id.c_str(),
                    static_cast<unsigned long long>(result.totalBytes),
                    result.ratio * 100, result.millis);
    }
    const compress::PipelineCache::Stats &cs = report.cacheStats;
    std::printf("%zu jobs (%zu failed) on %u %s in %.1f ms "
                "(%.1f jobs/s)\n",
                report.results.size(), report.failures(),
                report.poolJobs,
                report.isolated ? "isolated workers" : "workers",
                report.wallMillis,
                report.compressMillis > 0.0
                    ? 1000.0 *
                          static_cast<double>(report.results.size()) /
                          report.compressMillis
                    : 0.0);
    std::printf("cache: program %llu hit / %llu miss, image %llu "
                "hit / %llu miss, enumerate %llu hit / %llu miss, select "
                "%llu hit / %llu miss",
                static_cast<unsigned long long>(cs.programHits),
                static_cast<unsigned long long>(cs.programMisses),
                static_cast<unsigned long long>(cs.imageHits),
                static_cast<unsigned long long>(cs.imageMisses),
                static_cast<unsigned long long>(cs.enumHits),
                static_cast<unsigned long long>(cs.enumMisses),
                static_cast<unsigned long long>(cs.selectHits),
                static_cast<unsigned long long>(cs.selectMisses));
    if (!options.cacheDir.empty())
        std::printf("; disk %llu hit / %llu store / %llu corrupt",
                    static_cast<unsigned long long>(cs.persistHits),
                    static_cast<unsigned long long>(cs.persistStores),
                    static_cast<unsigned long long>(cs.persistCorrupt));
    std::printf("\n");
    return report.failures() == 0 ? tools::exitOk
                                  : tools::exitUserError;
}

} // namespace

int
main(int argc, char **argv)
{
    return tools::runTool("ccfarm", [&] { return run(argc, argv); });
}
