/**
 * @file
 * Tests for the farm's fault tolerance: the subprocess helper, the
 * worker result protocol (round-trip and corruption rejection), the
 * failure-classification table, deterministic fault injection and
 * backoff, the crash-safe persistent pipeline cache (damage is
 * detected, quarantined, and never changes results), LRU capacity
 * eviction, and -- when the ccfarm binary is available -- end-to-end
 * process isolation with deadlines and retries.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include <unistd.h>

#include "candidate_oracle.hh"
#include "compress/cache.hh"
#include "compress/compressor.hh"
#include "compress/encoding.hh"
#include "compress/objfile.hh"
#include "compress/pipeline.hh"
#include "compress/strategy.hh"
#include "farm/farm.hh"
#include "farm/worker.hh"
#include "support/serialize.hh"
#include "support/subprocess.hh"
#include "support/thread_pool.hh"
#include "workloads/workloads.hh"

using namespace codecomp;

namespace {

// ---------------- helpers ----------------

farm::FarmJob
makeJob(const std::string &workload, compress::Scheme scheme,
        compress::StrategyKind strategy)
{
    farm::FarmJob job;
    job.workload = workload;
    job.config.scheme = scheme;
    job.config.strategy = strategy;
    job.config.maxEntries = 4680;
    job.id = workload + "/" + compress::schemeCliName(scheme) + "/" +
             compress::strategyName(strategy);
    return job;
}

std::vector<farm::FarmJob>
tinyCorpus()
{
    return {
        makeJob("compress", compress::Scheme::Nibble,
                compress::StrategyKind::Greedy),
        makeJob("compress", compress::Scheme::OneByte,
                compress::StrategyKind::Greedy),
        makeJob("li", compress::Scheme::Nibble,
                compress::StrategyKind::Greedy),
    };
}

/** A fresh per-test scratch directory, removed on destruction. */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &tag)
        : path_(std::filesystem::temp_directory_path() /
                ("cc-farmfault-" + tag + "-" +
                 std::to_string(::getpid())))
    {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~ScratchDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    std::string str() const { return path_.string(); }
    const std::filesystem::path &path() const { return path_; }

  private:
    std::filesystem::path path_;
};

std::vector<std::filesystem::path>
storeEntries(const std::filesystem::path &dir, const char *extension)
{
    std::vector<std::filesystem::path> files;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        if (entry.path().extension() == extension)
            files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    return files;
}

// ---------------- subprocess helper ----------------

TEST(Subprocess, CleanExitAndExitCode)
{
    SubprocessResult ok = runSubprocess({"/bin/sh", "-c", "exit 0"});
    EXPECT_EQ(ok.outcome, SubprocessResult::Outcome::Exited);
    EXPECT_EQ(ok.exitCode, 0);
    EXPECT_TRUE(ok.ok());

    SubprocessResult seven = runSubprocess({"/bin/sh", "-c", "exit 7"});
    EXPECT_EQ(seven.outcome, SubprocessResult::Outcome::Exited);
    EXPECT_EQ(seven.exitCode, 7);
    EXPECT_FALSE(seven.ok());
}

TEST(Subprocess, SignaledDeathIsReported)
{
    SubprocessResult result =
        runSubprocess({"/bin/sh", "-c", "kill -9 $$"});
    EXPECT_EQ(result.outcome, SubprocessResult::Outcome::Signaled);
    EXPECT_EQ(result.signal, 9);
    EXPECT_FALSE(result.ok());
}

TEST(Subprocess, DeadlineKillsAHungChild)
{
    SubprocessOptions options;
    options.timeoutMs = 200;
    // Invoke sleep directly: a shell could leave an orphaned child
    // holding this process's output pipes open long after the kill.
    SubprocessResult result = runSubprocess({"/bin/sleep", "30"}, options);
    EXPECT_EQ(result.outcome, SubprocessResult::Outcome::TimedOut);
    EXPECT_FALSE(result.ok());
    // Killed near the deadline, not after the full sleep.
    EXPECT_LT(result.millis, 10000.0);
}

TEST(Subprocess, MissingBinaryExits127)
{
    SubprocessResult result =
        runSubprocess({"/nonexistent/definitely-not-a-binary"});
    EXPECT_EQ(result.outcome, SubprocessResult::Outcome::Exited);
    EXPECT_EQ(result.exitCode, 127);
}

TEST(Subprocess, StderrRedirectCapturesOutput)
{
    ScratchDir dir("stderr");
    std::string path = (dir.path() / "err.txt").string();
    SubprocessOptions options;
    options.stderrPath = path;
    SubprocessResult result = runSubprocess(
        {"/bin/sh", "-c", "echo diagnostic-line >&2"}, options);
    ASSERT_TRUE(result.ok());
    Result<std::vector<uint8_t>> bytes = tryReadFile(path);
    ASSERT_TRUE(bytes.ok());
    std::string text(bytes.value().begin(), bytes.value().end());
    EXPECT_NE(text.find("diagnostic-line"), std::string::npos);
}

TEST(Subprocess, SelfExecutablePathResolves)
{
    std::string self = selfExecutablePath();
    ASSERT_FALSE(self.empty());
    EXPECT_TRUE(std::filesystem::exists(self));
}

// ---------------- injection & backoff determinism ----------------

TEST(FarmFaultUnit, InjectionIsDeterministicAndJobLevel)
{
    farm::FaultPlan plan;
    plan.kind = farm::InjectKind::Crash;
    plan.seed = 42;
    for (size_t job = 0; job < 64; ++job) {
        bool first = farm::shouldInject(plan, job, 0);
        // Same (seed, job) on any attempt and any later call: same
        // answer -- the injected subset is a pure function of the
        // plan, so reports reproduce across runs and pool widths.
        EXPECT_EQ(farm::shouldInject(plan, job, 0), first);
        EXPECT_EQ(farm::shouldInject(plan, job, 3), first);
    }
    // ~1/3 default rate: a 64-job queue has both kinds.
    size_t injected = 0;
    for (size_t job = 0; job < 64; ++job)
        injected += farm::shouldInject(plan, job, 0) ? 1 : 0;
    EXPECT_GT(injected, 0u);
    EXPECT_LT(injected, 64u);
}

TEST(FarmFaultUnit, FirstAttemptOnlyInjectionStopsAfterRetry)
{
    farm::FaultPlan plan;
    plan.kind = farm::InjectKind::Hang;
    plan.seed = 7;
    plan.rateNum = 1;
    plan.rateDen = 1; // inject every job
    plan.firstAttemptOnly = true;
    EXPECT_TRUE(farm::shouldInject(plan, 0, 0));
    EXPECT_FALSE(farm::shouldInject(plan, 0, 1));
    EXPECT_FALSE(farm::shouldInject(plan, 0, 2));
}

TEST(FarmFaultUnit, NoneAndCorruptCachePlansNeverInject)
{
    farm::FaultPlan none;
    EXPECT_FALSE(farm::shouldInject(none, 0, 0));
    farm::FaultPlan corrupt;
    corrupt.kind = farm::InjectKind::CorruptCache;
    corrupt.rateNum = 1;
    corrupt.rateDen = 1;
    EXPECT_FALSE(farm::shouldInject(corrupt, 0, 0));
}

TEST(FarmFaultUnit, BackoffGrowsIsCappedAndJittersDeterministically)
{
    // Deterministic in (seed, job, attempt).
    EXPECT_EQ(farm::backoffMillis(1, 50, 2000, 9, 4),
              farm::backoffMillis(1, 50, 2000, 9, 4));
    // Jitter keeps every delay within [50%, 150%] of the exponential
    // schedule, and the cap bounds late attempts.
    for (uint32_t attempt = 1; attempt <= 8; ++attempt) {
        uint64_t nominal = std::min<uint64_t>(
            50ull << (attempt - 1), 2000);
        uint64_t delay = farm::backoffMillis(attempt, 50, 2000, 1, 0);
        EXPECT_GE(delay, nominal / 2) << attempt;
        EXPECT_LE(delay, nominal + nominal / 2) << attempt;
    }
    // Different jobs see different jitter (no retry stampede).
    std::set<uint64_t> delays;
    for (size_t job = 0; job < 16; ++job)
        delays.insert(farm::backoffMillis(3, 50, 2000, 1, job));
    EXPECT_GT(delays.size(), 1u);
}

TEST(FarmFaultUnit, FailureKindNamesAreStable)
{
    EXPECT_STREQ(farm::failureKindName(farm::FailureKind::None), "none");
    EXPECT_STREQ(farm::failureKindName(farm::FailureKind::Crash),
                 "crash");
    EXPECT_STREQ(farm::failureKindName(farm::FailureKind::Timeout),
                 "timeout");
    EXPECT_STREQ(farm::failureKindName(farm::FailureKind::LoadError),
                 "load_error");
    EXPECT_STREQ(farm::failureKindName(farm::FailureKind::MachineCheck),
                 "machine_check");
    EXPECT_STREQ(farm::failureKindName(farm::FailureKind::SpecError),
                 "spec_error");
}

// ---------------- worker outcome classification ----------------

farm::WorkerResult
inBandFailure(farm::FailureKind kind, const std::string &error)
{
    farm::WorkerResult worker;
    worker.result.error = error;
    worker.result.failureKind = kind;
    return worker;
}

TEST(FarmFaultUnit, ClassifiesEverySubprocessOutcome)
{
    SubprocessResult spawn;
    farm::WorkerResult clean;

    spawn.outcome = SubprocessResult::Outcome::TimedOut;
    EXPECT_EQ(farm::classifyWorkerOutcome(spawn, false, clean),
              farm::FailureKind::Timeout);

    spawn.outcome = SubprocessResult::Outcome::Signaled;
    spawn.signal = 11;
    EXPECT_EQ(farm::classifyWorkerOutcome(spawn, false, clean),
              farm::FailureKind::Crash);

    spawn.outcome = SubprocessResult::Outcome::SpawnFailed;
    EXPECT_EQ(farm::classifyWorkerOutcome(spawn, false, clean),
              farm::FailureKind::LoadError);

    spawn.outcome = SubprocessResult::Outcome::Exited;
    spawn.exitCode = 0;
    // Exit 0 with an unreadable/corrupt result file: LoadError.
    EXPECT_EQ(farm::classifyWorkerOutcome(spawn, false, clean),
              farm::FailureKind::LoadError);
    // Exit 0 with a clean parsed result: success.
    EXPECT_EQ(farm::classifyWorkerOutcome(spawn, true, clean),
              farm::FailureKind::None);
    // Exit 0 with an in-band failure: the worker's own kind wins.
    EXPECT_EQ(farm::classifyWorkerOutcome(
                  spawn, true,
                  inBandFailure(farm::FailureKind::MachineCheck, "mc")),
              farm::FailureKind::MachineCheck);
    EXPECT_EQ(farm::classifyWorkerOutcome(
                  spawn, true,
                  inBandFailure(farm::FailureKind::None, "plain error")),
              farm::FailureKind::SpecError);

    // Tool exit contract: 2 = machine check, 1/127 = load-level, 3 or
    // anything else abrupt = crash.
    spawn.exitCode = 2;
    EXPECT_EQ(farm::classifyWorkerOutcome(spawn, false, clean),
              farm::FailureKind::MachineCheck);
    spawn.exitCode = 1;
    EXPECT_EQ(farm::classifyWorkerOutcome(spawn, false, clean),
              farm::FailureKind::LoadError);
    spawn.exitCode = 127;
    EXPECT_EQ(farm::classifyWorkerOutcome(spawn, false, clean),
              farm::FailureKind::LoadError);
    spawn.exitCode = 3;
    EXPECT_EQ(farm::classifyWorkerOutcome(spawn, false, clean),
              farm::FailureKind::Crash);
}

// ---------------- worker result protocol ----------------

farm::WorkerResult
sampleWorkerResult()
{
    farm::WorkerResult worker;
    farm::FarmJobResult &r = worker.result;
    r.id = "compress/nibble/greedy";
    r.workload = "compress";
    r.scheme = "nibble";
    r.strategy = "greedy";
    r.imageBytes = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x42};
    r.imageFnv64 = fnv1a64(r.imageBytes);
    r.totalBytes = 5371;
    r.textBytes = 4000;
    r.dictBytes = 900;
    r.ratio = 0.54215;
    r.farBranchExpansions = 3;
    r.millis = 12.75;
    r.attempts = 2;
    compress::PassStats pass;
    pass.name = "enumerate";
    pass.millis = 3.5;
    pass.counters = {{"candidates", 1234}, {"kept", 99}};
    r.stats.strategy = "greedy";
    r.stats.scheme = "nibble";
    r.stats.selectionRounds = 1;
    r.stats.passes = {pass};
    worker.cacheStats.enumHits = 1;
    worker.cacheStats.selectMisses = 2;
    worker.cacheStats.persistStores = 3;
    return worker;
}

TEST(WorkerProtocol, RoundTripsEveryField)
{
    farm::WorkerResult original = sampleWorkerResult();
    std::vector<uint8_t> bytes = farm::serializeWorkerResult(original);
    Result<farm::WorkerResult> parsed = farm::parseWorkerResult(bytes);
    ASSERT_TRUE(parsed.ok()) << parsed.error().message();
    const farm::FarmJobResult &r = parsed.value().result;
    const farm::FarmJobResult &o = original.result;
    EXPECT_EQ(r.id, o.id);
    EXPECT_EQ(r.workload, o.workload);
    EXPECT_EQ(r.scheme, o.scheme);
    EXPECT_EQ(r.strategy, o.strategy);
    EXPECT_EQ(r.imageBytes, o.imageBytes);
    EXPECT_EQ(r.imageFnv64, o.imageFnv64);
    EXPECT_EQ(r.totalBytes, o.totalBytes);
    EXPECT_EQ(r.textBytes, o.textBytes);
    EXPECT_EQ(r.dictBytes, o.dictBytes);
    // Doubles cross the boundary as raw bits: exact equality holds.
    EXPECT_EQ(r.ratio, o.ratio);
    EXPECT_EQ(r.millis, o.millis);
    EXPECT_EQ(r.farBranchExpansions, o.farBranchExpansions);
    EXPECT_EQ(r.attempts, o.attempts);
    EXPECT_EQ(r.failureKind, o.failureKind);
    ASSERT_EQ(r.stats.passes.size(), 1u);
    EXPECT_EQ(r.stats.passes[0].name, "enumerate");
    EXPECT_EQ(r.stats.passes[0].millis, 3.5);
    EXPECT_EQ(r.stats.passes[0].counters, o.stats.passes[0].counters);
    EXPECT_EQ(parsed.value().cacheStats.enumHits, 1u);
    EXPECT_EQ(parsed.value().cacheStats.selectMisses, 2u);
    EXPECT_EQ(parsed.value().cacheStats.persistStores, 3u);
}

TEST(WorkerProtocol, RejectsDamageAnywhere)
{
    std::vector<uint8_t> good =
        farm::serializeWorkerResult(sampleWorkerResult());
    ASSERT_TRUE(farm::parseWorkerResult(good).ok());

    // A bit flip at any position must be rejected -- header bytes trip
    // magic/version, payload bytes trip the checksum, checksum bytes
    // trip themselves. (Every 7th position keeps the sweep fast.)
    for (size_t pos = 0; pos < good.size(); pos += 7) {
        std::vector<uint8_t> bad = good;
        bad[pos] ^= 0x01;
        EXPECT_FALSE(farm::parseWorkerResult(bad).ok()) << pos;
    }
    // Truncation at any length must be rejected.
    for (size_t len : {size_t{0}, size_t{3}, size_t{10},
                       good.size() / 2, good.size() - 1}) {
        std::vector<uint8_t> bad(good.begin(),
                                 good.begin() +
                                     static_cast<ptrdiff_t>(len));
        EXPECT_FALSE(farm::parseWorkerResult(bad).ok()) << len;
    }
    // Trailing garbage must be rejected.
    std::vector<uint8_t> trailing = good;
    trailing.push_back(0x00);
    EXPECT_FALSE(farm::parseWorkerResult(trailing).ok());
    // An out-of-range failure kind must be rejected even though the
    // checksum would need recomputing to reach it honestly; damage
    // the kind byte and expect the checksum gate to hold.
    std::vector<uint8_t> skewed = good;
    skewed[5] ^= 0xff; // version word
    EXPECT_FALSE(farm::parseWorkerResult(skewed).ok());
}

// ---------------- crash-safe persistent cache ----------------

TEST(FarmFaultCache, PersistentStoreRoundTripsAcrossRuns)
{
    ScratchDir dir("persist");
    std::vector<farm::FarmJob> jobs = tinyCorpus();
    farm::FarmOptions options;
    options.cacheDir = dir.str();

    setGlobalJobs(1);
    farm::FarmReport cold = farm::runFarm(jobs, options);
    farm::FarmReport warm = farm::runFarm(jobs, options);
    setGlobalJobs(0);

    ASSERT_EQ(cold.failures(), 0u);
    ASSERT_EQ(warm.failures(), 0u);
    EXPECT_GT(cold.cacheStats.persistStores, 0u);
    EXPECT_GT(warm.cacheStats.persistHits, 0u);
    EXPECT_EQ(warm.cacheStats.persistCorrupt, 0u);
    // Disk-served results are bit-identical to computed ones.
    EXPECT_EQ(cold.resultsJson(), warm.resultsJson());
    for (size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(cold.results[i].imageBytes, warm.results[i].imageBytes)
            << jobs[i].id;
    EXPECT_FALSE(storeEntries(dir.path(), ".cce").empty());
}

TEST(FarmFaultCache, DamagedEntriesAreQuarantinedAndRecomputed)
{
    ScratchDir dir("corrupt");
    std::vector<farm::FarmJob> jobs = tinyCorpus();
    farm::FarmOptions options;
    options.cacheDir = dir.str();

    setGlobalJobs(1);
    farm::FarmReport cold = farm::runFarm(jobs, options);
    ASSERT_EQ(cold.failures(), 0u);

    // Damage every entry file: a bit flip, a truncation, and a
    // version skew, cycling -- one pass exercises every detector.
    std::vector<std::filesystem::path> files =
        storeEntries(dir.path(), ".cce");
    ASSERT_FALSE(files.empty());
    for (size_t i = 0; i < files.size(); ++i) {
        std::vector<uint8_t> bytes = readFile(files[i].string());
        switch (i % 3) {
          case 0:
            bytes[bytes.size() / 2] ^= 0x40;
            break;
          case 1:
            bytes.resize(bytes.size() / 2);
            break;
          case 2:
            bytes[5] ^= 0xff; // the version word
            break;
        }
        writeFile(files[i].string(), bytes);
    }

    farm::FarmReport warm = farm::runFarm(jobs, options);
    setGlobalJobs(0);
    ASSERT_EQ(warm.failures(), 0u);
    // Every damaged entry was detected; none changed a result.
    EXPECT_GT(warm.cacheStats.persistCorrupt, 0u);
    EXPECT_EQ(cold.resultsJson(), warm.resultsJson());
    for (size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(cold.results[i].imageBytes, warm.results[i].imageBytes)
            << jobs[i].id;
    // Damaged files were moved aside, and the recomputation re-stored
    // clean replacements.
    EXPECT_FALSE(storeEntries(dir.path(), ".quarantined").empty());
    EXPECT_GT(warm.cacheStats.persistStores, 0u);
}

TEST(FarmFaultCache, ForeignFilesInTheStoreAreLeftAlone)
{
    // A store directory shared with other artifacts: the cache only
    // ever touches its own entry paths, so foreign files survive a
    // full cold run untouched.
    ScratchDir dir("foreign");
    std::string readme = (dir.path() / "README.txt").string();
    writeFile(readme, std::vector<uint8_t>{'h', 'i'});

    farm::FarmOptions options;
    options.cacheDir = dir.str();
    farm::FarmReport report = farm::runFarm(
        {makeJob("compress", compress::Scheme::Nibble,
                 compress::StrategyKind::Greedy)},
        options);
    EXPECT_EQ(report.failures(), 0u);
    EXPECT_EQ(readFile(readme), (std::vector<uint8_t>{'h', 'i'}));
}

TEST(FarmFaultCache, UnusableStoreDirectoryDegradesGracefully)
{
    // A store rooted inside a file (not a directory) cannot be
    // created; the cache must disable persistence, not fail the run.
    ScratchDir dir("unusable");
    std::string filePath = (dir.path() / "plainfile").string();
    writeFile(filePath, std::vector<uint8_t>{1, 2, 3});
    compress::PipelineCache cache;
    EXPECT_FALSE(cache.setDiskStore(filePath + "/sub"));

    farm::FarmOptions options;
    options.cacheDir = filePath + "/sub";
    farm::FarmReport report = farm::runFarm(
        {makeJob("compress", compress::Scheme::Nibble,
                 compress::StrategyKind::Greedy)},
        options);
    EXPECT_EQ(report.failures(), 0u);
}

TEST(FarmFaultCache, CapacityCapEvictsLruButNeverChangesResults)
{
    std::vector<farm::FarmJob> jobs = tinyCorpus();
    farm::FarmOptions uncapped;
    farm::FarmOptions capped;
    capped.cacheMaxEntries = 1;

    setGlobalJobs(1);
    farm::FarmReport a = farm::runFarm(jobs, uncapped);
    farm::FarmReport b = farm::runFarm(jobs, capped);
    setGlobalJobs(0);

    ASSERT_EQ(a.failures(), 0u);
    ASSERT_EQ(b.failures(), 0u);
    EXPECT_EQ(a.cacheStats.evictions, 0u);
    EXPECT_GT(b.cacheStats.evictions, 0u);
    EXPECT_EQ(a.resultsJson(), b.resultsJson());
    for (size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(a.results[i].imageBytes, b.results[i].imageBytes);
}

TEST(FarmFaultCache, VersionOneEntryIsQuarantinedAndRecomputed)
{
    // A store written before candidate sets became CSR arrays holds
    // version-1 Enumerate entries (one vector pair per candidate). The
    // checksum still holds, so only the version check stands between
    // that payload and the version-2 parser: the entry must be
    // quarantined and recomputed, with the cold run's image.
    ScratchDir dir("v1");
    Program program = workloads::buildBenchmark("compress");
    compress::CompressorConfig config;
    config.scheme = compress::Scheme::Nibble;
    config.maxEntries = 4680;
    std::vector<uint8_t> cold =
        saveImage(compress::compressProgram(program, config));

    uint64_t programHash = compress::PipelineCache::programHash(program);
    uint64_t key =
        compress::PipelineCache::enumerateKey(programHash, config);
    Cfg cfg = Cfg::build(program);
    ByteSink payload;
    std::vector<test::OracleCandidate> candidates =
        test::oracleEnumerate(program, cfg, 1, config.maxEntryLen);
    payload.put32(static_cast<uint32_t>(candidates.size()));
    for (const test::OracleCandidate &cand : candidates) {
        payload.put32(static_cast<uint32_t>(cand.seq.size()));
        for (isa::Word word : cand.seq)
            payload.put32(word);
        payload.put32(static_cast<uint32_t>(cand.positions.size()));
        for (uint32_t pos : cand.positions)
            payload.put32(pos);
    }
    ByteSink entry;
    entry.put32(0x43434348); // "CCCH"
    entry.put16(1);          // the old store version
    entry.put8(1);           // Enumerate
    entry.put64(key);
    entry.putBlob(payload.bytes());
    entry.put64(fnv1a64(payload.bytes()));
    char name[40];
    std::snprintf(name, sizeof(name), "enum-%016llx.cce",
                  static_cast<unsigned long long>(key));
    std::filesystem::path path = dir.path() / name;
    writeFile(path.string(), entry.bytes());

    compress::PipelineCache cache;
    ASSERT_TRUE(cache.setDiskStore(dir.str()));
    compress::PipelineContext ctx(program, config);
    ctx.cache = &cache;
    ctx.programHash = programHash;
    compress::Pipeline::standard().run(ctx);
    EXPECT_EQ(saveImage(ctx.image), cold);
    compress::PipelineCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.persistCorrupt, 1u);
    EXPECT_EQ(stats.enumMisses, 1u);
    EXPECT_TRUE(std::filesystem::exists(path.string() + ".quarantined"));

    // The recomputed entry replaced it in the current format and reads
    // back as exactly the enumerated set.
    compress::PipelineCache fresh;
    ASSERT_TRUE(fresh.setDiskStore(dir.str()));
    auto loaded = fresh.findCandidates(key);
    ASSERT_TRUE(loaded);
    EXPECT_TRUE(*loaded == compress::enumerateCandidates(
                               program, cfg, 1, config.maxEntryLen));
    EXPECT_EQ(fresh.stats().persistHits, 1u);
    EXPECT_EQ(fresh.stats().persistCorrupt, 0u);
}

TEST(FarmFaultCache, ByteCapAlsoEvicts)
{
    std::vector<farm::FarmJob> jobs = tinyCorpus();
    farm::FarmOptions options;
    options.cacheMaxBytes = 1024; // far below one candidate list
    setGlobalJobs(1);
    farm::FarmReport report = farm::runFarm(jobs, options);
    setGlobalJobs(0);
    ASSERT_EQ(report.failures(), 0u);
    EXPECT_GT(report.cacheStats.evictions, 0u);
}

// ---------------- empty queue ----------------

TEST(FarmFaultUnit, EmptyQueueYieldsAValidEmptyReport)
{
    farm::FarmReport report = farm::runFarm({});
    EXPECT_TRUE(report.results.empty());
    EXPECT_EQ(report.failures(), 0u);
    EXPECT_EQ(report.resultsJson(), "[]");
    // The full report is well-formed JSON with zero totals.
    std::string json = report.toJson();
    EXPECT_NE(json.find("\"jobs\":0"), std::string::npos);
    EXPECT_NE(json.find("\"results\":[]"), std::string::npos);

    // Isolated flavor too: no scratch traffic, same shape.
    farm::FarmOptions isolated;
    isolated.isolate = true;
    isolated.workerBinary = selfExecutablePath();
    farm::FarmReport report2 = farm::runFarm({}, isolated);
    EXPECT_TRUE(report2.results.empty());
    EXPECT_EQ(report2.resultsJson(), "[]");
}

// ---------------- end-to-end isolation ----------------

/** The ccfarm binary under test, baked in by CMake; isolation tests
 *  skip if it has not been built yet. */
std::string
ccfarmBinary()
{
#ifdef CC_TESTS_CCFARM_PATH
    if (std::filesystem::exists(CC_TESTS_CCFARM_PATH))
        return CC_TESTS_CCFARM_PATH;
#endif
    return "";
}

TEST(FarmFaultIsolate, IsolatedRunMatchesInlineBitForBit)
{
    std::string worker = ccfarmBinary();
    if (worker.empty())
        GTEST_SKIP() << "ccfarm binary not built";
    std::vector<farm::FarmJob> jobs = tinyCorpus();

    setGlobalJobs(2);
    farm::FarmReport inline_ = farm::runFarm(jobs);
    farm::FarmOptions options;
    options.isolate = true;
    options.workerBinary = worker;
    farm::FarmReport isolated = farm::runFarm(jobs, options);
    setGlobalJobs(0);

    ASSERT_EQ(isolated.failures(), 0u);
    EXPECT_TRUE(isolated.isolated);
    EXPECT_EQ(inline_.resultsJson(), isolated.resultsJson());
    for (size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(inline_.results[i].imageBytes,
                  isolated.results[i].imageBytes)
            << jobs[i].id;
        EXPECT_EQ(isolated.results[i].attempts, 1u);
    }
}

TEST(FarmFaultIsolate, InjectedCrashIsAttributedAndContained)
{
    std::string worker = ccfarmBinary();
    if (worker.empty())
        GTEST_SKIP() << "ccfarm binary not built";
    std::vector<farm::FarmJob> jobs = tinyCorpus();

    farm::FarmOptions options;
    options.isolate = true;
    options.workerBinary = worker;
    options.inject.kind = farm::InjectKind::Crash;
    options.inject.rateNum = 1;
    options.inject.rateDen = 1; // crash every worker
    options.retries = 1;
    options.backoffBaseMs = 1;

    setGlobalJobs(2);
    farm::FarmReport report = farm::runFarm(jobs, options);
    setGlobalJobs(0);
    ASSERT_EQ(report.results.size(), jobs.size());
    EXPECT_EQ(report.failures(), jobs.size());
    EXPECT_EQ(report.failuresOfKind(farm::FailureKind::Crash),
              jobs.size());
    for (const farm::FarmJobResult &result : report.results) {
        EXPECT_EQ(result.attempts, 2u) << result.id; // retry burned
        EXPECT_FALSE(result.error.empty());
    }
}

TEST(FarmFaultIsolate, TransientCrashRecoversViaRetry)
{
    std::string worker = ccfarmBinary();
    if (worker.empty())
        GTEST_SKIP() << "ccfarm binary not built";
    std::vector<farm::FarmJob> jobs = {
        makeJob("compress", compress::Scheme::Nibble,
                compress::StrategyKind::Greedy)};

    farm::FarmReport reference = farm::runFarm(jobs);

    farm::FarmOptions options;
    options.isolate = true;
    options.workerBinary = worker;
    options.inject.kind = farm::InjectKind::Crash;
    options.inject.rateNum = 1;
    options.inject.rateDen = 1;
    options.inject.firstAttemptOnly = true; // transient fault
    options.retries = 2;
    options.backoffBaseMs = 1;

    farm::FarmReport report = farm::runFarm(jobs, options);
    ASSERT_EQ(report.failures(), 0u);
    EXPECT_EQ(report.results[0].attempts, 2u);
    EXPECT_EQ(report.results[0].imageBytes,
              reference.results[0].imageBytes);
}

TEST(FarmFaultIsolate, HungWorkerIsKilledAtTheDeadline)
{
    std::string worker = ccfarmBinary();
    if (worker.empty())
        GTEST_SKIP() << "ccfarm binary not built";
    std::vector<farm::FarmJob> jobs = {
        makeJob("compress", compress::Scheme::Nibble,
                compress::StrategyKind::Greedy)};

    farm::FarmOptions options;
    options.isolate = true;
    options.workerBinary = worker;
    options.inject.kind = farm::InjectKind::Hang;
    options.inject.rateNum = 1;
    options.inject.rateDen = 1;
    options.jobTimeoutMs = 500;

    farm::FarmReport report = farm::runFarm(jobs, options);
    ASSERT_EQ(report.failures(), 1u);
    EXPECT_EQ(report.results[0].failureKind, farm::FailureKind::Timeout);
    EXPECT_NE(report.results[0].error.find("deadline"),
              std::string::npos);
}

TEST(FarmFaultIsolate, PerJobTimeoutOverridesTheFarmDefault)
{
    std::string worker = ccfarmBinary();
    if (worker.empty())
        GTEST_SKIP() << "ccfarm binary not built";
    // The farm default would never fire; the per-job deadline does.
    std::vector<farm::FarmJob> jobs = {
        makeJob("compress", compress::Scheme::Nibble,
                compress::StrategyKind::Greedy)};
    jobs[0].timeoutMs = 400;

    farm::FarmOptions options;
    options.isolate = true;
    options.workerBinary = worker;
    options.inject.kind = farm::InjectKind::Hang;
    options.inject.rateNum = 1;
    options.inject.rateDen = 1;
    options.jobTimeoutMs = 0; // no farm-wide deadline

    farm::FarmReport report = farm::runFarm(jobs, options);
    ASSERT_EQ(report.failures(), 1u);
    EXPECT_EQ(report.results[0].failureKind, farm::FailureKind::Timeout);
}

TEST(FarmFaultIsolate, SpecErrorIsNotRetried)
{
    std::string worker = ccfarmBinary();
    if (worker.empty())
        GTEST_SKIP() << "ccfarm binary not built";
    std::vector<farm::FarmJob> jobs = {
        makeJob("compress", compress::Scheme::Nibble,
                compress::StrategyKind::Greedy)};
    jobs[0].config.maxEntryLen = 0; // deterministic config error

    farm::FarmOptions options;
    options.isolate = true;
    options.workerBinary = worker;
    options.retries = 3;
    options.backoffBaseMs = 1;

    farm::FarmReport report = farm::runFarm(jobs, options);
    ASSERT_EQ(report.failures(), 1u);
    EXPECT_EQ(report.results[0].failureKind,
              farm::FailureKind::SpecError);
    EXPECT_EQ(report.results[0].attempts, 1u); // no retries burned
}

TEST(FarmFaultIsolate, DuplicateJobsUnderRepeatStayIdentical)
{
    std::string worker = ccfarmBinary();
    if (worker.empty())
        GTEST_SKIP() << "ccfarm binary not built";
    // Duplicated (program, config) pairs -- what the spec "repeat" key
    // expands to -- must come back bit-identical under isolation.
    std::vector<farm::FarmJob> jobs = {
        makeJob("compress", compress::Scheme::Nibble,
                compress::StrategyKind::Greedy),
        makeJob("compress", compress::Scheme::Nibble,
                compress::StrategyKind::Greedy),
        makeJob("compress", compress::Scheme::Nibble,
                compress::StrategyKind::Greedy),
    };
    jobs[1].id += "#1";
    jobs[2].id += "#2";

    farm::FarmOptions options;
    options.isolate = true;
    options.workerBinary = worker;
    setGlobalJobs(3);
    farm::FarmReport report = farm::runFarm(jobs, options);
    setGlobalJobs(0);
    ASSERT_EQ(report.failures(), 0u);
    EXPECT_EQ(report.results[0].imageBytes, report.results[1].imageBytes);
    EXPECT_EQ(report.results[0].imageBytes, report.results[2].imageBytes);
    EXPECT_EQ(report.results[0].imageFnv64, report.results[2].imageFnv64);
}

TEST(FarmFaultIsolate, WorkersShareThePersistentStore)
{
    std::string worker = ccfarmBinary();
    if (worker.empty())
        GTEST_SKIP() << "ccfarm binary not built";
    ScratchDir dir("shared");
    std::vector<farm::FarmJob> jobs = {
        makeJob("compress", compress::Scheme::Nibble,
                compress::StrategyKind::Greedy)};

    // Cold inline run populates the store; an isolated worker then
    // serves the whole Select stage from disk.
    farm::FarmOptions cold;
    cold.cacheDir = dir.str();
    farm::FarmReport coldReport = farm::runFarm(jobs, cold);
    ASSERT_EQ(coldReport.failures(), 0u);
    ASSERT_GT(coldReport.cacheStats.persistStores, 0u);

    farm::FarmOptions warm;
    warm.cacheDir = dir.str();
    warm.isolate = true;
    warm.workerBinary = worker;
    farm::FarmReport warmReport = farm::runFarm(jobs, warm);
    ASSERT_EQ(warmReport.failures(), 0u);
    EXPECT_GT(warmReport.cacheStats.persistHits, 0u);
    EXPECT_EQ(coldReport.results[0].imageBytes,
              warmReport.results[0].imageBytes);
}

} // namespace
