/**
 * @file
 * Tests for the farm's fault tolerance: the subprocess helper, the
 * worker result protocol (round-trip and corruption rejection), the
 * failure-classification table, deterministic backoff, the crash-safe
 * persistent pipeline cache (damage is detected, quarantined, and
 * never changes results), and -- when the ccfarm binary is available
 * -- end-to-end process isolation with
 * deadlines and retries, its faults injected by a stand-in worker
 * script.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "candidate_oracle.hh"
#include "compress/cache.hh"
#include "compress/compressor.hh"
#include "compress/encoding.hh"
#include "compress/objfile.hh"
#include "compress/pipeline.hh"
#include "compress/strategy.hh"
#include "decompress/fault.hh"
#include "farm/farm.hh"
#include "farm/worker.hh"
#include "farm_reference.hh"
#include "isa/builder.hh"
#include "isa/inst.hh"
#include "support/serialize.hh"
#include "support/subprocess.hh"
#include "support/thread_pool.hh"
#include "timing/timing.hh"
#include "workloads/workloads.hh"

using namespace codecomp;

namespace {

// ---------------- helpers ----------------

using test::imageBytes;
using test::makeJob;

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

TEST(Subprocess, DeadlineKillsWhatTheChildForked)
{
    // The shell forks a sleep and waits on it; the deadline must take
    // down the sleep too, not only the shell.
    ScratchDir dir("pgroup");
    std::string pidFile = (dir.path() / "pid").string();
    SubprocessOptions options;
    options.timeoutMs = 200;
    SubprocessResult result = runSubprocess(
        {"/bin/sh", "-c", "sleep 30 & echo $! > '" + pidFile + "'; wait"},
        options);
    ASSERT_EQ(result.outcome, SubprocessResult::Outcome::TimedOut);
    Result<std::vector<uint8_t>> bytes = tryReadFile(pidFile);
    ASSERT_TRUE(bytes.ok());
    std::string pid(bytes.value().begin(), bytes.value().end());
    pid.erase(pid.find_last_not_of(" \n") + 1);
    ASSERT_FALSE(pid.empty());

    // Gone, or a zombie if nothing reaps the orphan: stat's third
    // field (after the parenthesised name) is the state.
    auto dead = [&pid] {
        std::ifstream stat("/proc/" + pid + "/stat");
        std::string text;
        if (!std::getline(stat, text))
            return true;
        size_t close = text.rfind(')');
        return close != std::string::npos && close + 2 < text.size() &&
               text[close + 2] == 'Z';
    };
    for (int i = 0; i < 100 && !dead(); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_TRUE(dead()) << "forked sleep " << pid << " outlived the kill";
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

// ---------------- backoff determinism ----------------

TEST(FarmFaultUnit, BackoffGrowsIsCappedAndJittersDeterministically)
{
    // Deterministic in (job, attempt).
    EXPECT_EQ(farm::backoffMillis(1, 50, 2000, 4),
              farm::backoffMillis(1, 50, 2000, 4));
    // Jitter keeps every delay within [50%, 150%] of the exponential
    // schedule, and the cap bounds late attempts.
    for (uint32_t attempt = 1; attempt <= 8; ++attempt) {
        uint64_t nominal = std::min<uint64_t>(
            50ull << (attempt - 1), 2000);
        uint64_t delay = farm::backoffMillis(attempt, 50, 2000, 0);
        EXPECT_GE(delay, nominal / 2) << attempt;
        EXPECT_LE(delay, nominal + nominal / 2) << attempt;
    }
    // Different jobs see different jitter (no retry stampede).
    std::set<uint64_t> delays;
    for (size_t job = 0; job < 16; ++job)
        delays.insert(farm::backoffMillis(3, 50, 2000, job));
    EXPECT_GT(delays.size(), 1u);
}

TEST(FarmFaultUnit, BackoffSaturatesAtTheCapForHugeBases)
{
    // ccfarm accepts any --backoff base up to LONG_MAX, and base << 20
    // overflows 64 bits from a base of 2^44 ms. Every late attempt
    // must still wait the jittered cap, never a wrapped-around delay.
    for (uint64_t base : {uint64_t{1} << 44, uint64_t{1} << 50,
                          uint64_t{LONG_MAX}}) {
        for (uint32_t attempt : {2u, 21u, 101u}) {
            uint64_t delay = farm::backoffMillis(attempt, base, 2000, 0);
            EXPECT_GE(delay, 1000u) << base << " attempt " << attempt;
            EXPECT_LE(delay, 3000u) << base << " attempt " << attempt;
        }
    }
}

TEST(FarmFaultUnit, JobErrorsAreClassifiedByType)
{
    EXPECT_EQ(farm::classifyJobError(MachineCheckError(
                  MachineFault::IllegalInstruction, 0, "x")),
              farm::FailureKind::MachineCheck);
    EXPECT_EQ(farm::classifyJobError(LoadFailure(
                  LoadError{LoadStatus::Truncated, 0, "x", "y"})),
              farm::FailureKind::LoadError);
    EXPECT_EQ(farm::classifyJobError(std::runtime_error("x")),
              farm::FailureKind::SpecError);
}

TEST(FarmFaultUnit, ProfilingMachineCheckIsClassifiedInline)
{
    // A program that runs off the end of its text faults in the
    // HotCold profiling run inside runFarmJob. The inline path must
    // report the kind a worker reports for the same fault:
    // machine_check, not spec_error.
    Program program;
    program.text = {isa::encode(isa::li(3, 1)), isa::encode(isa::li(4, 2))};
    program.entryIndex = 0;
    program.finalize();
    farm::FarmJob job = makeJob("handmade", compress::Scheme::Nibble,
                                compress::StrategyKind::Greedy);
    job.config.layout = compress::LayoutMode::HotCold;

    farm::FarmProgram given(std::make_shared<const Program>(program));
    compress::PipelineCache cache;
    farm::FarmJobResult result = farm::runFarmJob(job, given, cache);
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.failureKind, farm::FailureKind::MachineCheck)
        << farm::failureKindName(result.failureKind) << ": "
        << result.error;
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
    auto image = std::make_shared<compress::ImageProduct>();
    image->image = compress::compressProgram(
        workloads::buildBenchmark("compress"), {});
    image->bytes = saveImage(image->image);
    image->digest = fnv1a64(image->bytes);
    r.image = image;
    r.imageFnv64 = image->digest;
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
    ASSERT_TRUE(r.image);
    EXPECT_EQ(r.image->bytes, o.image->bytes);
    EXPECT_EQ(r.image->digest, o.image->digest);
    EXPECT_EQ(r.imageFnv64, o.imageFnv64);
    // Doubles cross the boundary as raw bits: exact equality holds.
    EXPECT_EQ(r.millis, o.millis);
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

TEST(WorkerProtocol, SuccessWithoutAnImageIsRejected)
{
    // The parent computes a job's sizes from the image it loads back,
    // so a successful result must carry one; a failed result need not.
    farm::WorkerResult worker = sampleWorkerResult();
    worker.result.image.reset();
    Result<farm::WorkerResult> parsed =
        farm::parseWorkerResult(farm::serializeWorkerResult(worker));
    ASSERT_FALSE(parsed.ok());
    EXPECT_NE(parsed.error().message().find("without an image"),
              std::string::npos)
        << parsed.error().message();

    worker.result.error = "bad config";
    worker.result.failureKind = farm::FailureKind::SpecError;
    EXPECT_TRUE(
        farm::parseWorkerResult(farm::serializeWorkerResult(worker)).ok());
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
        EXPECT_EQ(imageBytes(cold.results[i]), imageBytes(warm.results[i]))
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
    size_t images = 0;
    for (const std::filesystem::path &file : files) {
        images += file.filename().string().rfind("img-", 0) == 0;
        EXPECT_TRUE(
            std::filesystem::exists(file.string() + ".quarantined"))
            << file;
    }
    EXPECT_EQ(images, jobs.size());
    EXPECT_EQ(cold.resultsJson(), warm.resultsJson());
    for (size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(imageBytes(cold.results[i]), imageBytes(warm.results[i]))
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
    compress::CompressedImage recomputed = compress::compressProgram(
        program, config, nullptr, &cache, programHash);
    EXPECT_EQ(saveImage(recomputed), cold);
    compress::PipelineCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.persistCorrupt, 1u);
    EXPECT_EQ(stats.enumMisses, 1u);
    EXPECT_TRUE(std::filesystem::exists(path.string() + ".quarantined"));

    // The recomputed entry replaced it in the current format and reads
    // back as exactly the enumerated set.
    compress::PipelineCache fresh;
    ASSERT_TRUE(fresh.setDiskStore(dir.str()));
    compress::PipelineCache::Claim claim;
    auto loaded = fresh.findCandidates(key, claim);
    ASSERT_TRUE(loaded);
    EXPECT_TRUE(*loaded == compress::enumerateCandidates(
                               program, cfg, 1, config.maxEntryLen));
    EXPECT_EQ(fresh.stats().persistHits, 1u);
    EXPECT_EQ(fresh.stats().persistCorrupt, 0u);
}

/** The store's current entry version (kStoreVersion in cache.cc). */
constexpr uint32_t storeMagic = 0x43434348; // "CCCH"
constexpr uint32_t storeVersion = 5;

TEST(FarmFaultCache, WarmInlineRunIsOneImageHitPerJob)
{
    // A warm job is a single lookup: its finished image comes from the
    // store, with no Select or Enumerate lookup behind it.
    ScratchDir dir("image-warm");
    std::vector<farm::FarmJob> jobs = tinyCorpus();
    farm::FarmOptions options;
    options.cacheDir = dir.str();

    setGlobalJobs(1);
    farm::FarmReport cold = farm::runFarm(jobs, options);
    farm::FarmReport warm = farm::runFarm(jobs, options);
    setGlobalJobs(0);

    ASSERT_EQ(cold.failures(), 0u);
    ASSERT_EQ(warm.failures(), 0u);
    EXPECT_EQ(cold.cacheStats.imageMisses, jobs.size());
    EXPECT_EQ(warm.cacheStats.imageHits, jobs.size());
    EXPECT_EQ(warm.cacheStats.imageMisses, 0u);
    // Plus one Program hit for each of the corpus's two programs (none
    // from an executable without a build-id).
    EXPECT_EQ(warm.cacheStats.persistHits,
              jobs.size() + (selfBuildId().empty() ? 0 : 2));
    EXPECT_EQ(warm.cacheStats.persistStores, 0u);
    EXPECT_EQ(warm.cacheStats.selectHits + warm.cacheStats.selectMisses,
              0u);
    EXPECT_EQ(warm.cacheStats.enumHits + warm.cacheStats.enumMisses, 0u);
    EXPECT_EQ(cold.resultsJson(), warm.resultsJson());
    for (size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(imageBytes(cold.results[i]), imageBytes(warm.results[i]))
            << jobs[i].id;
        EXPECT_TRUE(warm.results[i].stats.passes.empty()) << jobs[i].id;
    }
}

TEST(FarmFaultCache, LayoutOrProfileMissesImageButHitsSelect)
{
    // Four jobs that share one selection and differ only in what the
    // back end reads: the layout, a given traffic profile, another
    // given profile, and the profile the farm derives. Each is its own
    // Image key; every one after the first hits Select.
    Program program = workloads::buildBenchmark("compress");
    std::vector<farm::FarmJob> jobs(
        4, makeJob("compress", compress::Scheme::Nibble,
                   compress::StrategyKind::Greedy));
    std::vector<uint64_t> profile =
        timing::profileExecutionCounts(program);
    for (size_t i = 1; i < jobs.size(); ++i) {
        jobs[i].config.layout = compress::LayoutMode::HotCold;
        jobs[i].id += "#" + std::to_string(i);
    }
    jobs[1].config.trafficProfile = profile;
    jobs[2].config.trafficProfile = profile;
    jobs[2].config.trafficProfile[0] += 1;

    std::vector<std::vector<uint8_t>> reference = test::serialImages(jobs);
    for (unsigned width : {1u, 4u}) {
        setGlobalJobs(width);
        farm::FarmReport report = farm::runFarm(jobs);
        ASSERT_EQ(report.failures(), 0u);
        EXPECT_EQ(report.cacheStats.imageMisses, 4u) << "width " << width;
        EXPECT_EQ(report.cacheStats.imageHits, 0u) << "width " << width;
        EXPECT_EQ(report.cacheStats.selectHits, 3u) << "width " << width;
        EXPECT_EQ(report.cacheStats.selectMisses, 1u) << "width " << width;
        test::expectImages(jobs, report, reference);
    }
    setGlobalJobs(0);
    // The derived profile is the given one, so those images agree.
    EXPECT_EQ(reference[1], reference[3]);
}

TEST(FarmFaultCache, WarmHotColdJobHitsImageWithoutProfiling)
{
    // A HotCold job without a profile: cold, the farm profiles and
    // compresses; warm, it is one Image hit with the cold result.
    ScratchDir dir("image-hotcold");
    farm::FarmJob job = makeJob("li", compress::Scheme::Nibble,
                                compress::StrategyKind::Greedy);
    job.config.layout = compress::LayoutMode::HotCold;
    farm::FarmOptions options;
    options.cacheDir = dir.str();
    farm::FarmReport cold = farm::runFarm({job}, options);
    farm::FarmReport warm = farm::runFarm({job}, options);
    ASSERT_EQ(cold.failures(), 0u);
    ASSERT_EQ(warm.failures(), 0u);
    EXPECT_EQ(warm.cacheStats.imageHits, 1u);
    EXPECT_EQ(cold.resultsJson(), warm.resultsJson());
    EXPECT_EQ(imageBytes(cold.results[0]), imageBytes(warm.results[0]));

    // No profiling run on a hit: this program faults when profiled
    // (see ProfilingMachineCheckIsClassifiedInline), yet the job
    // succeeds with the image stored under its key.
    Program program;
    program.text = {isa::encode(isa::li(3, 1)), isa::encode(isa::li(4, 2))};
    program.entryIndex = 0;
    program.finalize();
    farm::FarmJob handmade = makeJob("handmade", compress::Scheme::Nibble,
                                     compress::StrategyKind::Greedy);
    handmade.config.layout = compress::LayoutMode::HotCold;
    farm::FarmProgram given(std::make_shared<const Program>(program));
    compress::PipelineCache cache;
    compress::PipelineCache::Claim claim;
    ASSERT_FALSE(cache.findImage(
        compress::PipelineCache::imageKey(given.hash(), handmade.config),
        claim));
    auto product = std::make_shared<compress::ImageProduct>();
    product->image = compress::compressProgram(program, {});
    product->bytes = saveImage(product->image);
    product->digest = fnv1a64(product->bytes);
    cache.storeImage(claim, product);

    farm::FarmJobResult result =
        farm::runFarmJob(handmade, given, cache);
    ASSERT_TRUE(result.ok()) << result.error;
    EXPECT_EQ(result.image, product); // the stored product, not a copy
    EXPECT_EQ(result.imageFnv64, fnv1a64(product->bytes));
    EXPECT_EQ(result.totalBytes, product->image.totalBytes());
    EXPECT_EQ(cache.stats().imageHits, 1u);
}

TEST(FarmFaultCache, ImageFailingValidationIsQuarantined)
{
    // An Image entry whose container, kind and key are sound but whose
    // image bytes fail tryLoadImage: the inner check alone catches it,
    // and the job recomputes the cold image.
    ScratchDir dir("image-invalid");
    farm::FarmJob job = makeJob("compress", compress::Scheme::Nibble,
                                compress::StrategyKind::Greedy);
    farm::FarmOptions options;
    options.cacheDir = dir.str();
    farm::FarmReport cold = farm::runFarm({job}, options);
    ASSERT_EQ(cold.failures(), 0u);

    Program program = workloads::buildBenchmark("compress");
    uint64_t key = compress::PipelineCache::imageKey(
        compress::PipelineCache::programHash(program), job.config);
    char name[40];
    std::snprintf(name, sizeof(name), "img-%016llx.cce",
                  static_cast<unsigned long long>(key));
    std::filesystem::path path = dir.path() / name;
    Result<std::vector<uint8_t>> payload = openSealed(
        readFile(path.string()), storeMagic, storeVersion, "cache entry");
    ASSERT_TRUE(payload.ok()) << payload.error().message();
    std::vector<uint8_t> bytes = payload.take();
    bytes[bytes.size() / 2] ^= 0x40; // inside the image's own payload
    writeFile(path.string(), sealPayload(storeMagic, storeVersion, bytes));

    farm::FarmReport warm = farm::runFarm({job}, options);
    ASSERT_EQ(warm.failures(), 0u);
    EXPECT_EQ(warm.cacheStats.persistCorrupt, 1u);
    EXPECT_EQ(warm.cacheStats.imageMisses, 1u);
    EXPECT_EQ(warm.cacheStats.selectHits, 1u);
    EXPECT_TRUE(std::filesystem::exists(path.string() + ".quarantined"));
    EXPECT_EQ(cold.resultsJson(), warm.resultsJson());
    EXPECT_EQ(imageBytes(cold.results[0]), imageBytes(warm.results[0]));
}

TEST(FarmFaultCache, VersionThreeStoreIsQuarantinedAndRecomputedOnce)
{
    // A version-3 store: the same Enumerate and Select payloads, no
    // Image entries. Its entries fail the version check, are moved
    // aside and recomputed; the next run finds current entries.
    ScratchDir dir("v3");
    std::vector<farm::FarmJob> jobs = tinyCorpus();
    farm::FarmOptions options;
    options.cacheDir = dir.str();
    setGlobalJobs(1);
    farm::FarmReport cold = farm::runFarm(jobs, options);
    ASSERT_EQ(cold.failures(), 0u);

    size_t downgraded = 0;
    for (const std::filesystem::path &file :
         storeEntries(dir.path(), ".cce")) {
        if (file.filename().string().rfind("img-", 0) == 0) {
            std::filesystem::remove(file);
            continue;
        }
        Result<std::vector<uint8_t>> payload =
            openSealed(readFile(file.string()), storeMagic, storeVersion,
                       "cache entry");
        ASSERT_TRUE(payload.ok()) << payload.error().message();
        writeFile(file.string(),
                  sealPayload(storeMagic, 3, payload.value()));
        ++downgraded;
    }
    ASSERT_GT(downgraded, 0u);

    farm::FarmReport upgrade = farm::runFarm(jobs, options);
    farm::FarmReport warm = farm::runFarm(jobs, options);
    setGlobalJobs(0);
    ASSERT_EQ(upgrade.failures(), 0u);
    ASSERT_EQ(warm.failures(), 0u);
    EXPECT_EQ(upgrade.cacheStats.persistCorrupt, downgraded);
    EXPECT_EQ(upgrade.cacheStats.imageMisses, jobs.size());
    EXPECT_EQ(upgrade.cacheStats.persistStores,
              cold.cacheStats.persistStores);
    EXPECT_EQ(storeEntries(dir.path(), ".quarantined").size(), downgraded);
    EXPECT_EQ(warm.cacheStats.persistCorrupt, 0u);
    EXPECT_EQ(warm.cacheStats.imageHits, jobs.size());
    EXPECT_EQ(cold.resultsJson(), upgrade.resultsJson());
    EXPECT_EQ(cold.resultsJson(), warm.resultsJson());
    for (size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(imageBytes(cold.results[i]), imageBytes(warm.results[i]))
            << jobs[i].id;
}

// ---------------- Program kind ----------------

/** The store file of entry (@p prefix, @p key) under @p dir. */
std::filesystem::path
entryFile(const ScratchDir &dir, const char *prefix, uint64_t key)
{
    char name[40];
    std::snprintf(name, sizeof(name), "%s-%016llx.cce", prefix,
                  static_cast<unsigned long long>(key));
    return dir.path() / name;
}

/** Lookups of every kind in @p stats miss, so a cold run stores one
 *  entry per miss. */
uint64_t
allMisses(const compress::PipelineCache::Stats &stats)
{
    return stats.programMisses + stats.imageMisses + stats.selectMisses +
           stats.enumMisses;
}

TEST(FarmFaultCache, WarmInlineRunBuildsNoProgram)
{
    // A warm run looks each distinct program up once: a Program hit, no
    // miss, at any pool width. The cold run stores one entry per
    // program next to its images and front-end products.
    if (selfBuildId().empty())
        GTEST_SKIP() << "this executable has no build-id";
    std::vector<farm::FarmJob> jobs = tinyCorpus(); // two programs
    for (unsigned width : {1u, 4u}) {
        ScratchDir dir("program-warm-" + std::to_string(width));
        farm::FarmOptions options;
        options.cacheDir = dir.str();
        setGlobalJobs(width);
        farm::FarmReport cold = farm::runFarm(jobs, options);
        farm::FarmReport warm = farm::runFarm(jobs, options);
        ASSERT_EQ(cold.failures(), 0u);
        ASSERT_EQ(warm.failures(), 0u);
        EXPECT_EQ(cold.cacheStats.programMisses, 2u) << "width " << width;
        EXPECT_EQ(cold.cacheStats.programHits, 0u) << "width " << width;
        EXPECT_EQ(cold.cacheStats.persistStores, allMisses(cold.cacheStats))
            << "width " << width;
        EXPECT_EQ(storeEntries(dir.path(), ".cce").size(),
                  cold.cacheStats.persistStores);
        EXPECT_EQ(warm.cacheStats.programHits, 2u) << "width " << width;
        EXPECT_EQ(warm.cacheStats.programMisses, 0u) << "width " << width;
        EXPECT_EQ(warm.cacheStats.imageHits, jobs.size());
        EXPECT_EQ(warm.cacheStats.persistStores, 0u);
        EXPECT_EQ(cold.resultsJson(), warm.resultsJson());
        for (size_t i = 0; i < jobs.size(); ++i)
            EXPECT_EQ(imageBytes(cold.results[i]),
                      imageBytes(warm.results[i]))
                << jobs[i].id;
    }
    setGlobalJobs(0);
}

TEST(FarmFaultCache, ProgramEntryOfAnotherToolIsAMiss)
{
    // An entry an executable with another build-id stored -- here with
    // a hash no build of compress has -- is under another key: this
    // build misses it, builds, and stores its own entry beside it.
    if (selfBuildId().empty())
        GTEST_SKIP() << "this executable has no build-id";
    ScratchDir dir("program-stamp");
    std::vector<uint8_t> otherStamp = selfBuildId();
    otherStamp[0] ^= 1;
    uint64_t otherKey =
        compress::PipelineCache::programKey("compress", 1, otherStamp);
    uint64_t ownKey =
        compress::PipelineCache::programKey("compress", 1, selfBuildId());
    ASSERT_NE(otherKey, ownKey);
    {
        compress::PipelineCache other;
        ASSERT_TRUE(other.setDiskStore(dir.str()));
        compress::PipelineCache::Claim claim;
        ASSERT_FALSE(other.findProgram(otherKey, claim));
        other.storeProgram(claim, 0x1234);
    }

    std::vector<farm::FarmJob> jobs = {makeJob(
        "compress", compress::Scheme::Nibble, compress::StrategyKind::Greedy)};
    farm::FarmOptions options;
    options.cacheDir = dir.str();
    farm::FarmReport report = farm::runFarm(jobs, options);
    ASSERT_EQ(report.failures(), 0u);
    EXPECT_EQ(report.cacheStats.programHits, 0u);
    EXPECT_EQ(report.cacheStats.programMisses, 1u);
    EXPECT_EQ(report.cacheStats.persistCorrupt, 0u);
    test::expectImages(jobs, report, test::serialImages(jobs));
    EXPECT_TRUE(std::filesystem::exists(entryFile(dir, "prog", otherKey)));
    EXPECT_TRUE(std::filesystem::exists(entryFile(dir, "prog", ownKey)));
}

TEST(FarmFaultCache, DamagedProgramEntryIsQuarantinedAndRecomputed)
{
    if (selfBuildId().empty())
        GTEST_SKIP() << "this executable has no build-id";
    ScratchDir dir("program-damaged");
    std::vector<farm::FarmJob> jobs = tinyCorpus();
    farm::FarmOptions options;
    options.cacheDir = dir.str();
    setGlobalJobs(1);
    farm::FarmReport cold = farm::runFarm(jobs, options);
    ASSERT_EQ(cold.failures(), 0u);

    std::vector<std::filesystem::path> damaged;
    for (const std::filesystem::path &file :
         storeEntries(dir.path(), ".cce")) {
        if (file.filename().string().rfind("prog-", 0) != 0)
            continue;
        std::vector<uint8_t> bytes = readFile(file.string());
        bytes[bytes.size() - 12] ^= 0x08; // inside the stored hash
        writeFile(file.string(), bytes);
        damaged.push_back(file);
    }
    ASSERT_EQ(damaged.size(), 2u);

    farm::FarmReport repaired = farm::runFarm(jobs, options);
    farm::FarmReport warm = farm::runFarm(jobs, options);
    setGlobalJobs(0);
    ASSERT_EQ(repaired.failures(), 0u);
    EXPECT_EQ(repaired.cacheStats.persistCorrupt, 2u);
    EXPECT_EQ(repaired.cacheStats.programMisses, 2u);
    EXPECT_EQ(repaired.cacheStats.programHits, 0u);
    EXPECT_EQ(repaired.cacheStats.imageHits, jobs.size());
    EXPECT_EQ(repaired.cacheStats.persistStores, 2u);
    for (const std::filesystem::path &file : damaged)
        EXPECT_TRUE(std::filesystem::exists(file.string() + ".quarantined"))
            << file;
    EXPECT_EQ(warm.cacheStats.programHits, 2u);
    EXPECT_EQ(warm.cacheStats.persistCorrupt, 0u);
    EXPECT_EQ(cold.resultsJson(), repaired.resultsJson());
    EXPECT_EQ(cold.resultsJson(), warm.resultsJson());
}

TEST(FarmFaultCache, WrongProgramHashNeverYieldsAWrongImage)
{
    // A sound entry under the right key whose hash is not the
    // program's: the image it names is missing, so the job builds the
    // program, finds the hash differs, and fails naming the entry. No
    // image is computed or stored under the wrong hash.
    if (selfBuildId().empty())
        GTEST_SKIP() << "this executable has no build-id";
    ScratchDir dir("program-wrong");
    farm::FarmJob job = makeJob("compress", compress::Scheme::Nibble,
                                compress::StrategyKind::Greedy);
    farm::FarmOptions options;
    options.cacheDir = dir.str();
    farm::FarmReport cold = farm::runFarm({job}, options);
    ASSERT_EQ(cold.failures(), 0u);

    uint64_t key =
        compress::PipelineCache::programKey("compress", 1, selfBuildId());
    std::filesystem::path path = entryFile(dir, "prog", key);
    Result<std::vector<uint8_t>> payload = openSealed(
        readFile(path.string()), storeMagic, storeVersion, "cache entry");
    ASSERT_TRUE(payload.ok()) << payload.error().message();
    ByteSource body(payload.value());
    ASSERT_EQ(body.get8(), 4u); // the Program kind
    ASSERT_EQ(body.get64(), key);
    uint64_t wrongHash = body.get64() ^ 1;
    ByteSink forged;
    forged.put8(4);
    forged.put64(key);
    forged.put64(wrongHash);
    writeFile(path.string(),
              sealPayload(storeMagic, storeVersion, forged.bytes()));

    // Two jobs of the program: the stored one and one with a new
    // layout; both miss their image under the wrong hash.
    farm::FarmJob hotCold = job;
    hotCold.id += "#hotcold";
    hotCold.config.layout = compress::LayoutMode::HotCold;
    for (unsigned width : {1u, 2u}) {
        setGlobalJobs(width);
        farm::FarmReport warm = farm::runFarm({job, hotCold}, options);
        ASSERT_EQ(warm.results.size(), 2u);
        for (const farm::FarmJobResult &result : warm.results) {
            EXPECT_FALSE(result.ok()) << result.id;
            EXPECT_EQ(result.failureKind, farm::FailureKind::LoadError)
                << result.id;
            EXPECT_NE(result.error.find(
                          compress::PipelineCache::programEntryName(key)),
                      std::string::npos)
                << result.error;
            EXPECT_FALSE(result.image) << result.id;
        }
        EXPECT_EQ(warm.cacheStats.programHits, 1u);
        EXPECT_EQ(warm.cacheStats.persistStores, 0u);
    }
    setGlobalJobs(0);
    for (const farm::FarmJob &stale : {job, hotCold})
        EXPECT_FALSE(std::filesystem::exists(entryFile(
            dir, "img",
            compress::PipelineCache::imageKey(wrongHash, stale.config))));
}

TEST(FarmFaultCache, ProgramHitThenImageMissBuildsOnDemand)
{
    // A warm store, then jobs of its programs under layouts it has no
    // image for (one of them profile-derived HotCold): the programs are
    // Program hits, so each is built on demand by its first job whose
    // image misses, and the images match the serial path's.
    if (selfBuildId().empty())
        GTEST_SKIP() << "this executable has no build-id";
    std::vector<farm::FarmJob> jobs = tinyCorpus();
    std::vector<farm::FarmJob> relaid;
    for (farm::FarmJob job : tinyCorpus()) {
        job.config.layout = compress::LayoutMode::HotCold;
        job.id += "#hotcold";
        relaid.push_back(job);
    }
    std::vector<std::vector<uint8_t>> reference =
        test::serialImages(relaid);
    for (unsigned width : {1u, 4u}) {
        ScratchDir dir("program-relaid-" + std::to_string(width));
        farm::FarmOptions options;
        options.cacheDir = dir.str();
        setGlobalJobs(width);
        ASSERT_EQ(farm::runFarm(jobs, options).failures(), 0u);
        farm::FarmReport report = farm::runFarm(relaid, options);
        ASSERT_EQ(report.failures(), 0u);
        EXPECT_EQ(report.cacheStats.programHits, 2u) << "width " << width;
        EXPECT_EQ(report.cacheStats.programMisses, 0u) << "width " << width;
        EXPECT_EQ(report.cacheStats.imageMisses, relaid.size());
        EXPECT_EQ(report.cacheStats.selectHits, relaid.size());
        test::expectImages(relaid, report, reference);
    }
    setGlobalJobs(0);
}

TEST(FarmFaultCache, VersionFourStoreIsQuarantinedAndRecomputedOnce)
{
    // A version-4 store: no Program entries, and Image entries without
    // the stored digest. Every entry fails the version check, is moved
    // aside and recomputed once; the next run is all hits.
    ScratchDir dir("v4");
    std::vector<farm::FarmJob> jobs = tinyCorpus();
    farm::FarmOptions options;
    options.cacheDir = dir.str();
    setGlobalJobs(1);
    farm::FarmReport cold = farm::runFarm(jobs, options);
    ASSERT_EQ(cold.failures(), 0u);

    size_t downgraded = 0;
    for (const std::filesystem::path &file :
         storeEntries(dir.path(), ".cce")) {
        std::string name = file.filename().string();
        if (name.rfind("prog-", 0) == 0) {
            std::filesystem::remove(file);
            continue;
        }
        Result<std::vector<uint8_t>> payload =
            openSealed(readFile(file.string()), storeMagic, storeVersion,
                       "cache entry");
        ASSERT_TRUE(payload.ok()) << payload.error().message();
        std::vector<uint8_t> bytes = payload.take();
        if (name.rfind("img-", 0) == 0) // kind, key, then the digest
            bytes.erase(bytes.begin() + 9, bytes.begin() + 17);
        writeFile(file.string(), sealPayload(storeMagic, 4, bytes));
        ++downgraded;
    }
    ASSERT_GT(downgraded, 0u);

    farm::FarmReport upgrade = farm::runFarm(jobs, options);
    farm::FarmReport warm = farm::runFarm(jobs, options);
    setGlobalJobs(0);
    ASSERT_EQ(upgrade.failures(), 0u);
    ASSERT_EQ(warm.failures(), 0u);
    EXPECT_EQ(upgrade.cacheStats.persistCorrupt, downgraded);
    EXPECT_EQ(upgrade.cacheStats.imageMisses, jobs.size());
    EXPECT_EQ(upgrade.cacheStats.persistStores,
              cold.cacheStats.persistStores);
    EXPECT_EQ(storeEntries(dir.path(), ".quarantined").size(), downgraded);
    EXPECT_EQ(warm.cacheStats.persistCorrupt, 0u);
    EXPECT_EQ(warm.cacheStats.imageHits, jobs.size());
    EXPECT_EQ(warm.cacheStats.persistStores, 0u);
    EXPECT_EQ(cold.resultsJson(), upgrade.resultsJson());
    EXPECT_EQ(cold.resultsJson(), warm.resultsJson());
    for (size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(imageBytes(cold.results[i]), imageBytes(warm.results[i]))
            << jobs[i].id;
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

/** Write @p body as an executable /bin/sh script in @p dir to stand in
 *  for the worker binary, and return its path. The farm runs it as
 *  (--worker SPEC --worker-out OUT ...), so SPEC (one line of JSON)
 *  is $2 and OUT $4. */
std::string
writeStandIn(const ScratchDir &dir, const std::string &body)
{
    std::string path = (dir.path() / "worker.sh").string();
    std::string script = "#!/bin/sh\n" + body;
    writeFile(path, std::vector<uint8_t>(script.begin(), script.end()));
    std::filesystem::permissions(path, std::filesystem::perms::owner_all);
    return path;
}

enum class Fault { Crash, Hang };

/**
 * A stand-in worker that faults the jobs named in @p ids and execs the
 * real ccfarm worker for every other job. A crash kills the stand-in
 * by a signal; a hang execs a sleep that outlives the tests' deadlines,
 * so the deadline's SIGKILL reaches the sleep itself (which ends on
 * its own after 30 s). A @p transient fault hits only a job's first
 * attempt: the stand-in leaves a per-job marker file in @p dir.
 */
std::string
faultyWorker(const ScratchDir &dir, Fault fault,
             const std::vector<std::string> &ids, bool transient = false)
{
    std::string action =
        fault == Fault::Crash ? "kill -KILL $$" : "exec sleep 30";
    std::string body = "spec=$2\ncase \"$spec\" in\n";
    for (size_t i = 0; i < ids.size(); ++i) {
        std::string marker =
            "'" + (dir.path() / ("faulted-" + std::to_string(i))).string() +
            "'";
        body += "*'\"id\":\"" + ids[i] + "\"'*) ";
        body += transient ? "[ -e " + marker + " ] || { : > " + marker +
                                "; " + action + "; }"
                          : action;
        body += " ;;\n";
    }
    return writeStandIn(dir, body + "esac\nexec '" + ccfarmBinary() +
                                 "' \"$@\"\n");
}

TEST(FarmFaultIsolate, IsolatedRunMatchesInlineBitForBit)
{
    std::string worker = ccfarmBinary();
    if (worker.empty())
        GTEST_SKIP() << "ccfarm binary not built";
    std::vector<farm::FarmJob> jobs = tinyCorpus();

    setGlobalJobs(2);
    farm::FarmReport inlineRun = farm::runFarm(jobs);
    farm::FarmOptions options;
    options.isolate = true;
    options.workerBinary = worker;
    farm::FarmReport isolated = farm::runFarm(jobs, options);
    setGlobalJobs(0);

    ASSERT_EQ(isolated.failures(), 0u);
    EXPECT_TRUE(isolated.isolated);
    EXPECT_EQ(inlineRun.resultsJson(), isolated.resultsJson());
    for (size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(imageBytes(inlineRun.results[i]),
                  imageBytes(isolated.results[i]))
            << jobs[i].id;
        EXPECT_EQ(isolated.results[i].attempts, 1u);
    }
}

TEST(FarmFaultIsolate, WorkerImageFailingValidationIsALoadError)
{
    // A worker result whose container is sound but whose image bytes
    // fail tryLoadImage: the parent loads every worker image back, so
    // the job fails as a LoadError instead of reporting the bytes.
    farm::WorkerResult worker = sampleWorkerResult();
    auto damaged =
        std::make_shared<compress::ImageProduct>(*worker.result.image);
    damaged->bytes[damaged->bytes.size() / 2] ^= 0x40;
    worker.result.image = damaged;
    std::vector<uint8_t> bytes = farm::serializeWorkerResult(worker);
    Result<farm::WorkerResult> parsed = farm::parseWorkerResult(bytes);
    ASSERT_FALSE(parsed.ok());

    // A stand-in worker that hands back exactly those bytes.
    ScratchDir dir("worker-image");
    std::string resultPath = (dir.path() / "result.bin").string();
    writeFile(resultPath, bytes);

    farm::FarmOptions options;
    options.isolate = true;
    options.workerBinary =
        writeStandIn(dir, "cp '" + resultPath + "' \"$4\"\n");
    farm::FarmReport report = farm::runFarm(
        {makeJob("compress", compress::Scheme::Nibble,
                 compress::StrategyKind::Greedy)},
        options);
    ASSERT_EQ(report.results.size(), 1u);
    EXPECT_FALSE(report.results[0].ok());
    EXPECT_EQ(report.results[0].failureKind, farm::FailureKind::LoadError)
        << report.results[0].error;
    // The error names the image check that refused the result.
    EXPECT_NE(report.results[0].error.find(parsed.error().message()),
              std::string::npos)
        << report.results[0].error;
    EXPECT_FALSE(report.results[0].image);
}

TEST(FarmFaultIsolate, InjectedCrashIsAttributedAndContained)
{
    if (ccfarmBinary().empty())
        GTEST_SKIP() << "ccfarm binary not built";
    std::vector<farm::FarmJob> jobs = tinyCorpus();
    std::vector<std::string> ids;
    for (const farm::FarmJob &job : jobs)
        ids.push_back(job.id);

    ScratchDir dir("crash-all");
    farm::FarmOptions options;
    options.isolate = true;
    options.workerBinary = faultyWorker(dir, Fault::Crash, ids);
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
    if (ccfarmBinary().empty())
        GTEST_SKIP() << "ccfarm binary not built";
    std::vector<farm::FarmJob> jobs = {
        makeJob("compress", compress::Scheme::Nibble,
                compress::StrategyKind::Greedy)};

    farm::FarmReport reference = farm::runFarm(jobs);

    ScratchDir dir("crash-once");
    farm::FarmOptions options;
    options.isolate = true;
    options.workerBinary = faultyWorker(dir, Fault::Crash, {jobs[0].id},
                                        /*transient=*/true);
    options.retries = 2;
    options.backoffBaseMs = 1;

    farm::FarmReport report = farm::runFarm(jobs, options);
    ASSERT_EQ(report.failures(), 0u);
    EXPECT_EQ(report.results[0].attempts, 2u);
    EXPECT_EQ(imageBytes(report.results[0]),
              imageBytes(reference.results[0]));
}

/** The jobs at @p faulted of an isolated run are crashed or hung:
 *  they fail with @p expected after every attempt, the others match an
 *  inline run on their first try, and with the faults made transient
 *  every job recovers. */
void
expectMixedInjectionIsContained(Fault fault, farm::FailureKind expected,
                                const std::vector<size_t> &faulted)
{
    if (ccfarmBinary().empty())
        GTEST_SKIP() << "ccfarm binary not built";
    std::vector<farm::FarmJob> jobs;
    for (compress::Scheme scheme :
         {compress::Scheme::Nibble, compress::Scheme::OneByte})
        for (compress::StrategyKind strategy :
             compress::allStrategyKinds())
            jobs.push_back(makeJob("compress", scheme, strategy));
    farm::FarmReport clean = farm::runFarm(jobs);
    ASSERT_EQ(clean.failures(), 0u);
    std::vector<bool> injected(jobs.size());
    std::vector<std::string> ids;
    for (size_t i : faulted) {
        injected.at(i) = true;
        ids.push_back(jobs[i].id);
    }
    // A mixed subset, so both halves of the contract are exercised.
    ASSERT_TRUE(!ids.empty() && ids.size() < jobs.size());

    ScratchDir hardDir("mixed-hard");
    farm::FarmOptions options;
    options.isolate = true;
    options.workerBinary = faultyWorker(hardDir, fault, ids);
    options.retries = 1;
    options.backoffBaseMs = 0; // retry at once
    options.jobTimeoutMs = 2000; // a hang is only seen at a deadline

    // Hard faults: injected jobs fail with the right kind after
    // every attempt; the others match the inline run, first try.
    setGlobalJobs(2);
    farm::FarmReport hard = farm::runFarm(jobs, options);
    ASSERT_EQ(hard.results.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        const farm::FarmJobResult &got = hard.results[i];
        if (injected[i]) {
            EXPECT_FALSE(got.ok()) << got.id;
            EXPECT_EQ(got.failureKind, expected) << got.id;
            EXPECT_EQ(got.attempts, 2u) << got.id;
        } else {
            EXPECT_TRUE(got.ok()) << got.id << ": " << got.error;
            EXPECT_EQ(imageBytes(got), imageBytes(clean.results[i]))
                << got.id;
            EXPECT_EQ(got.attempts, 1u) << got.id;
        }
    }
    EXPECT_EQ(hard.failuresOfKind(expected), ids.size());

    // The same faults made transient: every job recovers.
    ScratchDir softDir("mixed-soft");
    options.workerBinary =
        faultyWorker(softDir, fault, ids, /*transient=*/true);
    farm::FarmReport soft = farm::runFarm(jobs, options);
    setGlobalJobs(0);
    EXPECT_EQ(soft.failures(), 0u);
    for (size_t i = 0; i < jobs.size(); ++i) {
        const farm::FarmJobResult &got = soft.results[i];
        EXPECT_EQ(imageBytes(got), imageBytes(clean.results[i]))
            << got.id;
        EXPECT_EQ(got.attempts, injected[i] ? 2u : 1u) << got.id;
    }
}

TEST(FarmFaultIsolate, MixedCrashInjectionIsContained)
{
    expectMixedInjectionIsContained(Fault::Crash, farm::FailureKind::Crash,
                                    {0, 1});
}

TEST(FarmFaultIsolate, MixedHangInjectionIsContained)
{
    // One hung job, the first claimed: its deadlines start at once and
    // the other runner of the pool of two clears the clean jobs in the
    // meantime. Three 2 s deadlines (two hard, one transient) are the
    // test's floor; a second hung job would only queue clean work
    // behind both hangs.
    expectMixedInjectionIsContained(Fault::Hang, farm::FailureKind::Timeout,
                                    {0});
}

TEST(FarmFaultIsolate, HungWorkerIsKilledAtTheDeadline)
{
    if (ccfarmBinary().empty())
        GTEST_SKIP() << "ccfarm binary not built";
    std::vector<farm::FarmJob> jobs = {
        makeJob("compress", compress::Scheme::Nibble,
                compress::StrategyKind::Greedy)};

    ScratchDir dir("hang");
    farm::FarmOptions options;
    options.isolate = true;
    options.workerBinary = faultyWorker(dir, Fault::Hang, {jobs[0].id});
    options.jobTimeoutMs = 500;

    farm::FarmReport report = farm::runFarm(jobs, options);
    ASSERT_EQ(report.failures(), 1u);
    EXPECT_EQ(report.results[0].failureKind, farm::FailureKind::Timeout);
    EXPECT_NE(report.results[0].error.find("deadline"),
              std::string::npos);
}

TEST(FarmFaultIsolate, PerJobTimeoutOverridesTheFarmDefault)
{
    if (ccfarmBinary().empty())
        GTEST_SKIP() << "ccfarm binary not built";
    // The farm default would never fire; the per-job deadline does.
    std::vector<farm::FarmJob> jobs = {
        makeJob("compress", compress::Scheme::Nibble,
                compress::StrategyKind::Greedy)};
    jobs[0].timeoutMs = 400;

    ScratchDir dir("hang-per-job");
    farm::FarmOptions options;
    options.isolate = true;
    options.workerBinary = faultyWorker(dir, Fault::Hang, {jobs[0].id});
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
    EXPECT_EQ(imageBytes(report.results[0]), imageBytes(report.results[1]));
    EXPECT_EQ(imageBytes(report.results[0]), imageBytes(report.results[2]));
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
    // serves the whole job from disk.
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
    EXPECT_EQ(imageBytes(coldReport.results[0]),
              imageBytes(warmReport.results[0]));
}

TEST(FarmFaultIsolate, WarmIsolatedRunBuildsNoProgram)
{
    std::string worker = ccfarmBinary();
    if (worker.empty())
        GTEST_SKIP() << "ccfarm binary not built";
    // Workers run the ccfarm executable, whose Program entries a cold
    // isolated run stores: warm, every worker hits its Program entry
    // and its image, and builds nothing.
    ScratchDir dir("program-iso");
    std::vector<farm::FarmJob> jobs = tinyCorpus();
    farm::FarmOptions options;
    options.cacheDir = dir.str();
    options.isolate = true;
    options.workerBinary = worker;

    setGlobalJobs(2);
    farm::FarmReport reference = farm::runFarm(jobs);
    farm::FarmReport cold = farm::runFarm(jobs, options);
    farm::FarmReport warm = farm::runFarm(jobs, options);
    setGlobalJobs(0);
    ASSERT_EQ(cold.failures(), 0u);
    ASSERT_EQ(warm.failures(), 0u);
    EXPECT_EQ(warm.cacheStats.programHits, jobs.size());
    EXPECT_EQ(warm.cacheStats.programMisses, 0u);
    EXPECT_EQ(warm.cacheStats.imageHits, jobs.size());
    EXPECT_EQ(warm.cacheStats.imageMisses, 0u);
    EXPECT_EQ(warm.cacheStats.persistStores, 0u);
    EXPECT_EQ(reference.resultsJson(), cold.resultsJson());
    EXPECT_EQ(reference.resultsJson(), warm.resultsJson());
    for (size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(imageBytes(reference.results[i]),
                  imageBytes(warm.results[i]))
            << jobs[i].id;
}

TEST(FarmFaultIsolate, WarmIsolatedRunHitsInlineImages)
{
    std::string worker = ccfarmBinary();
    if (worker.empty())
        GTEST_SKIP() << "ccfarm binary not built";
    // Images an inline run stored are what isolated workers return:
    // one Image hit per job, no Select lookup, the same results and
    // bytes cold, warm, inline and isolated.
    ScratchDir dir("image-iso");
    std::vector<farm::FarmJob> jobs = tinyCorpus();
    farm::FarmOptions inlineRun;
    inlineRun.cacheDir = dir.str();
    farm::FarmOptions isolated = inlineRun;
    isolated.isolate = true;
    isolated.workerBinary = worker;

    setGlobalJobs(2);
    farm::FarmReport cold = farm::runFarm(jobs, inlineRun);
    farm::FarmReport warm = farm::runFarm(jobs, isolated);
    setGlobalJobs(0);
    ASSERT_EQ(cold.failures(), 0u);
    ASSERT_EQ(warm.failures(), 0u);
    EXPECT_EQ(warm.cacheStats.imageHits, jobs.size());
    EXPECT_EQ(warm.cacheStats.imageMisses, 0u);
    EXPECT_EQ(warm.cacheStats.selectHits + warm.cacheStats.selectMisses,
              0u);
    EXPECT_EQ(warm.cacheStats.persistCorrupt, 0u);
    EXPECT_EQ(cold.resultsJson(), warm.resultsJson());
    for (size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(imageBytes(cold.results[i]), imageBytes(warm.results[i]))
            << jobs[i].id;
}

} // namespace
