/**
 * @file
 * Tests for the compression farm: bit-identity of batched output
 * against the serial single-program path at any pool width and cache
 * setting, cache hit/miss accounting on corpora with shared programs
 * and duplicated jobs, error capture, and the job-spec JSON parser.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "compress/compressor.hh"
#include "compress/encoding.hh"
#include "compress/strategy.hh"
#include "compress/objfile.hh"
#include "farm/farm.hh"
#include "farm/jobspec.hh"
#include "support/serialize.hh"
#include "support/thread_pool.hh"
#include "workloads/workloads.hh"

using namespace codecomp;

namespace {

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

/** A small mixed queue: one workload swept across schemes (shares an
 *  enumeration), a second workload, and a refit job. */
std::vector<farm::FarmJob>
smallCorpus()
{
    return {
        makeJob("compress", compress::Scheme::Nibble,
                compress::StrategyKind::Greedy),
        makeJob("compress", compress::Scheme::OneByte,
                compress::StrategyKind::Greedy),
        makeJob("compress", compress::Scheme::Baseline,
                compress::StrategyKind::Greedy),
        makeJob("li", compress::Scheme::Nibble,
                compress::StrategyKind::Greedy),
        makeJob("compress", compress::Scheme::Nibble,
                compress::StrategyKind::IterativeRefit),
    };
}

TEST(Farm, MatchesSerialCompressorBitForBit)
{
    std::vector<farm::FarmJob> jobs = smallCorpus();
    setGlobalJobs(4);
    farm::FarmReport report = farm::runFarm(jobs);
    setGlobalJobs(0);
    ASSERT_EQ(report.results.size(), jobs.size());
    ASSERT_EQ(report.failures(), 0u);

    // The reference path: serial compressProgram, no farm, no cache.
    for (size_t i = 0; i < jobs.size(); ++i) {
        Program program =
            workloads::buildBenchmark(jobs[i].workload, jobs[i].scale);
        compress::CompressedImage image =
            compress::compressProgram(program, jobs[i].config);
        std::vector<uint8_t> expected = saveImage(image);
        EXPECT_EQ(report.results[i].imageBytes, expected)
            << jobs[i].id;
        EXPECT_EQ(report.results[i].imageFnv64, fnv1a64(expected));
        EXPECT_EQ(report.results[i].totalBytes, image.totalBytes());
    }
}

TEST(Farm, DeterministicAcrossPoolWidthsAndCache)
{
    std::vector<farm::FarmJob> jobs = smallCorpus();

    setGlobalJobs(1);
    farm::FarmOptions noCache;
    noCache.cache = false;
    farm::FarmReport serial = farm::runFarm(jobs, noCache);

    setGlobalJobs(4);
    farm::FarmReport wide = farm::runFarm(jobs);

    setGlobalJobs(3);
    farm::FarmReport odd = farm::runFarm(jobs);
    setGlobalJobs(0);

    // The deterministic report half is byte-identical; the images are
    // bit-identical job for job.
    EXPECT_EQ(serial.resultsJson(), wide.resultsJson());
    EXPECT_EQ(serial.resultsJson(), odd.resultsJson());
    for (size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(serial.results[i].imageBytes,
                  wide.results[i].imageBytes)
            << jobs[i].id;
        EXPECT_EQ(serial.results[i].imageBytes,
                  odd.results[i].imageBytes)
            << jobs[i].id;
    }
}

TEST(Farm, CacheCountersOnDuplicatesAndSchemeSweeps)
{
    // Queue: nibble/greedy twice (exact duplicate), onebyte/greedy and
    // baseline/greedy on the same program. Serially: the first job
    // misses everything; the duplicate hits the whole selection; the
    // two other schemes miss selection but share the enumeration.
    std::vector<farm::FarmJob> jobs = {
        makeJob("compress", compress::Scheme::Nibble,
                compress::StrategyKind::Greedy),
        makeJob("compress", compress::Scheme::Nibble,
                compress::StrategyKind::Greedy),
        makeJob("compress", compress::Scheme::OneByte,
                compress::StrategyKind::Greedy),
        makeJob("compress", compress::Scheme::Baseline,
                compress::StrategyKind::Greedy),
    };
    jobs[1].id += "#dup";

    setGlobalJobs(1);
    farm::FarmReport report = farm::runFarm(jobs);
    setGlobalJobs(0);

    ASSERT_EQ(report.failures(), 0u);
    EXPECT_EQ(report.cacheStats.selectHits, 1u);
    EXPECT_EQ(report.cacheStats.selectMisses, 3u);
    EXPECT_EQ(report.cacheStats.enumHits, 2u);
    EXPECT_EQ(report.cacheStats.enumMisses, 1u);

    // The duplicate's image is byte-identical to the original's.
    EXPECT_EQ(report.results[0].imageBytes, report.results[1].imageBytes);
}

TEST(Farm, DuplicatesHitSelectionAtAnyPoolWidth)
{
    // Three copies of one job and two of another on a pool wider than
    // the queue: the copies run after their first instance, so every
    // copy is a Select hit however the workers interleave.
    std::vector<farm::FarmJob> jobs;
    for (int copy = 0; copy < 3; ++copy)
        jobs.push_back(makeJob("compress", compress::Scheme::Nibble,
                               compress::StrategyKind::Greedy));
    for (int copy = 0; copy < 2; ++copy)
        jobs.push_back(makeJob("li", compress::Scheme::Nibble,
                               compress::StrategyKind::IterativeRefit));

    setGlobalJobs(8);
    farm::FarmReport report = farm::runFarm(jobs);
    setGlobalJobs(0);

    ASSERT_EQ(report.failures(), 0u);
    EXPECT_EQ(report.cacheStats.selectHits, 3u);
    EXPECT_EQ(report.cacheStats.selectMisses, 2u);
    EXPECT_EQ(report.results[0].imageBytes, report.results[2].imageBytes);
    EXPECT_EQ(report.results[3].imageBytes, report.results[4].imageBytes);
}

TEST(Farm, CacheOffRecordsNoActivity)
{
    farm::FarmOptions options;
    options.cache = false;
    setGlobalJobs(2);
    farm::FarmReport report = farm::runFarm(
        {makeJob("compress", compress::Scheme::Nibble,
                 compress::StrategyKind::Greedy),
         makeJob("compress", compress::Scheme::Nibble,
                 compress::StrategyKind::Greedy)},
        options);
    setGlobalJobs(0);
    EXPECT_EQ(report.failures(), 0u);
    EXPECT_EQ(report.cacheStats.enumHits, 0u);
    EXPECT_EQ(report.cacheStats.enumMisses, 0u);
    EXPECT_EQ(report.cacheStats.selectHits, 0u);
    EXPECT_EQ(report.cacheStats.selectMisses, 0u);
}

TEST(Farm, UnknownWorkloadIsCatchableFatal)
{
    farm::FarmJob job = makeJob("compress", compress::Scheme::Nibble,
                                compress::StrategyKind::Greedy);
    job.workload = "nonesuch";
    EXPECT_THROW(farm::runFarm({job}), std::runtime_error);

    farm::FarmJob badScale = makeJob(
        "compress", compress::Scheme::Nibble,
        compress::StrategyKind::Greedy);
    badScale.scale = 0;
    EXPECT_THROW(farm::runFarm({badScale}), std::runtime_error);
}

TEST(Farm, JobFailureIsCapturedNotFatal)
{
    // An invalid config (entry length 0) fails its own job; the rest
    // of the queue still completes.
    std::vector<farm::FarmJob> jobs = {
        makeJob("compress", compress::Scheme::Nibble,
                compress::StrategyKind::Greedy),
        makeJob("compress", compress::Scheme::Nibble,
                compress::StrategyKind::Greedy),
    };
    jobs[1].config.maxEntryLen = 0;
    jobs[1].id = "bad-config";

    farm::FarmReport report = farm::runFarm(jobs);
    ASSERT_EQ(report.results.size(), 2u);
    EXPECT_TRUE(report.results[0].ok());
    EXPECT_FALSE(report.results[1].ok());
    EXPECT_FALSE(report.results[1].error.empty());
    EXPECT_EQ(report.failures(), 1u);

    // The failed job appears in the JSON with its error, not sizes.
    EXPECT_NE(report.resultsJson().find("\"error\""), std::string::npos);
}

TEST(Farm, StarterCorpusCoversTheSweep)
{
    std::vector<farm::FarmJob> corpus = farm::starterCorpus();
    EXPECT_EQ(corpus.size(), workloads::benchmarkNames().size() *
                                 compress::allCodecs().size() * 2);
    // Ids are unique.
    std::vector<std::string> ids;
    for (const farm::FarmJob &job : corpus)
        ids.push_back(job.id);
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
}

// ---------------- job-spec parsing ----------------

TEST(JobSpec, MinimalJobGetsCcompressDefaults)
{
    std::vector<farm::FarmJob> jobs =
        farm::parseJobSpec(R"({"jobs":[{"workload":"gcc"}]})");
    ASSERT_EQ(jobs.size(), 1u);
    EXPECT_EQ(jobs[0].workload, "gcc");
    EXPECT_EQ(jobs[0].scale, 1);
    EXPECT_EQ(jobs[0].config.scheme, compress::Scheme::Nibble);
    EXPECT_EQ(jobs[0].config.strategy, compress::StrategyKind::Greedy);
    EXPECT_EQ(jobs[0].config.maxEntries, 4680u);
    EXPECT_EQ(jobs[0].config.maxEntryLen, 4u);
    EXPECT_EQ(jobs[0].id, "gcc/nibble/greedy");
}

TEST(JobSpec, FullJobAndRepeatExpansion)
{
    std::vector<farm::FarmJob> jobs = farm::parseJobSpec(R"({
      "jobs": [
        { "workload": "li", "scale": 2, "scheme": "onebyte",
          "strategy": "refit", "max_entries": 20, "max_len": 3,
          "refit_max_rounds": 2, "repeat": 3 },
        { "workload": "perl", "id": "custom-name" }
      ]
    })");
    ASSERT_EQ(jobs.size(), 4u);
    EXPECT_EQ(jobs[0].id, "li/onebyte/refit#0");
    EXPECT_EQ(jobs[1].id, "li/onebyte/refit#1");
    EXPECT_EQ(jobs[2].id, "li/onebyte/refit#2");
    EXPECT_EQ(jobs[0].scale, 2);
    EXPECT_EQ(jobs[0].config.scheme, compress::Scheme::OneByte);
    EXPECT_EQ(jobs[0].config.strategy,
              compress::StrategyKind::IterativeRefit);
    EXPECT_EQ(jobs[0].config.maxEntries, 20u);
    EXPECT_EQ(jobs[0].config.maxEntryLen, 3u);
    EXPECT_EQ(jobs[0].config.refitMaxRounds, 2u);
    EXPECT_EQ(jobs[3].id, "custom-name");
}

TEST(JobSpec, RejectsStructuralErrors)
{
    // Malformed JSON.
    EXPECT_THROW(farm::parseJobSpec("{"), std::runtime_error);
    EXPECT_THROW(farm::parseJobSpec(R"({"jobs":[{}]} trailing)"),
                 std::runtime_error);
    EXPECT_THROW(farm::parseJobSpec(R"({"jobs":[{"workload":"gcc)"),
                 std::runtime_error);
    // Wrong shapes.
    EXPECT_THROW(farm::parseJobSpec("[]"), std::runtime_error);
    EXPECT_THROW(farm::parseJobSpec("{}"), std::runtime_error);
    EXPECT_THROW(farm::parseJobSpec(R"({"jobs":[]})"),
                 std::runtime_error);
    EXPECT_THROW(farm::parseJobSpec(R"({"jobs":[42]})"),
                 std::runtime_error);
}

TEST(JobSpec, RejectsBadFieldValues)
{
    // Missing workload.
    EXPECT_THROW(farm::parseJobSpec(R"({"jobs":[{"scale":1}]})"),
                 std::runtime_error);
    // Unknown scheme / strategy names.
    EXPECT_THROW(farm::parseJobSpec(
                     R"({"jobs":[{"workload":"gcc","scheme":"huffman"}]})"),
                 std::runtime_error);
    EXPECT_THROW(
        farm::parseJobSpec(
            R"({"jobs":[{"workload":"gcc","strategy":"optimal"}]})"),
        std::runtime_error);
    // Non-integer and out-of-range numbers.
    EXPECT_THROW(farm::parseJobSpec(
                     R"({"jobs":[{"workload":"gcc","scale":1.5}]})"),
                 std::runtime_error);
    EXPECT_THROW(farm::parseJobSpec(
                     R"({"jobs":[{"workload":"gcc","max_len":0}]})"),
                 std::runtime_error);
    // max_entries is validated against the scheme's codeword ceiling
    // (32 for the one-byte scheme), like the ccompress CLI.
    EXPECT_THROW(
        farm::parseJobSpec(
            R"({"jobs":[{"workload":"gcc","scheme":"onebyte",)"
            R"("max_entries":200}]})"),
        std::runtime_error);
    // A typo'd key must not silently become a default.
    EXPECT_THROW(farm::parseJobSpec(
                     R"({"jobs":[{"workload":"gcc","shceme":"nibble"}]})"),
                 std::runtime_error);
}

TEST(JobSpec, TimeoutAndRetriesFields)
{
    // Absent: both defer to the farm defaults (-1).
    std::vector<farm::FarmJob> defaults =
        farm::parseJobSpec(R"({"jobs":[{"workload":"gcc"}]})");
    EXPECT_EQ(defaults[0].timeoutMs, -1);
    EXPECT_EQ(defaults[0].retries, -1);

    // Present: carried through, including the explicit zeros ("no
    // deadline" / "no retries").
    std::vector<farm::FarmJob> set = farm::parseJobSpec(
        R"({"jobs":[{"workload":"gcc","timeout_ms":2500,"retries":3},)"
        R"({"workload":"li","timeout_ms":0,"retries":0}]})");
    EXPECT_EQ(set[0].timeoutMs, 2500);
    EXPECT_EQ(set[0].retries, 3);
    EXPECT_EQ(set[1].timeoutMs, 0);
    EXPECT_EQ(set[1].retries, 0);

    // Out-of-range and non-integer values are rejected.
    EXPECT_THROW(farm::parseJobSpec(
                     R"({"jobs":[{"workload":"gcc","timeout_ms":-2}]})"),
                 std::runtime_error);
    EXPECT_THROW(
        farm::parseJobSpec(
            R"({"jobs":[{"workload":"gcc","timeout_ms":86400001}]})"),
        std::runtime_error);
    EXPECT_THROW(farm::parseJobSpec(
                     R"({"jobs":[{"workload":"gcc","retries":101}]})"),
                 std::runtime_error);
    EXPECT_THROW(farm::parseJobSpec(
                     R"({"jobs":[{"workload":"gcc","retries":1.5}]})"),
                 std::runtime_error);
}

TEST(JobSpec, WriteJobSpecRoundTripsTheQueue)
{
    std::vector<farm::FarmJob> jobs = farm::parseJobSpec(R"({
      "jobs": [
        { "workload": "li", "scale": 2, "scheme": "onebyte",
          "strategy": "refit", "max_entries": 20, "max_len": 3,
          "refit_max_rounds": 2, "timeout_ms": 1000, "retries": 2,
          "repeat": 2 },
        { "workload": "perl", "id": "custom-name" }
      ]
    })");
    std::vector<farm::FarmJob> again =
        farm::parseJobSpec(farm::writeJobSpec(jobs));
    ASSERT_EQ(again.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(again[i].id, jobs[i].id);
        EXPECT_EQ(again[i].workload, jobs[i].workload);
        EXPECT_EQ(again[i].scale, jobs[i].scale);
        EXPECT_EQ(again[i].timeoutMs, jobs[i].timeoutMs);
        EXPECT_EQ(again[i].retries, jobs[i].retries);
        EXPECT_EQ(again[i].config.scheme, jobs[i].config.scheme);
        EXPECT_EQ(again[i].config.strategy, jobs[i].config.strategy);
        EXPECT_EQ(again[i].config.maxEntries, jobs[i].config.maxEntries);
        EXPECT_EQ(again[i].config.maxEntryLen,
                  jobs[i].config.maxEntryLen);
        EXPECT_EQ(again[i].config.refitMaxRounds,
                  jobs[i].config.refitMaxRounds);
    }

    // The starter corpus round-trips too, even where its maxEntries
    // exceeds a scheme's codeword budget (the writer emits the value
    // the pipeline would clip to).
    std::vector<farm::FarmJob> corpus = farm::starterCorpus();
    std::vector<farm::FarmJob> corpusAgain =
        farm::parseJobSpec(farm::writeJobSpec(corpus));
    ASSERT_EQ(corpusAgain.size(), corpus.size());
    for (size_t i = 0; i < corpus.size(); ++i)
        EXPECT_EQ(corpusAgain[i].id, corpus[i].id);
}

} // namespace
