/**
 * @file
 * Shared helpers of the farm tests: a job constructor, a result's
 * image bytes, and the reference every farm run must match -- the job
 * compressed by serial compressProgram, with no farm and no cache.
 */

#ifndef CODECOMP_TESTS_FARM_REFERENCE_HH
#define CODECOMP_TESTS_FARM_REFERENCE_HH

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "compress/compressor.hh"
#include "compress/encoding.hh"
#include "compress/objfile.hh"
#include "compress/strategy.hh"
#include "farm/farm.hh"
#include "support/serialize.hh"
#include "timing/timing.hh"
#include "workloads/workloads.hh"

namespace codecomp::test {

inline farm::FarmJob
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

/** A result's image bytes; empty if it holds no image (a failed job). */
inline std::vector<uint8_t>
imageBytes(const farm::FarmJobResult &result)
{
    return result.image ? result.image->bytes : std::vector<uint8_t>{};
}

/** The bytes of each job's image, in order, as serial compressProgram
 *  makes them. A HotCold job without a traffic profile is profiled
 *  first, as runFarmJob does. */
inline std::vector<std::vector<uint8_t>>
serialImages(const std::vector<farm::FarmJob> &jobs)
{
    std::vector<std::vector<uint8_t>> images;
    for (const farm::FarmJob &job : jobs) {
        Program program =
            workloads::buildBenchmark(job.workload, job.scale);
        compress::CompressorConfig config = job.config;
        if (config.layout == compress::LayoutMode::HotCold &&
            config.trafficProfile.empty())
            config.trafficProfile = timing::profileExecutionCounts(program);
        images.push_back(
            saveImage(compress::compressProgram(program, config)));
    }
    return images;
}

/** Expect @p report to hold, job for job, the @p expected images and
 *  their digests. */
inline void
expectImages(const std::vector<farm::FarmJob> &jobs,
             const farm::FarmReport &report,
             const std::vector<std::vector<uint8_t>> &expected)
{
    ASSERT_EQ(report.results.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(imageBytes(report.results[i]), expected[i]) << jobs[i].id;
        EXPECT_EQ(report.results[i].imageFnv64, fnv1a64(expected[i]))
            << jobs[i].id;
    }
}

} // namespace codecomp::test

#endif // CODECOMP_TESTS_FARM_REFERENCE_HH
