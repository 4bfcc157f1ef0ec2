/**
 * @file
 * The farm's worker protocol: how an isolated job crosses the process
 * boundary.
 *
 * The parent spawns the ccfarm binary in --worker mode with a one-job
 * spec (jobspec.hh) as the argument of --worker, and reads back a
 * checksummed binary result file. The result file carries the job's
 * outcome -- the image bytes and digest, the full PipelineStats, the
 * worker's cache counters -- with doubles transported as raw bits; the
 * parent computes the sizes from the image it loads back, as an inline
 * run does, so the deterministic report half is byte-identical.
 *
 * The worker writes the file with writeFileAtomic, sealed in the
 * shared container (sealPayload, support/serialize.hh); the parent
 * treats it as untrusted (a worker may have been killed mid-write):
 * openSealed's magic, version and checksum checks, parsing, and
 * loading the image back (compress::loadImageProduct, as a disk Image
 * entry is; a successful result must carry one) all gate acceptance;
 * any deviation is a classified per-job LoadError failure, never a
 * parent crash, and the job's error names the check that refused the
 * file.
 */

#ifndef CODECOMP_FARM_WORKER_HH
#define CODECOMP_FARM_WORKER_HH

#include <string>
#include <vector>

#include "farm/farm.hh"
#include "support/serialize.hh"
#include "support/subprocess.hh"

namespace codecomp::farm {

/** What a worker subprocess reports back: the job result plus its
 *  own PipelineCache counters (aggregated into the farm report). */
struct WorkerResult
{
    FarmJobResult result;
    compress::PipelineCache::Stats cacheStats;
};

/** Serialize @p result into the worker result-file format. */
std::vector<uint8_t> serializeWorkerResult(const WorkerResult &result);

/** Parse an untrusted worker result file, image included; every
 *  structural problem is a typed LoadError, never an abort. */
Result<WorkerResult> parseWorkerResult(const std::vector<uint8_t> &bytes);

/**
 * Execute one job in this process on behalf of --worker mode: hold one
 * PipelineCache (backed by @p cacheDir when that is set and usable),
 * resolve the program (a Program hit builds nothing; FarmProgram), run
 * the job, and capture any catchable failure in-band (with its
 * FailureKind) so the parent can distinguish a deterministic SpecError
 * from retryable faults.
 */
WorkerResult runWorkerJob(const FarmJob &job, const std::string &cacheDir);

/**
 * Classify a finished worker subprocess: @p spawn outcome/exit code x
 * whether the result file parsed (@p resultOk) and carried an in-band
 * failure. Returns FailureKind::None only for a clean, parsed,
 * error-free result.
 */
FailureKind classifyWorkerOutcome(const SubprocessResult &spawn,
                                  bool resultOk,
                                  const WorkerResult &result);

} // namespace codecomp::farm

#endif // CODECOMP_FARM_WORKER_HH
