#include "farm/worker.hh"

#include <cstring>

#include "support/logging.hh"

namespace codecomp::farm {

namespace {

/**
 * A result file is the sealed container of support/serialize.hh
 * (magic "CCWR", kWorkerVersion) around the serialized WorkerResult,
 * doubles as raw bits.
 */
constexpr uint32_t kWorkerMagic = 0x43435752; // "CCWR"
constexpr uint32_t kWorkerVersion = 4;

uint64_t
doubleBits(double value)
{
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

double
bitsDouble(uint64_t bits)
{
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
}

void
putStats(ByteSink &sink, const compress::PipelineStats &stats)
{
    sink.putString(stats.strategy);
    sink.putString(stats.scheme);
    sink.put32(stats.selectionRounds);
    sink.put32(static_cast<uint32_t>(stats.passes.size()));
    for (const compress::PassStats &pass : stats.passes) {
        sink.putString(pass.name);
        sink.put64(doubleBits(pass.millis));
        sink.put32(static_cast<uint32_t>(pass.counters.size()));
        for (const auto &[name, value] : pass.counters) {
            sink.putString(name);
            sink.put64(value);
        }
    }
}

compress::PipelineStats
getStats(ByteSource &source)
{
    compress::PipelineStats stats;
    stats.strategy = source.getString();
    stats.scheme = source.getString();
    stats.selectionRounds = source.get32();
    stats.passes.resize(source.get32());
    for (compress::PassStats &pass : stats.passes) {
        pass.name = source.getString();
        pass.millis = bitsDouble(source.get64());
        pass.counters.resize(source.get32());
        for (auto &[name, value] : pass.counters) {
            name = source.getString();
            value = source.get64();
        }
    }
    return stats;
}

} // namespace

std::vector<uint8_t>
serializeWorkerResult(const WorkerResult &worker)
{
    const FarmJobResult &r = worker.result;
    ByteSink payload;
    payload.putString(r.id);
    payload.putString(r.workload);
    payload.putString(r.scheme);
    payload.putString(r.strategy);
    payload.putString(r.error);
    payload.put8(static_cast<uint8_t>(r.failureKind));
    payload.put32(r.attempts);
    payload.put64(r.imageFnv64);
    payload.putBlob(r.image ? r.image->bytes : std::vector<uint8_t>{});
    putStats(payload, r.stats);
    payload.put64(doubleBits(r.millis));
    for (const auto &field : compress::PipelineCache::Stats::fields)
        payload.put64(worker.cacheStats.*field.member);
    return sealPayload(kWorkerMagic, kWorkerVersion, payload.bytes());
}

Result<WorkerResult>
parseWorkerResult(const std::vector<uint8_t> &bytes)
{
    Result<std::vector<uint8_t>> payload =
        openSealed(bytes, kWorkerMagic, kWorkerVersion, "worker result");
    if (!payload.ok())
        return payload.error();
    try {
        ByteSource body(payload.value());
        body.setContext("worker result payload");
        WorkerResult worker;
        FarmJobResult &r = worker.result;
        r.id = body.getString();
        r.workload = body.getString();
        r.scheme = body.getString();
        r.strategy = body.getString();
        r.error = body.getString();
        uint8_t kind = body.get8();
        if (kind > static_cast<uint8_t>(FailureKind::SpecError))
            return LoadError{LoadStatus::BadValue, body.pos(),
                             "worker result payload",
                             "failure kind out of range"};
        r.failureKind = static_cast<FailureKind>(kind);
        r.attempts = body.get32();
        r.imageFnv64 = body.get64();
        if (std::vector<uint8_t> image = body.getBlob(); !image.empty())
            r.image = compress::loadImageProduct(std::move(image),
                                                 r.imageFnv64);
        else if (r.error.empty())
            return LoadError{LoadStatus::BadValue, body.pos(),
                             "worker result payload",
                             "successful job without an image"};
        r.stats = getStats(body);
        r.millis = bitsDouble(body.get64());
        for (const auto &field : compress::PipelineCache::Stats::fields)
            worker.cacheStats.*field.member = body.get64();
        if (!body.atEnd())
            return LoadError{LoadStatus::TrailingBytes, body.pos(),
                             "worker result payload", "trailing bytes"};
        return worker;
    } catch (const LoadFailure &failure) {
        return failure.error();
    } catch (const std::exception &error) {
        // bad_alloc from an absurd declared count, etc.
        return LoadError{LoadStatus::BadValue, 0, "worker result",
                         error.what()};
    }
}

WorkerResult
runWorkerJob(const FarmJob &job, const std::string &cacheDir)
{
    WorkerResult worker{FarmJobResult(job), {}};
    FarmJobResult &result = worker.result;
    try {
        compress::PipelineCache cache;
        if (!cacheDir.empty())
            cache.setDiskStore(cacheDir);
        FarmProgram program(job.workload, job.scale);
        program.resolve(cache);
        result = runFarmJob(job, program, cache);
        worker.cacheStats = cache.stats();
    } catch (const PanicError &) {
        throw; // a library bug: let the worker exit 3 (Crash)
    } catch (const std::exception &error) {
        result.error = error.what();
        result.failureKind = classifyJobError(error);
    }
    return worker;
}

FailureKind
classifyWorkerOutcome(const SubprocessResult &spawn, bool resultOk,
                      const WorkerResult &result)
{
    switch (spawn.outcome) {
      case SubprocessResult::Outcome::TimedOut:
        return FailureKind::Timeout;
      case SubprocessResult::Outcome::Signaled:
        return FailureKind::Crash;
      case SubprocessResult::Outcome::SpawnFailed:
        return FailureKind::LoadError;
      case SubprocessResult::Outcome::Exited:
        break;
    }
    switch (spawn.exitCode) {
      case 0:
        if (!resultOk)
            return FailureKind::LoadError;
        if (result.result.error.empty())
            return FailureKind::None;
        // An in-band failure carries its own kind (SpecError for a
        // plain job error, LoadError/MachineCheck if the worker
        // classified it).
        return result.result.failureKind == FailureKind::None
                   ? FailureKind::SpecError
                   : result.result.failureKind;
      case 2:
        return FailureKind::MachineCheck; // tool exit contract
      case 1:
      case 127:
        return FailureKind::LoadError; // load/spawn-level failure
      default:
        return FailureKind::Crash; // panic (3) or an abrupt exit
    }
}

} // namespace codecomp::farm
