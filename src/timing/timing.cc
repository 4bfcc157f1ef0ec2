#include "timing/timing.hh"

#include "decompress/cpu.hh"
#include "support/json.hh"
#include "support/logging.hh"

namespace codecomp::timing {

std::string
timingConfigError(const TimingConfig &config)
{
    if (config.frontendWidth < 1 || config.frontendWidth > 16)
        return "front-end width must be 1..16 (got " +
               std::to_string(config.frontendWidth) + ")";
    std::string cache_error = cache::cacheConfigError(config.icache);
    if (!cache_error.empty())
        return "icache: " + cache_error;
    if (config.missPenaltyCycles > 10000)
        return "miss penalty must be <= 10000 cycles";
    if (config.memoryCyclesPerWord > 10000)
        return "memory cycles per word must be <= 10000";
    if (config.expansionCyclesPerWord > 10000)
        return "expansion cycles per word must be <= 10000";
    if (config.redirectPenaltyCycles > 10000)
        return "redirect penalty must be <= 10000 cycles";
    if (config.decodedCacheRanks > 8192)
        return "decoded-cache ranks must be <= 8192 (the largest "
               "dictionary)";
    if (config.hasL2()) {
        std::string l2_error = cache::cacheConfigError(config.l2);
        if (!l2_error.empty())
            return "l2: " + l2_error;
        if (config.l2.capacityBytes < config.icache.capacityBytes)
            return "l2 capacity " +
                   std::to_string(config.l2.capacityBytes) +
                   " must be at least the L1 capacity " +
                   std::to_string(config.icache.capacityBytes) +
                   " (the hierarchy is inclusive)";
        if (config.l2.lineBytes < config.icache.lineBytes)
            return "l2 line " + std::to_string(config.l2.lineBytes) +
                   " must be at least the L1 line " +
                   std::to_string(config.icache.lineBytes);
        if (config.l2HitPenaltyCycles > 10000)
            return "l2 hit penalty must be <= 10000 cycles";
        if (config.l2CyclesPerWord > 10000)
            return "l2 cycles per word must be <= 10000";
        if (config.l2FillCycles() > config.lineFillCycles())
            return "an L2 hit (" +
                   std::to_string(config.l2FillCycles()) +
                   " cycles) must not cost more than a memory fill (" +
                   std::to_string(config.lineFillCycles()) + " cycles)";
    }
    return "";
}

void
validateTimingConfig(const TimingConfig &config)
{
    std::string error = timingConfigError(config);
    if (!error.empty())
        CC_FATAL("bad timing config: ", error);
}

namespace {

// Validate before the member I-cache is built, so the user sees the
// timing-config error rather than a bare cache one.
const TimingConfig &
validated(const TimingConfig &config)
{
    validateTimingConfig(config);
    return config;
}

} // namespace

FetchTimer::FetchTimer(const TimingConfig &config)
    : config_(validated(config)), icache_(config.icache)
{
    if (config_.hasL2())
        l2_.emplace(config_.l2);
}

void
FetchTimer::reset()
{
    icache_.reset();
    if (l2_)
        l2_->reset();
    instructions_ = 0;
    items_ = 0;
    fetchedBytes_ = 0;
    stallIcacheMiss_ = 0;
    stallL2Miss_ = 0;
    stallExpansion_ = 0;
    stallRedirect_ = 0;
    expansionCacheHits_ = 0;
}

TimingReport
FetchTimer::report() const
{
    TimingReport report;
    report.instructions = instructions_;
    report.items = items_;
    report.fetchedBytes = fetchedBytes_;
    report.baseCycles =
        (instructions_ + config_.frontendWidth - 1) / config_.frontendWidth;
    report.stallIcacheMiss = stallIcacheMiss_;
    report.stallL2Miss = stallL2Miss_;
    report.stallExpansion = stallExpansion_;
    report.stallRedirect = stallRedirect_;
    report.expansionCacheHits = expansionCacheHits_;
    report.icache = icache_.stats();
    if (l2_)
        report.l2 = l2_->stats();
    return report;
}

std::string
TimingReport::toJson() const
{
    JsonWriter json;
    json.beginObject()
        .member("instructions", instructions)
        .member("items", items)
        .member("fetched_bytes", fetchedBytes)
        .member("cycles", cycles())
        .member("cpi", cpi())
        .member("base_cycles", baseCycles)
        .member("stall_icache_miss", stallIcacheMiss)
        .member("stall_l2_miss", stallL2Miss)
        .member("stall_expansion", stallExpansion)
        .member("stall_redirect", stallRedirect)
        .member("expansion_cache_hits", expansionCacheHits);
    json.key("icache")
        .beginObject()
        .member("accesses", icache.accesses)
        .member("misses", icache.misses)
        .member("line_fills", icache.lineFills)
        .member("evictions", icache.evictions)
        .member("miss_rate", icache.missRate())
        .endObject();
    json.key("l2")
        .beginObject()
        .member("accesses", l2.accesses)
        .member("misses", l2.misses)
        .member("line_fills", l2.lineFills)
        .member("evictions", l2.evictions)
        .member("miss_rate", l2.missRate())
        .endObject();
    json.endObject();
    return json.str();
}

std::vector<uint64_t>
profileExecutionCounts(const Program &program, uint64_t max_steps)
{
    std::vector<uint64_t> counts(program.text.size(), 0);
    Cpu(program).run(
        [&counts, &program](const FetchEvent &event) {
            ++counts[program.indexOfAddr(event.addr)];
        },
        max_steps);
    return counts;
}

} // namespace codecomp::timing
