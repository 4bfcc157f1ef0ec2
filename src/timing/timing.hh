/**
 * @file
 * Cycle-approximate timing model: turns the fetch/retire streams of
 * both processors into cycles, so compression can be evaluated on the
 * size-vs-speed plane instead of static size alone (the paper stops at
 * "Reducing program size is one way to reduce instruction cache misses
 * and achieve higher performance [Chen97b]"; this subsystem puts a
 * number on it).
 *
 * The model is additive, in-order, and deliberately simple (DESIGN.md
 * section 9): a front end that retires up to `frontendWidth`
 * instructions per cycle, an I-cache whose line fills stall the front
 * end (optionally backed by a second-level cache, TimingConfig::l2),
 * a dictionary expander that streams entry words at a fixed rate,
 * and a fixed redirect penalty per taken branch. Cycles decompose
 * exactly into base + icache-miss + l2-miss + expansion + redirect
 * stalls, so a
 * TimingReport is both a total and an attribution. Everything is
 * deterministic: the same image and config produce bit-identical
 * reports on every run and every build.
 */

#ifndef CODECOMP_TIMING_TIMING_HH
#define CODECOMP_TIMING_TIMING_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cache/icache.hh"
#include "decompress/fetch.hh"
#include "program/program.hh"

namespace codecomp::timing {

/** Machine parameters of the model; see timingConfigError for the
 *  validity rules. */
struct TimingConfig
{
    /** Instructions retired per cycle when nothing stalls (1..16). */
    uint32_t frontendWidth = 1;

    /** I-cache geometry; validated via cache::cacheConfigError. */
    cache::CacheConfig icache{2048, 32, 1};

    /** Lead-off latency of one line fill, cycles. */
    uint32_t missPenaltyCycles = 10;

    /** Streaming cost of a fill: cycles per 4-byte word of the line,
     *  so a fill costs missPenaltyCycles + lineBytes/4 * this. */
    uint32_t memoryCyclesPerWord = 1;

    /** Dictionary-expansion cost: cycles per expanded word beyond the
     *  first (the first word issues in the item's own retire slot). */
    uint32_t expansionCyclesPerWord = 1;

    /** Front-end redirect cost per taken branch, cycles. */
    uint32_t redirectPenaltyCycles = 2;

    /** Capacity of the modeled pre-expanded decode cache, in dictionary
     *  ranks: codeword items with rank < decodedCacheRanks stream their
     *  entry from pre-decoded storage beside the fetch unit and incur
     *  no expansion stall. Ranks are frequency-ordered, so "the first N
     *  ranks" is exactly "the N hottest entries", and the set is fixed
     *  per image -- images are immutable post-load, so the modeled
     *  cache needs no invalidation or replacement. 0 (default) models
     *  no cache: every expansion pays expansionCyclesPerWord. */
    uint32_t decodedCacheRanks = 0;

    /** Optional second-level I-cache geometry. Zero capacity (the
     *  default) disables the L2 and the model is bit-identical to the
     *  single-level one. When enabled the hierarchy is inclusive: an L1
     *  miss probes the L2 at L1-line granularity; an L2 hit refills the
     *  L1 line at l2FillCycles(), an L2 miss goes to memory at
     *  lineFillCycles() (critical-line-first, so the memory fill is
     *  charged once at L1-line granularity). Validation requires the L2
     *  to be at least as large as the L1, its line at least the L1
     *  line, and an L2 hit to cost no more than a memory fill -- which
     *  makes "adding an L2 never increases cycles" an exact property,
     *  not a tendency: the L1 miss pattern is independent of the L2, so
     *  every miss is charged at most its single-level cost. */
    cache::CacheConfig l2{0, 32, 1};

    /** Lead-off latency of an L1 refill served by the L2, cycles. */
    uint32_t l2HitPenaltyCycles = 4;

    /** Streaming cost of an L2-sourced refill: cycles per 4-byte word
     *  of the L1 line being filled. */
    uint32_t l2CyclesPerWord = 1;

    /** True when a second cache level is configured. */
    bool hasL2() const { return l2.capacityBytes != 0; }

    /** Total stall charged per missed line. */
    uint64_t
    lineFillCycles() const
    {
        return missPenaltyCycles +
               static_cast<uint64_t>(memoryCyclesPerWord) *
                   (icache.lineBytes / 4);
    }

    /** Total stall charged per L1 refill that hits in the L2. */
    uint64_t
    l2FillCycles() const
    {
        return l2HitPenaltyCycles +
               static_cast<uint64_t>(l2CyclesPerWord) *
                   (icache.lineBytes / 4);
    }
};

/**
 * Human-readable reason @p config cannot drive the model, or "" if it
 * is valid. FetchTimer raises a catchable fatal on a non-empty answer;
 * CLI front ends (cctime) check it first so the user gets a usage
 * error, not an abort.
 */
std::string timingConfigError(const TimingConfig &config);

/** CC_FATAL (catchable) unless timingConfigError(config) is empty. */
void validateTimingConfig(const TimingConfig &config);

/** The model's verdict on one run: cycles plus their attribution. */
struct TimingReport
{
    uint64_t instructions = 0; //!< architectural instructions retired
    uint64_t items = 0;        //!< fetch-unit items consumed
    uint64_t fetchedBytes = 0; //!< bytes moved by the fetch unit

    uint64_t baseCycles = 0;        //!< ceil(instructions / width)
    uint64_t stallIcacheMiss = 0;   //!< L1 refills (from L2 or memory)
    uint64_t stallL2Miss = 0;       //!< memory fills behind an L2 miss
    uint64_t stallExpansion = 0;    //!< dictionary-expansion stalls
    uint64_t stallRedirect = 0;     //!< taken-branch redirects

    /** Multi-word codeword items whose expansion stall was absorbed by
     *  the pre-expanded decode cache (decodedCacheRanks). */
    uint64_t expansionCacheHits = 0;

    cache::CacheStats icache;  //!< accesses/misses/fills/evictions
    cache::CacheStats l2;      //!< all zero when no L2 is configured

    uint64_t
    cycles() const
    {
        return baseCycles + stallIcacheMiss + stallL2Miss +
               stallExpansion + stallRedirect;
    }

    double
    cpi() const
    {
        return instructions == 0
                   ? 0.0
                   : static_cast<double>(cycles()) / instructions;
    }

    /** Serialize every field (support/json); bit-identical for equal
     *  reports, so determinism tests can compare strings. */
    std::string toJson() const;

    bool operator==(const TimingReport &) const = default;
};

/**
 * Consumes a processor's fetch stream (fetch.hh) and charges cycles.
 * Run the program with the timer behind its fetch observer,
 * `cpu.run([&timer](const FetchEvent &e) { timer.onFetch(e); })`, then
 * read report(). Native 4-byte fetches and variable-size codeword
 * items go through the same accounting, so compressed code's density
 * advantage (fewer line fills) and its expansion cost are both priced.
 */
class FetchTimer
{
  public:
    /** Catchable fatal if @p config is invalid (timingConfigError). */
    explicit FetchTimer(const TimingConfig &config);

    /** Charge one fetch-unit item. Inline, so a run-loop observer
     *  that fans one event out to several timers compiles into the
     *  processor's step loop. */
    void onFetch(const FetchEvent &event);

    /** Forget everything, including cache contents. */
    void reset();

    TimingReport report() const;

    const TimingConfig &config() const { return config_; }
    const cache::ICache &icache() const { return icache_; }

    /** The L2 model, or nullptr when none is configured. */
    const cache::ICache *l2() const { return l2_ ? &*l2_ : nullptr; }

  private:
    TimingConfig config_;
    cache::ICache icache_;
    std::optional<cache::ICache> l2_;
    uint64_t instructions_ = 0;
    uint64_t items_ = 0;
    uint64_t fetchedBytes_ = 0;
    uint64_t stallIcacheMiss_ = 0;
    uint64_t stallL2Miss_ = 0;
    uint64_t stallExpansion_ = 0;
    uint64_t stallRedirect_ = 0;
    uint64_t expansionCacheHits_ = 0;
};

inline void
FetchTimer::onFetch(const FetchEvent &event)
{
    ++items_;
    instructions_ += event.retired;
    fetchedBytes_ += event.bytes;
    // Walk the L1 lines of the access explicitly (same line set and
    // stats as ICache::access) so each missed line can be attributed
    // to the level that serves the refill.
    uint32_t shift = icache_.lineShift();
    uint32_t first_line = event.addr >> shift;
    uint32_t last_line =
        (event.addr + (event.bytes ? event.bytes - 1 : 0)) >> shift;
    for (uint32_t line = first_line; line <= last_line; ++line) {
        if (icache_.touchLine(line))
            continue;
        if (!l2_) {
            stallIcacheMiss_ += config_.lineFillCycles();
        } else if (l2_->touch(line << shift)) {
            stallIcacheMiss_ += config_.l2FillCycles();
        } else {
            // Memory refills both levels; charged once, at L1-line
            // granularity (critical-line-first for wider L2 lines).
            stallL2Miss_ += config_.lineFillCycles();
        }
    }
    if (event.isCodeword && event.retired > 1) {
        // A pre-expanded entry streams from the decode cache in the
        // fetch slot itself; only uncached ranks pay the expander.
        if (event.rank < config_.decodedCacheRanks)
            ++expansionCacheHits_;
        else
            stallExpansion_ += static_cast<uint64_t>(
                                   config_.expansionCyclesPerWord) *
                               (event.retired - 1);
    }
    if (event.taken)
        stallRedirect_ += config_.redirectPenaltyCycles;
}

/**
 * Per-instruction execution counts from a profiling run of the plain
 * processor (index = original instruction index). Feeds the
 * traffic-weighted selection strategy (compress/strategy.hh).
 */
std::vector<uint64_t> profileExecutionCounts(
    const Program &program, uint64_t max_steps = 1ull << 28);

} // namespace codecomp::timing

#endif // CODECOMP_TIMING_TIMING_HH
