/**
 * @file
 * Instruction-cache model.
 *
 * The paper motivates compression partly through the memory system:
 * "Reducing program size is one way to reduce instruction cache misses
 * and achieve higher performance [Chen97b]". This set-associative,
 * LRU, configurable-line cache model is driven by the fetch streams of
 * both processors (Cpu fetches 4-byte instructions; CompressedCpu
 * fetches variable-size items from the compressed image), so the
 * locality benefit of compressed code can be measured directly
 * (bench/ext_icache) and priced in cycles (src/timing).
 */

#ifndef CODECOMP_CACHE_ICACHE_HH
#define CODECOMP_CACHE_ICACHE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace codecomp::cache {

struct CacheConfig
{
    uint32_t capacityBytes = 1024;
    uint32_t lineBytes = 32;
    uint32_t ways = 1; //!< 1 = direct-mapped

    /** Only meaningful for a valid config (see cacheConfigError):
     *  validation rejects geometries where this division truncates. */
    uint32_t numSets() const
    {
        return capacityBytes / (lineBytes * ways);
    }
};

/**
 * Human-readable reason @p config cannot describe a cache, or "" if it
 * is valid: power-of-two line size >= 4, at least one way, a capacity
 * that is a whole (power-of-two, non-zero) number of sets. ICache
 * raises a catchable fatal on a non-empty answer; CLI front ends check
 * it first so the user gets a usage error, not an abort.
 */
std::string cacheConfigError(const CacheConfig &config);

/** CC_FATAL (catchable) unless cacheConfigError(config) is empty. */
void validateCacheConfig(const CacheConfig &config);

struct CacheStats
{
    uint64_t accesses = 0;
    uint64_t misses = 0;
    uint64_t lineFills = 0;  //!< lines brought in (== misses here)
    uint64_t evictions = 0;  //!< fills that displaced a resident line

    double
    missRate() const
    {
        return accesses == 0
                   ? 0.0
                   : static_cast<double>(misses) / accesses;
    }

    void reset() { *this = CacheStats{}; }

    bool operator==(const CacheStats &) const = default;
};

/** Set-associative LRU instruction cache. */
class ICache
{
  public:
    /** Catchable fatal if the geometry is invalid (cacheConfigError). */
    explicit ICache(const CacheConfig &config);

    /**
     * Access @p bytes bytes starting at @p addr (an access that spans
     * a line boundary touches both lines, like a real fetch unit's
     * sequential refill). Returns the number of lines missed (0..2 for
     * any fetch no larger than a line), so timing models can charge
     * each fill.
     */
    unsigned access(uint32_t addr, uint32_t bytes);

    /** Probe a single line containing @p addr; true on a hit. */
    bool touch(uint32_t addr) { return touchLine(addr >> lineShift_); }

    /** Probe line number @p line (an address shifted right by
     *  lineShift()); true on a hit. */
    bool touchLine(uint32_t line);

    /** log2 of the line size: addr >> lineShift() is the line number. */
    uint32_t lineShift() const { return lineShift_; }

    const CacheStats &stats() const { return stats_; }
    const CacheConfig &config() const { return config_; }
    void reset();

  private:
    struct Way
    {
        uint64_t tag = invalidTag;
        uint64_t lastUse = 0;
    };

    /** 32-bit addresses make every real tag < 2^32, so this sentinel
     *  can never collide with a resident line. */
    static constexpr uint64_t invalidTag = UINT64_MAX;

    CacheConfig config_;
    // Validation makes the line size and the set count powers of two,
    // so the index math is shifts and masks, computed once here.
    uint32_t lineShift_; //!< log2(lineBytes)
    uint32_t setMask_;   //!< numSets - 1: line & setMask_ is the set
    uint32_t setShift_;  //!< log2(numSets): line >> setShift_ is the tag
    std::vector<Way> ways_; //!< numSets * ways, row-major by set
    CacheStats stats_;
    uint64_t tick_ = 0;
    /** The line touched last; no line number reaches this sentinel,
     *  since addresses are 32 bits and lines at least 4 bytes. */
    uint32_t lastLine_ = UINT32_MAX;
};

inline bool
ICache::touchLine(uint32_t line)
{
    // A fetch stream touches the same line many times in a row. The
    // line touched last is already the most recently used of its set,
    // so a repeat is a hit that leaves the LRU order as it is: count
    // the access and skip the probe.
    if (line == lastLine_) {
        ++stats_.accesses;
        return true;
    }
    lastLine_ = line;
    Way *base = &ways_[static_cast<size_t>(line & setMask_) * config_.ways];
    uint64_t tag = line >> setShift_;
    ++stats_.accesses;
    ++tick_;

    Way *victim = base;
    for (uint32_t w = 0; w < config_.ways; ++w) {
        if (base[w].tag == tag) {
            base[w].lastUse = tick_;
            return true; // hit
        }
        if (base[w].lastUse < victim->lastUse)
            victim = &base[w];
    }
    ++stats_.misses;
    ++stats_.lineFills;
    if (victim->tag != invalidTag)
        ++stats_.evictions;
    victim->tag = tag;
    victim->lastUse = tick_;
    return false;
}

} // namespace codecomp::cache

#endif // CODECOMP_CACHE_ICACHE_HH
