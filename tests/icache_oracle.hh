/**
 * @file
 * Reference I-cache for the tests: the set-associative LRU model with
 * its index math written as integer division, the way it was before
 * ICache moved to shifts and masks. It shares only the config and
 * stats structs with the production model (cache/icache.hh), so the
 * shift/mask indexing is checked against it access for access.
 */

#ifndef CODECOMP_TESTS_ICACHE_ORACLE_HH
#define CODECOMP_TESTS_ICACHE_ORACLE_HH

#include <cstdint>
#include <vector>

#include "cache/icache.hh"

namespace codecomp::test {

class DivisionICache
{
  public:
    /** @p config must be valid (cache::cacheConfigError). */
    explicit DivisionICache(const cache::CacheConfig &config)
        : config_(config),
          ways_(static_cast<size_t>(config.numSets()) * config.ways)
    {
    }

    /** Probe the line containing @p addr; true on a hit. */
    bool
    touch(uint32_t addr)
    {
        uint32_t line = addr / config_.lineBytes;
        uint32_t set = line % config_.numSets();
        uint64_t tag = line / config_.numSets();

        Way *base = &ways_[static_cast<size_t>(set) * config_.ways];
        ++stats_.accesses;
        ++tick_;
        Way *victim = base;
        for (uint32_t w = 0; w < config_.ways; ++w) {
            if (base[w].tag == tag) {
                base[w].lastUse = tick_;
                return true;
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

    /** Touch every line of [@p addr, @p addr + @p bytes) (the end
     *  wraps in 32 bits, as in ICache::access); returns the number of
     *  lines missed. */
    unsigned
    access(uint32_t addr, uint32_t bytes)
    {
        uint32_t first_line = addr / config_.lineBytes;
        uint32_t last_line = (addr + bytes - 1) / config_.lineBytes;
        unsigned missed = 0;
        for (uint32_t line = first_line; line <= last_line; ++line)
            missed += !touch(line * config_.lineBytes);
        return missed;
    }

    const cache::CacheStats &stats() const { return stats_; }

  private:
    static constexpr uint64_t invalidTag = UINT64_MAX;

    struct Way
    {
        uint64_t tag = invalidTag;
        uint64_t lastUse = 0;
    };

    cache::CacheConfig config_;
    std::vector<Way> ways_;
    cache::CacheStats stats_;
    uint64_t tick_ = 0;
};

} // namespace codecomp::test

#endif // CODECOMP_TESTS_ICACHE_ORACLE_HH
