/**
 * @file
 * Content-addressed cache of the pipeline's Enumerate and Select
 * products, shared by concurrent compressions of a job corpus.
 *
 * The farm (src/farm) compresses many (program, config) pairs at once;
 * sweeps revisit the same program under several schemes and strategies,
 * and generated corpora contain outright duplicate programs. Both
 * stages are deterministic pure functions of their keys, so caching
 * their results cannot change any output image:
 *
 *   candidates = f(program bytes, minEntryLen, maxEntryLen)
 *   selection  = f(program bytes, full compressor config)
 *
 * Keys are FNV-1a64 over the program's serialized bytes combined with
 * the config fields the stage depends on. Candidate enumeration is
 * scheme-independent, so one enumeration serves all schemes and
 * strategies of a program -- the common sweep shape. Values are
 * shared_ptr-to-const: readers on any thread hold the product alive
 * without copying it; lookups and stores take one mutex (the products
 * are large and computed rarely, so contention is negligible next to
 * the work saved).
 *
 * Two robustness layers sit on top of the in-memory map:
 *
 *  - a bounded footprint: setCapacity() caps the entry count and/or
 *    approximate byte size, with least-recently-used eviction (the
 *    Stats::evictions counter reports how often the cap bit);
 *  - a crash-safe persistent backing store: setDiskStore() points the
 *    cache at a directory where every product is also written as one
 *    file -- temp-file + atomic rename, a versioned header, and an
 *    FNV-1a64 payload checksum. In-memory misses fall back to disk,
 *    so a warm directory survives process restarts (and is how the
 *    farm's isolated workers share work). A corrupt, truncated, or
 *    version-skewed file is detected by the checksum/structure checks,
 *    quarantined (renamed *.quarantined), and silently recomputed:
 *    damage can degrade throughput but can never alter a result.
 *
 * A PipelineCache is attached to a compression through
 * PipelineContext::cache (pipeline.hh); a null cache leaves the
 * pipeline exactly as before.
 */

#ifndef CODECOMP_COMPRESS_CACHE_HH
#define CODECOMP_COMPRESS_CACHE_HH

#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "compress/candidates.hh"
#include "compress/compressor.hh"
#include "compress/selection.hh"

namespace codecomp::compress {

/** A cached Select product: the selection plus the strategy's round
 *  count (so cached stats report the rounds the original run took). */
struct CachedSelection
{
    SelectionResult selection;
    uint32_t rounds = 1;
};

class PipelineCache
{
  public:
    /** Hit/miss counters per cached stage (monotonic; thread-safe). */
    struct Stats
    {
        uint64_t enumHits = 0;
        uint64_t enumMisses = 0;
        uint64_t selectHits = 0;
        uint64_t selectMisses = 0;
        uint64_t evictions = 0;      //!< in-memory entries dropped by cap
        uint64_t persistHits = 0;    //!< memory misses served from disk
        uint64_t persistMisses = 0;  //!< misses disk could not serve
        uint64_t persistStores = 0;  //!< entry files written
        uint64_t persistCorrupt = 0; //!< damaged files quarantined
    };

    /** FNV-1a64 over the program's serialized bytes -- the
     *  content-identity half of every cache key. */
    static uint64_t programHash(const Program &program);

    /** Key of the Enumerate product: program content plus the entry
     *  length window (the only config enumeration reads). */
    static uint64_t enumerateKey(uint64_t programHash,
                                 const CompressorConfig &config);

    /** Key of the Select product: program content plus every config
     *  field that can steer selection. */
    static uint64_t selectKey(uint64_t programHash,
                              const CompressorConfig &config);

    /** Cached candidates for @p key, or null on a miss (counted). */
    std::shared_ptr<const CandidateSet> findCandidates(uint64_t key);

    /** Cached selection for @p key, or null on a miss (counted). */
    std::shared_ptr<const CachedSelection> findSelection(uint64_t key);

    /** Store a product; the first store for a key wins and later ones
     *  are dropped (concurrent fills compute identical values). */
    void storeCandidates(uint64_t key,
                         std::shared_ptr<const CandidateSet> candidates);
    void storeSelection(uint64_t key,
                        std::shared_ptr<const CachedSelection> selection);

    /**
     * Bound the in-memory footprint: at most @p maxEntries products
     * and/or @p maxBytes approximate payload bytes (0 = unlimited).
     * When a store exceeds a cap the least-recently-used products are
     * evicted (Stats::evictions). Disk copies are never evicted, so a
     * capped cache backed by a store degrades to disk reads, not to
     * recomputation.
     */
    void setCapacity(size_t maxEntries, uint64_t maxBytes);

    /**
     * Back the cache with directory @p dir (created if absent). Every
     * store is also written as one checksummed file via temp-file +
     * atomic rename; misses fall back to disk. If the directory cannot
     * be created or written the store is disabled with a warning --
     * persistence failures never fail a compression. Returns whether
     * the store is usable.
     */
    bool setDiskStore(const std::string &dir);

    const std::string &diskDir() const { return diskDir_; }

    /** In-memory product count (after eviction), for tests. */
    size_t entryCount() const;

    Stats stats() const;

  private:
    enum class Kind : uint8_t { Enumerate = 1, Select = 2 };
    using EntryKey = std::pair<uint8_t, uint64_t>; //!< (Kind, key)

    struct Entry
    {
        std::shared_ptr<const CandidateSet> candidates;
        std::shared_ptr<const CachedSelection> selection;
        uint64_t bytes = 0;
        std::list<EntryKey>::iterator lruIt;
    };

    /** Insert (or refresh) under the lock, applying the caps. */
    void insertLocked(Kind kind, uint64_t key, Entry entry);
    void touchLocked(Entry &entry, EntryKey entryKey);
    void evictLocked();

    /** Disk-store paths and I/O; all called under the lock. */
    std::string entryPath(Kind kind, uint64_t key) const;
    void persistLocked(Kind kind, uint64_t key, const Entry &entry);
    bool loadFromDiskLocked(Kind kind, uint64_t key, Entry &out);
    void quarantineLocked(const std::string &path);

    mutable std::mutex mutex_;
    std::map<EntryKey, Entry> entries_;
    std::list<EntryKey> lru_; //!< front = most recently used
    uint64_t totalBytes_ = 0;
    size_t maxEntries_ = 0;  //!< 0 = unlimited
    uint64_t maxBytes_ = 0;  //!< 0 = unlimited
    std::string diskDir_;    //!< "" = no persistent store
    Stats stats_;
};

/** @{ Serialized form of the cached products -- the payload of the
 *  persistent store's entry files (format in cache.cc). Exposed for
 *  the corruption tests, which build damaged payloads on purpose. */
std::vector<uint8_t> serializeCandidates(const CandidateSet &candidates);
std::vector<uint8_t> serializeSelection(const CachedSelection &selection);
/** @} */

} // namespace codecomp::compress

#endif // CODECOMP_COMPRESS_CACHE_HH
