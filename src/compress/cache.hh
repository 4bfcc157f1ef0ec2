/**
 * @file
 * Content-addressed cache of the pipeline's Enumerate and Select
 * products, of finished images, and of built programs' content hashes,
 * shared by concurrent compressions of a job corpus.
 *
 * The farm (src/farm) compresses many (program, config) pairs at once;
 * sweeps revisit the same program under several schemes and strategies,
 * generated corpora contain outright duplicate programs, and a warm
 * farm run repeats every job of an earlier one. All four products are
 * deterministic pure functions of their keys, so caching them cannot
 * change any output image:
 *
 *   program hash = f(workload, scale, the tool's build-id)
 *   candidates   = f(program bytes, minEntryLen, maxEntryLen)
 *   selection    = f(program bytes, full compressor config)
 *   image        = f(program bytes, full compressor config, layout,
 *                    traffic profile)
 *
 * The last three keys are FNV-1a64 over the program's serialized bytes
 * combined with the config fields the stage depends on. The Program
 * kind maps a built-in workload to that hash without building it: its
 * key names the workload, the scale and the build-id of the executable
 * that would build it (the compiler is part of that executable, so a
 * new build is a new key). Candidate enumeration is
 * scheme-independent, so one enumeration serves all schemes and
 * strategies of a program -- the common sweep shape. The Image key is
 * the Select key plus the fields only the back end reads, so a layout
 * sweep shares one selection. Values are shared_ptr-to-const: readers
 * on any thread hold the product alive without copying it.
 *
 * Each key has one computer: a lookup that misses in memory and on
 * disk hands its caller a Claim, and other lookups of the key block
 * until the product is stored through it (a hit) or the claim is
 * dropped unstored, when one waiter takes the key over (a miss). So
 * the counts depend on the lookups, not on scheduling. Nothing is
 * evicted: a farm run (or one isolated worker) holds one cache for its
 * lifetime, and the cache keeps every product of that run.
 * A caller takes its claims in the order Program, Image, Select,
 * Enumerate and never looks up an earlier kind while it holds a later
 * one's claim: a total order, so no two callers can wait on each
 * other. (The farm stores or drops every Program claim before any job
 * takes an Image claim.) The mutex
 * guards the map and the counters; disk I/O runs outside it.
 *
 * A crash-safe persistent backing store sits under the in-memory map:
 * setDiskStore() points the cache at a directory where every product
 * is also written as one file -- writeFileAtomic around the sealed,
 * versioned and checksummed container of support/serialize.hh
 * (sealPayload / openSealed). In-memory misses fall back to disk, so a
 * warm directory survives process restarts (and is how the farm's
 * isolated workers share work). A corrupt, truncated, or
 * version-skewed file is detected by the checksum/structure checks
 * (for an image, also tryLoadImage's full validation), quarantined
 * (renamed *.quarantined), and silently recomputed: damage can
 * degrade throughput but can never alter a result.
 *
 * A PipelineCache is attached to a compression through
 * compressProgram (compressor.hh), which uses the Enumerate and Select
 * kinds; a null cache leaves the compression exactly as before. The
 * farm's runFarmJob (farm/farm.hh) looks up the Image kind around it,
 * and runFarm and the farm's worker look up the Program kind before
 * any job runs.
 */

#ifndef CODECOMP_COMPRESS_CACHE_HH
#define CODECOMP_COMPRESS_CACHE_HH

#include <array>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "compress/candidates.hh"
#include "compress/compressor.hh"
#include "compress/selection.hh"

namespace codecomp::compress {

/** The Image product: a finished image, its saveImage bytes and
 *  their FNV-1a64 digest (stored with the entry, so a hit does not
 *  hash the bytes again). One loaded from disk lacks the
 *  analysis-only fields a .cci omits. */
struct ImageProduct
{
    CompressedImage image;
    std::vector<uint8_t> bytes;
    uint64_t digest = 0; //!< fnv1a64(bytes)
};

/** The product of stored image @p bytes and their stored @p digest, or
 *  a LoadFailure if loadImage rejects them: the one loader of a disk
 *  Image entry and of an isolated farm worker's image. */
std::shared_ptr<const ImageProduct>
loadImageProduct(std::vector<uint8_t> bytes, uint64_t digest);

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
        uint64_t imageHits = 0;
        uint64_t imageMisses = 0;
        uint64_t programHits = 0;
        uint64_t programMisses = 0;
        uint64_t persistHits = 0;    //!< memory misses served from disk
        uint64_t persistMisses = 0;  //!< misses disk could not serve
        uint64_t persistStores = 0;  //!< entry files written
        uint64_t persistCorrupt = 0; //!< damaged files quarantined

        /** One counter: its report key and its member. */
        struct Field
        {
            const char *name;
            uint64_t Stats::*member;
        };

        /** The counters in their one fixed order, which is the farm
         *  worker result's byte layout and the order of the farm
         *  report's cache_stats keys. */
        static const std::array<Field, 12> fields;

        Stats &operator+=(const Stats &other);
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

    /** Key of the Image product: the Select key plus the fields only
     *  the back end reads -- the layout mode and, under HotCold, the
     *  traffic profile. An empty HotCold profile (the farm derives it
     *  from the program) is keyed as such, not by its counts. */
    static uint64_t imageKey(uint64_t programHash,
                             const CompressorConfig &config);

    /** Key of the Program product (a built-in workload's programHash):
     *  the workload name, its generator scale and @p toolStamp, the
     *  build-id of the executable whose compiler builds it
     *  (selfBuildId, support/subprocess.hh). */
    static uint64_t programKey(const std::string &workload, int scale,
                               const std::vector<uint8_t> &toolStamp);

    /** The entry file name of Program key @p key, for diagnostics. */
    static std::string programEntryName(uint64_t key);

    /** The duty to compute one key's product; destroying it unstored
     *  passes the key to one of its waiters. */
    class Claim
    {
      public:
        Claim() = default;
        Claim(const Claim &) = delete;
        Claim &operator=(const Claim &) = delete;
        ~Claim();

        explicit operator bool() const { return cache_ != nullptr; }

      private:
        friend class PipelineCache;
        PipelineCache *cache_ = nullptr;
        std::pair<uint8_t, uint64_t> key_; //!< (Kind, key)
    };

    /** The product stored for @p key, or null on a miss (counted),
     *  which hands the empty @p claim the key: store through it or
     *  destroy it. Blocks while another caller holds the key. */
    std::shared_ptr<const CandidateSet> findCandidates(uint64_t key,
                                                       Claim &claim);
    std::shared_ptr<const SelectProduct> findSelection(uint64_t key,
                                                       Claim &claim);
    std::shared_ptr<const ImageProduct> findImage(uint64_t key,
                                                  Claim &claim);
    std::optional<uint64_t> findProgram(uint64_t key, Claim &claim);

    /** Store the product of @p claim's key, release the claim and
     *  wake the key's waiters. */
    void storeCandidates(Claim &claim,
                         std::shared_ptr<const CandidateSet> candidates);
    void storeSelection(Claim &claim,
                        std::shared_ptr<const SelectProduct> selection);
    void storeImage(Claim &claim, std::shared_ptr<const ImageProduct> image);
    void storeProgram(Claim &claim, uint64_t programHash);

    /**
     * Back the cache with directory @p dir (created if absent). Every
     * store is also written as one sealed file via writeFileAtomic;
     * misses fall back to disk. If the directory cannot be created or
     * written the store is disabled with a warning --
     * persistence failures never fail a compression. Returns whether
     * the store is usable. Call it before the first lookup.
     */
    bool setDiskStore(const std::string &dir);

    Stats stats() const;

  private:
    enum class Kind : uint8_t {
        Enumerate = 1,
        Select = 2,
        Image = 3,
        Program = 4,
    };
    using EntryKey = std::pair<uint8_t, uint64_t>; //!< (Kind, key)

    /** A product, or an entry whose claim is still out (all empty). */
    struct Entry
    {
        std::shared_ptr<const CandidateSet> candidates;
        std::shared_ptr<const SelectProduct> selection;
        std::shared_ptr<const ImageProduct> image;
        std::optional<uint64_t> programHash;

        bool ready() const
        {
            return candidates || selection || image || programHash;
        }
    };

    /** The shared bodies of the find* and store* methods. */
    Entry find(Kind kind, uint64_t key, Claim &claim);
    void store(Claim &claim, Entry entry);

    /** Fill @p claim's entry, release it and wake its waiters. */
    void publishLocked(Claim &claim, Entry entry);

    /** Disk-store I/O, without the lock; load returns the persist
     *  counter to bump (null: no store). */
    std::string entryPath(Kind kind, uint64_t key) const;
    bool persist(Kind kind, uint64_t key, const Entry &entry) const;
    uint64_t Stats::*load(Kind kind, uint64_t key, Entry &out) const;

    mutable std::mutex mutex_;
    std::condition_variable stored_; //!< an entry filled or abandoned
    std::map<EntryKey, Entry> entries_;
    std::string diskDir_; //!< "" = no persistent store
    Stats stats_;
};

} // namespace codecomp::compress

#endif // CODECOMP_COMPRESS_CACHE_HH
