#include "compress/cache.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <system_error>

#include "compress/codec.hh"
#include "compress/objfile.hh"
#include "support/logging.hh"
#include "support/serialize.hh"

namespace codecomp::compress {

namespace {

/** Fold @p fields into @p seed with FNV-1a64 over their bytes. */
uint64_t
hashFields(uint64_t seed, const std::vector<uint64_t> &fields)
{
    ByteSink sink;
    sink.put64(seed);
    for (uint64_t field : fields)
        sink.put64(field);
    return fnv1a64(sink.bytes());
}

/**
 * A persistent entry file is the sealed container of
 * support/serialize.hh (magic "CCCH", kStoreVersion) around this
 * payload, big-endian:
 *
 *   u8   kind    (1 = Enumerate, 2 = Select, 3 = Image, 4 = Program)
 *   u64  key     (must match the file's own name)
 *   ...  product (putCandidates / putSelection / for an image its u64
 *                 digest and then the saveImage bytes as a blob / the
 *                 u64 program hash)
 *
 * kStoreVersion is bumped when the payload shape changes: version 2
 * stored candidate sets as CSR arrays, version 3 moved kind and key
 * into the checksummed payload, version 4 added the Image kind,
 * version 5 the image digest and the Program kind.
 * Anything that deviates -- container damage, kind, key, or a product
 * that fails structural parsing (tryLoadImage for an image) --
 * quarantines the file and reads as a miss.
 */
constexpr uint32_t kStoreMagic = 0x43434348; // "CCCH"
constexpr uint32_t kStoreVersion = 5;

using Stats = PipelineCache::Stats;

/** Per kind (index = Kind): entry file prefix, hit and miss counter. */
struct KindInfo
{
    const char *prefix;
    uint64_t Stats::*hits;
    uint64_t Stats::*misses;
};
constexpr KindInfo kindInfo[] = {
    {nullptr, nullptr, nullptr},
    {"enum", &Stats::enumHits, &Stats::enumMisses},
    {"sel", &Stats::selectHits, &Stats::selectMisses},
    {"img", &Stats::imageHits, &Stats::imageMisses},
    {"prog", &Stats::programHits, &Stats::programMisses},
};

/** The entry file name of (@p prefix, @p key). */
std::string
entryName(const char *prefix, uint64_t key)
{
    char name[40];
    std::snprintf(name, sizeof(name), "%s-%016llx.cce", prefix,
                  static_cast<unsigned long long>(key));
    return name;
}

/** A u32 count followed by that many u32 values. */
std::vector<uint32_t>
getWords(ByteSource &source)
{
    std::vector<uint32_t> words(source.get32());
    for (uint32_t &word : words)
        word = source.get32();
    return words;
}

void
putWords(ByteSink &sink, const std::vector<uint32_t> &words)
{
    sink.put32(static_cast<uint32_t>(words.size()));
    for (uint32_t word : words)
        sink.put32(word);
}

/** Parse the CSR arrays of putCandidates, checking that every
 *  view stays inside them so a parsed set is safe to select over. */
CandidateSet
parseCandidates(ByteSource &source)
{
    source.setContext("cached candidate set");
    CandidateSet set;
    set.text = getWords(source);
    std::vector<uint32_t> lengths = getWords(source);
    std::vector<uint32_t> ends = getWords(source);
    set.positions = getWords(source);
    if (lengths.size() != ends.size())
        throw LoadFailure({LoadStatus::BadValue, source.pos(),
                           "cached candidate set",
                           "length/offset count mismatch"});
    set.candidates.resize(lengths.size());
    uint32_t begin = 0;
    for (size_t i = 0; i < lengths.size(); ++i) {
        Candidate &cand = set.candidates[i];
        cand.len = lengths[i];
        cand.posBegin = begin;
        cand.posEnd = ends[i];
        if (cand.len == 0 || cand.posEnd <= begin ||
            cand.posEnd > set.positions.size())
            throw LoadFailure({LoadStatus::BadValue, source.pos(),
                               "cached candidate set",
                               "bad candidate view"});
        cand.firstPos = set.positions[begin];
        for (uint32_t pos : set.positionsOf(cand))
            if (static_cast<uint64_t>(pos) + cand.len > set.text.size())
                throw LoadFailure({LoadStatus::BadValue, source.pos(),
                                   "cached candidate set",
                                   "occurrence outside .text"});
        // Derived, not stored, so the payload is unchanged.
        cand.count = standaloneCount(set.positionsOf(cand), cand.len);
        begin = cand.posEnd;
    }
    if (begin != set.positions.size())
        throw LoadFailure({LoadStatus::TrailingBytes, source.pos(),
                           "cached candidate set",
                           "unreferenced occurrences"});
    return set;
}

SelectProduct
parseSelection(ByteSource &source)
{
    source.setContext("cached selection");
    SelectProduct cached;
    cached.selection.dict.entries.resize(source.get32());
    for (auto &entry : cached.selection.dict.entries) {
        entry.resize(source.get32());
        for (isa::Word &word : entry)
            word = source.get32();
    }
    cached.selection.placements.resize(source.get32());
    for (Placement &p : cached.selection.placements) {
        p.start = source.get32();
        p.length = source.get32();
        p.entryId = source.get32();
    }
    cached.selection.useCount.resize(source.get32());
    for (uint32_t &count : cached.selection.useCount)
        count = source.get32();
    cached.rounds = source.get32();
    return cached;
}

void
putCandidates(ByteSink &sink, const CandidateSet &candidates)
{
    // The CSR arrays: .text, then per candidate its length and the end
    // of its occurrence list (each list starts where the previous one
    // ends, and its first entry is the candidate's first occurrence),
    // then the occurrence lists.
    std::vector<uint32_t> lengths, ends;
    lengths.reserve(candidates.size());
    ends.reserve(candidates.size());
    for (const Candidate &cand : candidates) {
        lengths.push_back(cand.len);
        ends.push_back(cand.posEnd);
    }
    putWords(sink, candidates.text);
    putWords(sink, lengths);
    putWords(sink, ends);
    putWords(sink, candidates.positions);
}

void
putSelection(ByteSink &sink, const SelectProduct &cached)
{
    sink.put32(
        static_cast<uint32_t>(cached.selection.dict.entries.size()));
    for (const auto &entry : cached.selection.dict.entries) {
        sink.put32(static_cast<uint32_t>(entry.size()));
        for (isa::Word word : entry)
            sink.put32(word);
    }
    sink.put32(static_cast<uint32_t>(cached.selection.placements.size()));
    for (const Placement &p : cached.selection.placements) {
        sink.put32(p.start);
        sink.put32(p.length);
        sink.put32(p.entryId);
    }
    sink.put32(static_cast<uint32_t>(cached.selection.useCount.size()));
    for (uint32_t count : cached.selection.useCount)
        sink.put32(count);
    sink.put32(cached.rounds);
}

} // namespace

std::shared_ptr<const ImageProduct>
loadImageProduct(std::vector<uint8_t> bytes, uint64_t digest)
{
    CompressedImage image = loadImage(bytes);
    return std::make_shared<const ImageProduct>(
        ImageProduct{std::move(image), std::move(bytes), digest});
}

const std::array<PipelineCache::Stats::Field, 12>
    PipelineCache::Stats::fields = {{
        {"enum_hits", &Stats::enumHits},
        {"enum_misses", &Stats::enumMisses},
        {"select_hits", &Stats::selectHits},
        {"select_misses", &Stats::selectMisses},
        {"image_hits", &Stats::imageHits},
        {"image_misses", &Stats::imageMisses},
        {"program_hits", &Stats::programHits},
        {"program_misses", &Stats::programMisses},
        {"persist_hits", &Stats::persistHits},
        {"persist_misses", &Stats::persistMisses},
        {"persist_stores", &Stats::persistStores},
        {"persist_corrupt", &Stats::persistCorrupt},
    }};

PipelineCache::Stats &
PipelineCache::Stats::operator+=(const Stats &other)
{
    for (const Field &field : fields)
        this->*field.member += other.*field.member;
    return *this;
}

uint64_t
PipelineCache::programHash(const Program &program)
{
    // The serialized form covers everything a compression can read:
    // text, data, relocations, symbols, entry point.
    return fnv1a64(saveProgram(program));
}

uint64_t
PipelineCache::enumerateKey(uint64_t programHash,
                            const CompressorConfig &config)
{
    // Enumeration walks basic blocks collecting sequences of
    // 1..maxEntryLen instructions; nothing else in the config matters.
    // (minEntryLen is a GreedyConfig field the context derives as 1;
    // keyed here so a future knob cannot silently alias.)
    return hashFields(programHash, {1u, config.maxEntryLen});
}

uint64_t
PipelineCache::selectKey(uint64_t programHash,
                         const CompressorConfig &config)
{
    // Selection reads maxEntries clipped to the scheme's codeword
    // budget (PipelineContext), and a farm worker's spec carries it
    // clipped (writeJobSpec): key the clipped value so both hit.
    uint32_t maxEntries = std::min(
        config.maxEntries, schemeParams(config.scheme).maxCodewords);
    return hashFields(programHash,
                      {static_cast<uint64_t>(config.scheme), maxEntries,
                       config.maxEntryLen,
                       config.assumedCodewordNibbles,
                       static_cast<uint64_t>(config.strategy),
                       config.refitMaxRounds});
}

uint64_t
PipelineCache::imageKey(uint64_t programHash,
                        const CompressorConfig &config)
{
    // Layout reads the profile only under HotCold. There an empty
    // profile is derived from the program (runFarmJob), so it is a
    // function of programHash: key it apart from any given profile.
    uint64_t hotCold = config.layout == LayoutMode::HotCold;
    uint64_t derived = hotCold && config.trafficProfile.empty();
    uint64_t profile =
        hotCold && !derived
            ? hashFields(config.trafficProfile.size(),
                         config.trafficProfile)
            : 0;
    return hashFields(selectKey(programHash, config),
                      {static_cast<uint64_t>(config.layout), derived,
                       profile});
}

uint64_t
PipelineCache::programKey(const std::string &workload, int scale,
                          const std::vector<uint8_t> &toolStamp)
{
    ByteSink sink;
    sink.putString(workload);
    sink.put32(static_cast<uint32_t>(scale));
    sink.putBlob(toolStamp);
    return fnv1a64(sink.bytes());
}

std::string
PipelineCache::programEntryName(uint64_t key)
{
    return entryName(
        kindInfo[static_cast<uint8_t>(Kind::Program)].prefix, key);
}

PipelineCache::Entry
PipelineCache::find(Kind kind, uint64_t key, Claim &claim)
{
    CC_ASSERT(!claim, "a claim holds one key");
    const KindInfo &info = kindInfo[static_cast<uint8_t>(kind)];
    EntryKey entryKey{static_cast<uint8_t>(kind), key};
    {
        std::unique_lock<std::mutex> lock(mutex_);
        auto it = entries_.end();
        stored_.wait(lock, [&] {
            it = entries_.find(entryKey);
            return it == entries_.end() || it->second.ready();
        });
        if (it != entries_.end()) {
            ++(stats_.*info.hits);
            return it->second;
        }
        entries_.emplace(entryKey, Entry{});
        claim.cache_ = this;
        claim.key_ = entryKey;
    }
    // The caller owns the key now: read the disk without the lock while
    // the key's other callers wait (a throw abandons the claim).
    Entry loaded;
    uint64_t Stats::*persisted = load(kind, key, loaded);
    std::lock_guard<std::mutex> lock(mutex_);
    if (persisted)
        ++(stats_.*persisted);
    if (!loaded.ready()) {
        ++(stats_.*info.misses);
        return {};
    }
    ++(stats_.*info.hits);
    publishLocked(claim, loaded);
    return loaded;
}

std::shared_ptr<const CandidateSet>
PipelineCache::findCandidates(uint64_t key, Claim &claim)
{
    return find(Kind::Enumerate, key, claim).candidates;
}

std::shared_ptr<const SelectProduct>
PipelineCache::findSelection(uint64_t key, Claim &claim)
{
    return find(Kind::Select, key, claim).selection;
}

std::shared_ptr<const ImageProduct>
PipelineCache::findImage(uint64_t key, Claim &claim)
{
    return find(Kind::Image, key, claim).image;
}

std::optional<uint64_t>
PipelineCache::findProgram(uint64_t key, Claim &claim)
{
    return find(Kind::Program, key, claim).programHash;
}

void
PipelineCache::store(Claim &claim, Entry entry)
{
    CC_ASSERT(claim.cache_ == this, "store without a claim on the key");
    bool persisted = persist(static_cast<Kind>(claim.key_.first),
                             claim.key_.second, entry);
    std::lock_guard<std::mutex> lock(mutex_);
    if (persisted)
        ++stats_.persistStores;
    publishLocked(claim, std::move(entry));
}

void
PipelineCache::storeCandidates(
    Claim &claim, std::shared_ptr<const CandidateSet> candidates)
{
    Entry entry;
    entry.candidates = std::move(candidates);
    store(claim, std::move(entry));
}

void
PipelineCache::storeSelection(Claim &claim,
                              std::shared_ptr<const SelectProduct> selection)
{
    Entry entry;
    entry.selection = std::move(selection);
    store(claim, std::move(entry));
}

void
PipelineCache::storeImage(Claim &claim,
                          std::shared_ptr<const ImageProduct> image)
{
    Entry entry;
    entry.image = std::move(image);
    store(claim, std::move(entry));
}

void
PipelineCache::storeProgram(Claim &claim, uint64_t programHash)
{
    Entry entry;
    entry.programHash = programHash;
    store(claim, std::move(entry));
}

PipelineCache::Claim::~Claim()
{
    if (!cache_)
        return;
    // Abandoned: drop the claimed entry, so one waiter claims the key.
    std::lock_guard<std::mutex> lock(cache_->mutex_);
    cache_->entries_.erase(key_);
    cache_->stored_.notify_all();
}

bool
PipelineCache::setDiskStore(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec || !std::filesystem::is_directory(dir)) {
        CC_WARN("cache store '", dir, "' unusable (",
                ec ? ec.message() : "not a directory",
                "); persistence disabled");
        diskDir_.clear();
        return false;
    }
    diskDir_ = dir;
    return true;
}

PipelineCache::Stats
PipelineCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

void
PipelineCache::publishLocked(Claim &claim, Entry entry)
{
    auto it = entries_.find(claim.key_);
    CC_ASSERT(it != entries_.end() && !it->second.ready(),
              "second store for a cache key");
    it->second = std::move(entry);
    claim.cache_ = nullptr;
    stored_.notify_all();
}

std::string
PipelineCache::entryPath(Kind kind, uint64_t key) const
{
    return (std::filesystem::path(diskDir_) /
            entryName(kindInfo[static_cast<uint8_t>(kind)].prefix, key))
        .string();
}

bool
PipelineCache::persist(Kind kind, uint64_t key, const Entry &entry) const
{
    if (diskDir_.empty())
        return false;
    ByteSink payload;
    payload.put8(static_cast<uint8_t>(kind));
    payload.put64(key);
    switch (kind) {
      case Kind::Enumerate:
        putCandidates(payload, *entry.candidates);
        break;
      case Kind::Select:
        putSelection(payload, *entry.selection);
        break;
      case Kind::Image:
        payload.put64(entry.image->digest);
        payload.putBlob(entry.image->bytes);
        break;
      case Kind::Program:
        payload.put64(*entry.programHash);
        break;
    }
    if (std::optional<LoadError> error = writeFileAtomic(
            entryPath(kind, key),
            sealPayload(kStoreMagic, kStoreVersion, payload.bytes()))) {
        CC_WARN("cache store write failed (", error->message(),
                "); entry not persisted");
        return false;
    }
    return true;
}

uint64_t PipelineCache::Stats::*
PipelineCache::load(Kind kind, uint64_t key, Entry &out) const
{
    if (diskDir_.empty())
        return nullptr;
    std::string path = entryPath(kind, key);
    Result<std::vector<uint8_t>> bytes = tryReadFile(path);
    if (!bytes.ok())
        return &Stats::persistMisses;
    try {
        Result<std::vector<uint8_t>> payload = openSealed(
            bytes.value(), kStoreMagic, kStoreVersion, "cache entry");
        if (!payload.ok())
            throw LoadFailure(payload.error());
        ByteSource body(payload.value());
        body.setContext("cache entry payload");
        if (body.get8() != static_cast<uint8_t>(kind) ||
            body.get64() != key)
            throw LoadFailure({LoadStatus::BadValue, 0,
                               "cache entry payload",
                               "kind/key mismatch: " + path});
        switch (kind) {
          case Kind::Enumerate:
            out.candidates = std::make_shared<const CandidateSet>(
                parseCandidates(body));
            break;
          case Kind::Select:
            out.selection = std::make_shared<const SelectProduct>(
                parseSelection(body));
            break;
          case Kind::Image: {
            uint64_t digest = body.get64();
            out.image = loadImageProduct(body.getBlob(), digest);
            break;
          }
          case Kind::Program:
            out.programHash = body.get64();
            break;
        }
        if (!body.atEnd())
            throw LoadFailure({LoadStatus::TrailingBytes, body.pos(),
                               "cache entry payload", path});
    } catch (const std::exception &) {
        // Damaged entry (LoadFailure, or bad_alloc from an absurd
        // declared count): quarantine it so the slot recomputes
        // cleanly (and the file stays inspectable), count it, miss.
        out = {};
        std::error_code ec;
        std::filesystem::rename(path, path + ".quarantined", ec);
        if (ec)
            std::filesystem::remove(path, ec);
        return &Stats::persistCorrupt;
    }
    return &Stats::persistHits;
}

} // namespace codecomp::compress
