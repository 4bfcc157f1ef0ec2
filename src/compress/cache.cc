#include "compress/cache.hh"

#include <cstdio>
#include <filesystem>
#include <system_error>

#include <unistd.h>

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
 * Persistent entry file layout (big-endian, support/serialize.hh):
 *
 *   u32  magic   "CCCH"
 *   u16  version (kStoreVersion; bumped when the payload shape changes
 *                 -- version 2 stores candidate sets as CSR arrays)
 *   u8   kind    (1 = Enumerate, 2 = Select)
 *   u64  key     (must match the file's own name)
 *   blob payload (serializeCandidates / serializeSelection)
 *   u64  checksum = fnv1a64(payload)
 *
 * Anything that deviates -- magic, version, kind, key, checksum,
 * truncation, trailing bytes, or a payload that fails structural
 * parsing -- quarantines the file and reads as a miss.
 */
constexpr uint32_t kStoreMagic = 0x43434348; // "CCCH"
constexpr uint16_t kStoreVersion = 2;

uint64_t
approxSelectionBytes(const CachedSelection &cached)
{
    uint64_t bytes = 16;
    for (const auto &entry : cached.selection.dict.entries)
        bytes += 4 + 4 * entry.size();
    bytes += 12 * cached.selection.placements.size();
    bytes += 4 * cached.selection.useCount.size();
    return bytes;
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

/** Parse the CSR arrays of serializeCandidates, checking that every
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
        begin = cand.posEnd;
    }
    if (begin != set.positions.size())
        throw LoadFailure({LoadStatus::TrailingBytes, source.pos(),
                           "cached candidate set",
                           "unreferenced occurrences"});
    return set;
}

CachedSelection
parseSelection(ByteSource &source)
{
    source.setContext("cached selection");
    CachedSelection cached;
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

} // namespace

std::vector<uint8_t>
serializeCandidates(const CandidateSet &candidates)
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
    ByteSink sink;
    putWords(sink, candidates.text);
    putWords(sink, lengths);
    putWords(sink, ends);
    putWords(sink, candidates.positions);
    return sink.take();
}

std::vector<uint8_t>
serializeSelection(const CachedSelection &cached)
{
    ByteSink sink;
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
    return sink.take();
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
    return hashFields(programHash,
                      {static_cast<uint64_t>(config.scheme),
                       config.maxEntries, config.maxEntryLen,
                       config.assumedCodewordNibbles,
                       static_cast<uint64_t>(config.strategy),
                       config.refitMaxRounds});
}

std::shared_ptr<const CandidateSet>
PipelineCache::findCandidates(uint64_t key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    EntryKey entryKey{static_cast<uint8_t>(Kind::Enumerate), key};
    auto it = entries_.find(entryKey);
    if (it != entries_.end()) {
        ++stats_.enumHits;
        touchLocked(it->second, entryKey);
        return it->second.candidates;
    }
    Entry loaded;
    if (loadFromDiskLocked(Kind::Enumerate, key, loaded)) {
        ++stats_.enumHits;
        std::shared_ptr<const CandidateSet> product = loaded.candidates;
        insertLocked(Kind::Enumerate, key, std::move(loaded));
        return product;
    }
    ++stats_.enumMisses;
    return nullptr;
}

std::shared_ptr<const CachedSelection>
PipelineCache::findSelection(uint64_t key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    EntryKey entryKey{static_cast<uint8_t>(Kind::Select), key};
    auto it = entries_.find(entryKey);
    if (it != entries_.end()) {
        ++stats_.selectHits;
        touchLocked(it->second, entryKey);
        return it->second.selection;
    }
    Entry loaded;
    if (loadFromDiskLocked(Kind::Select, key, loaded)) {
        ++stats_.selectHits;
        std::shared_ptr<const CachedSelection> product = loaded.selection;
        insertLocked(Kind::Select, key, std::move(loaded));
        return product;
    }
    ++stats_.selectMisses;
    return nullptr;
}

void
PipelineCache::storeCandidates(
    uint64_t key, std::shared_ptr<const CandidateSet> candidates)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Entry entry;
    entry.bytes = candidates->bytes();
    entry.candidates = std::move(candidates);
    persistLocked(Kind::Enumerate, key, entry);
    insertLocked(Kind::Enumerate, key, std::move(entry));
}

void
PipelineCache::storeSelection(
    uint64_t key, std::shared_ptr<const CachedSelection> selection)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Entry entry;
    entry.bytes = approxSelectionBytes(*selection);
    entry.selection = std::move(selection);
    persistLocked(Kind::Select, key, entry);
    insertLocked(Kind::Select, key, std::move(entry));
}

void
PipelineCache::setCapacity(size_t maxEntries, uint64_t maxBytes)
{
    std::lock_guard<std::mutex> lock(mutex_);
    maxEntries_ = maxEntries;
    maxBytes_ = maxBytes;
    evictLocked();
}

bool
PipelineCache::setDiskStore(const std::string &dir)
{
    std::lock_guard<std::mutex> lock(mutex_);
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

size_t
PipelineCache::entryCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

PipelineCache::Stats
PipelineCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

void
PipelineCache::insertLocked(Kind kind, uint64_t key, Entry entry)
{
    EntryKey entryKey{static_cast<uint8_t>(kind), key};
    auto [it, inserted] = entries_.emplace(entryKey, std::move(entry));
    if (!inserted)
        return; // first store wins; concurrent fills are identical
    lru_.push_front(entryKey);
    it->second.lruIt = lru_.begin();
    totalBytes_ += it->second.bytes;
    evictLocked();
}

void
PipelineCache::touchLocked(Entry &entry, EntryKey entryKey)
{
    lru_.erase(entry.lruIt);
    lru_.push_front(entryKey);
    entry.lruIt = lru_.begin();
}

void
PipelineCache::evictLocked()
{
    while (!lru_.empty() &&
           ((maxEntries_ && entries_.size() > maxEntries_) ||
            (maxBytes_ && totalBytes_ > maxBytes_))) {
        auto it = entries_.find(lru_.back());
        CC_ASSERT(it != entries_.end(), "LRU list out of sync");
        totalBytes_ -= it->second.bytes;
        entries_.erase(it);
        lru_.pop_back();
        ++stats_.evictions;
    }
}

std::string
PipelineCache::entryPath(Kind kind, uint64_t key) const
{
    char name[40];
    std::snprintf(name, sizeof(name), "%s-%016llx.cce",
                  kind == Kind::Enumerate ? "enum" : "sel",
                  static_cast<unsigned long long>(key));
    return (std::filesystem::path(diskDir_) / name).string();
}

void
PipelineCache::persistLocked(Kind kind, uint64_t key, const Entry &entry)
{
    if (diskDir_.empty())
        return;
    std::string path = entryPath(kind, key);
    std::error_code ec;
    if (std::filesystem::exists(path, ec))
        return; // an identical product is already on disk

    ByteSink sink;
    sink.put32(kStoreMagic);
    sink.put16(kStoreVersion);
    sink.put8(static_cast<uint8_t>(kind));
    sink.put64(key);
    std::vector<uint8_t> payload =
        kind == Kind::Enumerate ? serializeCandidates(*entry.candidates)
                                : serializeSelection(*entry.selection);
    uint64_t checksum = fnv1a64(payload);
    sink.putBlob(payload);
    sink.put64(checksum);

    // Temp-file + rename: a crash mid-write leaves a .tmp file (ignored
    // by readers), never a half-written entry under the real name.
    std::string temp = path + ".tmp" + std::to_string(::getpid());
    if (tryWriteFile(temp, sink.bytes())) {
        CC_WARN("cache store write failed for '", temp,
                "'; entry not persisted");
        return;
    }
    std::filesystem::rename(temp, path, ec);
    if (ec) {
        CC_WARN("cache store rename failed for '", path, "': ",
                ec.message());
        std::filesystem::remove(temp, ec);
        return;
    }
    ++stats_.persistStores;
}

bool
PipelineCache::loadFromDiskLocked(Kind kind, uint64_t key, Entry &out)
{
    if (diskDir_.empty())
        return false;
    std::string path = entryPath(kind, key);
    Result<std::vector<uint8_t>> bytes = tryReadFile(path);
    if (!bytes.ok()) {
        ++stats_.persistMisses;
        return false;
    }
    try {
        ByteSource source(bytes.value());
        source.setContext("cache entry header");
        if (source.get32() != kStoreMagic)
            throw LoadFailure({LoadStatus::BadMagic, 0,
                               "cache entry header", path});
        if (source.get16() != kStoreVersion)
            throw LoadFailure({LoadStatus::BadVersion, 4,
                               "cache entry header", path});
        if (source.get8() != static_cast<uint8_t>(kind) ||
            source.get64() != key)
            throw LoadFailure({LoadStatus::BadValue, 6,
                               "cache entry header",
                               "kind/key mismatch: " + path});
        std::vector<uint8_t> payload = source.getBlob();
        uint64_t checksum = source.get64();
        if (!source.atEnd())
            throw LoadFailure({LoadStatus::TrailingBytes, source.pos(),
                               "cache entry", path});
        if (fnv1a64(payload) != checksum)
            throw LoadFailure({LoadStatus::BadChecksum, 0,
                               "cache entry payload", path});
        ByteSource body(payload);
        if (kind == Kind::Enumerate) {
            out.candidates = std::make_shared<const CandidateSet>(
                parseCandidates(body));
            out.bytes = out.candidates->bytes();
        } else {
            out.selection = std::make_shared<const CachedSelection>(
                parseSelection(body));
            out.bytes = approxSelectionBytes(*out.selection);
        }
        if (!body.atEnd())
            throw LoadFailure({LoadStatus::TrailingBytes, body.pos(),
                               "cache entry payload", path});
    } catch (const std::exception &) {
        // Damaged entry (LoadFailure, or bad_alloc from an absurd
        // declared count): quarantine it so the slot recomputes
        // cleanly (and the file stays inspectable), count it, miss.
        quarantineLocked(path);
        ++stats_.persistCorrupt;
        return false;
    }
    ++stats_.persistHits;
    return true;
}

void
PipelineCache::quarantineLocked(const std::string &path)
{
    std::error_code ec;
    std::filesystem::rename(path, path + ".quarantined", ec);
    if (ec)
        std::filesystem::remove(path, ec);
}

} // namespace codecomp::compress
