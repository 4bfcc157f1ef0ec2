#include "compress/candidates.hh"

#include <algorithm>
#include <bit>

#include "compress/objfile.hh"
#include "support/logging.hh"

namespace codecomp::compress {

namespace {

// Lengths fit the uint8_t reach and uniqueFrom arrays below.
static_assert(maxImageEntryWords <= 255);

/**
 * Open-addressing map from a 64-bit key to a dense ID, grown by
 * doubling at half load. Keys are exact (a level's (prefix ID, word)
 * pair, or a bare word), so a hit needs no confirmation.
 */
class IdTable
{
  public:
    /** Empty the table, keeping the capacity it grew to: the levels
     *  need similar sizes, so the next one need not grow again. */
    void
    reset()
    {
        size_t capacity = std::max<size_t>(ids_.size(), 1024);
        keys_.assign(capacity, 0);
        ids_.assign(capacity, kEmpty);
        used_ = 0;
    }

    /** The ID of @p key, inserting @p fresh if the key is new. */
    uint32_t
    findOrInsert(uint64_t key, uint32_t fresh)
    {
        if (2 * (used_ + 1) > ids_.size())
            grow();
        size_t slot = find(key);
        if (ids_[slot] == kEmpty) {
            keys_[slot] = key;
            ids_[slot] = fresh;
            ++used_;
        }
        return ids_[slot];
    }

  private:
    static constexpr uint32_t kEmpty = UINT32_MAX;

    size_t
    find(uint64_t key) const
    {
        size_t mask = ids_.size() - 1;
        size_t slot = (key * 0x9E3779B97F4A7C15ull) >>
                      (64 - std::countr_zero(ids_.size()));
        while (ids_[slot] != kEmpty && keys_[slot] != key)
            slot = (slot + 1) & mask;
        return slot;
    }

    void
    grow()
    {
        std::vector<uint64_t> keys = std::move(keys_);
        std::vector<uint32_t> ids = std::move(ids_);
        keys_.assign(2 * keys.size(), 0);
        ids_.assign(2 * ids.size(), kEmpty);
        for (size_t i = 0; i < ids.size(); ++i) {
            if (ids[i] != kEmpty) {
                size_t slot = find(keys[i]);
                keys_[slot] = keys[i];
                ids_[slot] = ids[i];
            }
        }
    }

    std::vector<uint64_t> keys_;
    std::vector<uint32_t> ids_;
    size_t used_ = 0;
};

/** The windows of one length, grouped by ID: group g's positions are
 *  positions[offsets[g], offsets[g + 1]), ascending. */
struct LevelGroups
{
    std::vector<uint32_t> offsets;
    std::vector<uint32_t> positions;
};

} // namespace

CandidateSet
enumerateCandidates(const Program &program, const Cfg &cfg, uint32_t minLen,
                    uint32_t maxLen)
{
    CC_ASSERT(minLen >= 1 && minLen <= maxLen &&
                  maxLen <= maxImageEntryWords,
              "bad candidate lengths");
    const std::vector<isa::Word> &text = program.text;

    // reach[p]: the longest window starting at p, capped at maxLen --
    // it stops at the end of p's block and before a relative branch.
    // The Cfg ends a block after every branch, so a relative branch can
    // only be the last word of its block: only that word is decoded.
    std::vector<uint8_t> reach(text.size(), 0);
    for (const InstRange &block : cfg.blocks()) {
        uint32_t end = block.first + block.count;
        if (isa::decode(text[end - 1]).isRelativeBranch())
            --end;
        uint32_t run = 0;
        for (uint32_t p = end; p-- > block.first;) {
            run = std::min(run + 1, maxLen);
            reach[p] = static_cast<uint8_t>(run);
        }
    }

    // Refine level by level over the positions whose window reaches
    // the current length and is not yet unique. id[p] is the ID of p's
    // window at the current length; IDs are dense and numbered in order
    // of first occurrence. A sequence seen once stays unique when
    // extended, so its position leaves the refinement: uniqueFrom[p] is
    // the shortest length at which p's window is unique (0: never), and
    // p's windows from there to reach[p] are all single-occurrence
    // candidates.
    std::vector<uint32_t> active;
    for (uint32_t p = 0; p < text.size(); ++p)
        if (reach[p] > 0)
            active.push_back(p);
    std::vector<uint32_t> id(text.size());
    std::vector<uint8_t> uniqueFrom(text.size(), 0);
    // levels[L]: one group per repeated sequence of length L, in order
    // of first occurrence.
    std::vector<LevelGroups> levels(maxLen + 1);
    size_t total_candidates = 0, total_positions = 0;
    std::vector<uint32_t> count, group, cursor;
    constexpr uint32_t kUnique = UINT32_MAX;
    IdTable table;

    for (uint32_t len = 1; len <= maxLen && !active.empty(); ++len) {
        table.reset();
        count.clear();
        for (uint32_t p : active) {
            uint64_t key = len == 1
                               ? text[p]
                               : (static_cast<uint64_t>(id[p]) << 32) |
                                     text[p + len - 1];
            uint32_t next = static_cast<uint32_t>(count.size());
            uint32_t lid = table.findOrInsert(key, next);
            if (lid == next)
                count.push_back(0);
            id[p] = lid;
            ++count[lid];
        }

        // Number the repeated sequences in ID order (so by first
        // occurrence) and lay out one group for each.
        LevelGroups &groups = levels[len];
        groups.offsets.assign(1, 0);
        group.resize(count.size());
        for (size_t i = 0; i < count.size(); ++i) {
            if (count[i] == 1) {
                group[i] = kUnique;
                continue;
            }
            group[i] = static_cast<uint32_t>(groups.offsets.size() - 1);
            groups.offsets.push_back(groups.offsets.back() + count[i]);
        }
        bool emit = len >= minLen;
        if (emit) {
            groups.positions.resize(groups.offsets.back());
            cursor.assign(groups.offsets.begin(), groups.offsets.end() - 1);
            total_candidates += groups.offsets.size() - 1;
            total_positions += groups.positions.size();
        }

        // Scan the positions in ascending order: each repeated group
        // comes out sorted, and its first entry is its first
        // occurrence. Unique windows leave, and so do windows that
        // cannot grow.
        size_t kept = 0;
        for (uint32_t p : active) {
            uint32_t g = group[id[p]];
            if (g == kUnique) {
                uniqueFrom[p] = static_cast<uint8_t>(len);
                uint32_t from = std::max(len, minLen);
                if (reach[p] >= from) {
                    total_candidates += reach[p] - from + 1;
                    total_positions += reach[p] - from + 1;
                }
                continue;
            }
            if (emit)
                groups.positions[cursor[g]++] = p;
            if (reach[p] > len)
                active[kept++] = p;
        }
        active.resize(kept);
    }

    // Emit in serial-scan order: by first occurrence, then length. Each
    // level's groups follow first occurrence, so the next candidate is
    // the next group of the length whose first position comes up next;
    // a position's unique windows are longer than its repeated ones.
    CandidateSet set;
    set.text = text;
    set.candidates.reserve(total_candidates);
    set.positions.reserve(total_positions);
    std::vector<uint32_t> nextGroup(maxLen + 1, 0);
    // The first position of the next group of length len, or kNone.
    constexpr uint32_t kNone = UINT32_MAX;
    auto head = [&](uint32_t len) {
        const LevelGroups &groups = levels[len];
        uint32_t g = nextGroup[len];
        return g + 1 < groups.offsets.size()
                   ? groups.positions[groups.offsets[g]]
                   : kNone;
    };
    uint32_t soonest = 0;
    for (uint32_t p = 0; p < text.size(); ++p) {
        if (p == soonest) {
            soonest = kNone;
            for (uint32_t len = minLen; len <= maxLen; ++len) {
                if (head(len) == p) {
                    const LevelGroups &groups = levels[len];
                    uint32_t g = nextGroup[len]++;
                    std::span<const uint32_t> occurrences(
                        groups.positions.data() + groups.offsets[g],
                        groups.positions.data() + groups.offsets[g + 1]);
                    auto at = static_cast<uint32_t>(set.positions.size());
                    set.positions.insert(set.positions.end(),
                                         occurrences.begin(),
                                         occurrences.end());
                    set.candidates.push_back(
                        {p, len, at,
                         static_cast<uint32_t>(set.positions.size()),
                         standaloneCount(occurrences, len)});
                }
                soonest = std::min(soonest, head(len));
            }
        }
        if (uniqueFrom[p] == 0)
            continue;
        for (uint32_t len = std::max<uint32_t>(uniqueFrom[p], minLen);
             len <= reach[p]; ++len) {
            auto at = static_cast<uint32_t>(set.positions.size());
            set.positions.push_back(p);
            set.candidates.push_back({p, len, at, at + 1, 1});
        }
    }
    return set;
}

uint32_t
standaloneCount(std::span<const uint32_t> positions, uint32_t length)
{
    return walkNonOverlapping(
        positions, length, [](uint32_t) { return false; }, [](uint32_t) {});
}

uint32_t
countNonOverlapping(std::span<const uint32_t> positions, uint32_t length,
                    const std::vector<bool> &consumed)
{
    return forEachNonOverlapping(positions, length, consumed,
                                 [](uint32_t) {});
}

} // namespace codecomp::compress
