#include "compress/candidates.hh"

#include <algorithm>
#include <bit>
#include <numeric>

#include "compress/objfile.hh"
#include "support/logging.hh"

namespace codecomp::compress {

namespace {

// One bit per length in the first-occurrence masks below.
static_assert(maxImageEntryWords <= 64);

/**
 * Open-addressing map from a 64-bit key to a dense ID, grown by
 * doubling at half load. Keys are exact (a level's (prefix ID, word)
 * pair, or a bare word), so a hit needs no confirmation.
 */
class IdTable
{
  public:
    void
    reset()
    {
        keys_.assign(1024, 0);
        ids_.assign(1024, kEmpty);
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

std::vector<bool>
eligibilityMask(const Program &program)
{
    std::vector<bool> eligible(program.text.size());
    for (size_t i = 0; i < program.text.size(); ++i) {
        isa::Inst inst = isa::decode(program.text[i]);
        eligible[i] = !inst.isRelativeBranch();
    }
    return eligible;
}

CandidateSet
enumerateCandidates(const Program &program, const Cfg &cfg, uint32_t minLen,
                    uint32_t maxLen)
{
    CC_ASSERT(minLen >= 1 && minLen <= maxLen &&
                  maxLen <= maxImageEntryWords,
              "bad candidate lengths");
    const std::vector<isa::Word> &text = program.text;
    std::vector<bool> eligible = eligibilityMask(program);

    // reach[p]: the longest window starting at p, capped at maxLen --
    // it stops at the end of p's block and at the first ineligible
    // word.
    std::vector<uint8_t> reach(text.size(), 0);
    for (const InstRange &block : cfg.blocks()) {
        uint32_t run = 0;
        for (uint32_t p = block.first + block.count; p-- > block.first;) {
            run = eligible[p] ? std::min(run + 1, maxLen) : 0;
            reach[p] = static_cast<uint8_t>(run);
        }
    }

    // Refine level by level over the positions whose window reaches
    // the current length. id[p] is the ID of p's window at the current
    // length; IDs are dense and numbered in order of first occurrence.
    std::vector<uint32_t> active;
    for (uint32_t p = 0; p < text.size(); ++p)
        if (reach[p] > 0)
            active.push_back(p);
    std::vector<uint32_t> id(text.size());
    std::vector<uint32_t> count, prevCount;
    // Bit L-1 of firstAt[p]: the window of length L at p is its
    // sequence's first occurrence (only lengths >= minLen are marked).
    std::vector<uint64_t> firstAt(text.size(), 0);
    std::vector<LevelGroups> levels(maxLen + 1);
    size_t total_candidates = 0, total_positions = 0;
    IdTable table;

    for (uint32_t len = 1; len <= maxLen && !active.empty(); ++len) {
        table.reset();
        count.clear();
        for (uint32_t p : active) {
            uint32_t next = static_cast<uint32_t>(count.size());
            uint32_t lid;
            if (len > 1 && prevCount[id[p]] == 1) {
                // A sequence seen once stays unique when extended.
                lid = next;
            } else {
                uint64_t key =
                    len == 1 ? text[p]
                             : (static_cast<uint64_t>(id[p]) << 32) |
                                   text[p + len - 1];
                lid = table.findOrInsert(key, next);
            }
            if (lid == next) {
                count.push_back(0);
                if (len >= minLen)
                    firstAt[p] |= uint64_t{1} << (len - 1);
            }
            id[p] = lid;
            ++count[lid];
        }

        if (len >= minLen) {
            // Counting sort of the active positions by ID; scanning
            // them in ascending order keeps every group sorted.
            LevelGroups &groups = levels[len];
            groups.offsets.assign(count.size() + 1, 0);
            std::inclusive_scan(count.begin(), count.end(),
                                groups.offsets.begin() + 1);
            groups.positions.resize(active.size());
            std::vector<uint32_t> cursor(groups.offsets.begin(),
                                         groups.offsets.end() - 1);
            for (uint32_t p : active)
                groups.positions[cursor[id[p]]++] = p;
            total_candidates += count.size();
            total_positions += active.size();
        }

        std::swap(count, prevCount);
        std::erase_if(active, [&](uint32_t p) { return reach[p] <= len; });
    }

    // Emit in serial-scan order: by first occurrence, then length. At
    // each length the IDs follow first occurrence, so the n-th marked
    // window of length L is group n of that level.
    CandidateSet set;
    set.text = text;
    set.candidates.reserve(total_candidates);
    set.positions.reserve(total_positions);
    std::vector<uint32_t> nextGroup(maxLen + 1, 0);
    for (uint32_t p = 0; p < text.size(); ++p) {
        for (uint64_t mask = firstAt[p]; mask != 0; mask &= mask - 1) {
            uint32_t len = std::countr_zero(mask) + 1;
            const LevelGroups &groups = levels[len];
            uint32_t g = nextGroup[len]++;
            Candidate cand;
            cand.firstPos = p;
            cand.len = len;
            cand.posBegin = static_cast<uint32_t>(set.positions.size());
            set.positions.insert(
                set.positions.end(),
                groups.positions.begin() + groups.offsets[g],
                groups.positions.begin() + groups.offsets[g + 1]);
            cand.posEnd = static_cast<uint32_t>(set.positions.size());
            set.candidates.push_back(cand);
        }
    }
    return set;
}

uint32_t
countNonOverlapping(std::span<const uint32_t> positions, uint32_t length,
                    const std::vector<bool> &consumed)
{
    return forEachNonOverlapping(positions, length, consumed,
                                 [](uint32_t) {});
}

} // namespace codecomp::compress
