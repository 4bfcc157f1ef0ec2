#include "compress/pipeline.hh"

#include <algorithm>

#include "isa/builder.hh"
#include "program/cfg.hh"
#include "support/json.hh"
#include "support/logging.hh"

namespace codecomp::compress {

namespace {

/** Field width of a relative branch's displacement. */
uint8_t
dispBits(const isa::Inst &inst)
{
    return inst.op == isa::Op::B ? 24 : 14;
}

} // namespace

unsigned
farBranchStubWords(const isa::Inst &branch)
{
    if (branch.op == isa::Op::B)
        return 4;
    if (branch.op == isa::Op::Bc && !branch.lk &&
        branch.bo != static_cast<uint8_t>(isa::Bo::DecNz))
        return 6;
    return 0;
}

std::vector<isa::Word>
farBranchStub(const isa::Inst &branch, uint32_t pointer, Scheme scheme)
{
    if (farBranchStubWords(branch) == 0)
        return {};
    std::vector<isa::Word> words;
    if (branch.op == isa::Op::Bc) {
        // bc cond -> the trampoline two instructions ahead; b -> past
        // the stub, five instructions ahead.
        SchemeParams params = schemeParams(scheme);
        int32_t insn_units =
            static_cast<int32_t>(params.insnNibbles / params.unitNibbles);
        words.push_back(isa::encode(isa::bc(static_cast<isa::Bo>(branch.bo),
                                            branch.bi, 2 * insn_units)));
        words.push_back(isa::encode(isa::b(5 * insn_units)));
    }
    words.push_back(isa::encode(isa::lis(
        farBranchReg,
        static_cast<int32_t>(static_cast<int16_t>(pointer >> 16)))));
    words.push_back(isa::encode(
        isa::ori(farBranchReg, farBranchReg,
                 static_cast<int32_t>(pointer & 0xffff))));
    words.push_back(isa::encode(isa::mtctr(farBranchReg)));
    words.push_back(isa::encode(branch.lk ? isa::bctrl() : isa::bctr()));
    return words;
}

/** One slot of the compressed layout. Every item begins at an original
 *  instruction. */
struct LayoutItem
{
    enum class Kind : uint8_t {
        Insn,     //!< original instruction (branches patched at emission)
        Codeword, //!< dictionary reference
        Stub,     //!< far branch (word) emitted as its farBranchStub
    };

    Kind kind;
    uint8_t nibbles = 0;   //!< stream size of the item
    uint8_t dispBits = 0;  //!< relative branch: displacement field width
    uint8_t stubWords = 0; //!< relative branch: farBranchStubWords
    isa::Word word = 0;
    uint32_t entryId = 0;
    uint32_t origIndex = 0; //!< the original instruction it begins at
    uint32_t targetIndex = CompressedImage::noItem; //!< branch target
};

/**
 * Working state shared by the Layout, BranchPatch, and Emit passes: the
 * item list with each item's stream size, its nibble addresses, the
 * dense original-index -> nibble address map, and the list of relative
 * branches still emitted as instructions (DESIGN.md section 16).
 * References the context's program, which outlives it.
 */
struct LayoutWork
{
    LayoutWork(const Program &program, const SchemeParams &params,
               Scheme scheme, const SelectionResult &selection,
               const std::vector<uint32_t> &rank_of_entry)
        : program_(program), params_(params)
    {
        buildItems(selection, schemeCodec(scheme), rank_of_entry);
        addr_map_.assign(program_.text.size(), CompressedImage::noItem);
        assignAddresses();
        listBranches();
    }

    /**
     * One far-branch expansion round: rewrite every listed branch whose
     * displacement no longer fits through an absolute-target stub, drop
     * it from the branch list, and reassign addresses. Returns the
     * number of branches expanded; 0 means addresses are at fixpoint.
     * A far branch no stub can replace (bcl, bdnz) stays listed and
     * sets *@p stranded when given; without it, it is an internal
     * error.
     */
    uint32_t
    expandFarBranches(bool *stranded = nullptr)
    {
        uint32_t expanded = 0;
        size_t kept = 0;
        for (uint32_t i : branches_) {
            LayoutItem &item = items_[i];
            bool fits = isa::fitsSigned(branchDisp(i), item.dispBits);
            if (!fits && item.stubWords != 0) {
                item.kind = LayoutItem::Kind::Stub;
                item.nibbles = static_cast<uint8_t>(item.stubWords *
                                                    params_.insnNibbles);
                ++expanded;
                continue;
            }
            if (!fits) {
                CC_ASSERT(stranded, "cannot far-expand bcl or a "
                                    "CTR-decrementing branch");
                *stranded = true;
            }
            branches_[kept++] = i;
        }
        branches_.resize(kept);
        if (expanded != 0)
            assignAddresses();
        return expanded;
    }

    const std::vector<LayoutItem> &items() const { return items_; }
    const std::vector<uint32_t> &itemAddr() const { return item_addr_; }
    uint32_t totalNibbles() const { return total_nibbles_; }

    /** Absolute code pointer of the item that begins at original
     *  instruction @p index. */
    uint32_t
    codePointer(uint32_t index) const
    {
        return CompressedImage::nibbleBase + addr_map_[index];
    }

    /** Patched displacement (in units) for the branch item at @p i. */
    int32_t
    branchDisp(size_t i) const
    {
        uint32_t target_nib = addr_map_[items_[i].targetIndex];
        CC_ASSERT(target_nib != CompressedImage::noItem,
                  "branch target begins no item");
        int64_t delta = static_cast<int64_t>(target_nib) -
                        static_cast<int64_t>(item_addr_[i]);
        CC_ASSERT(delta % params_.unitNibbles == 0,
                  "branch target not unit-aligned");
        return static_cast<int32_t>(delta / params_.unitNibbles);
    }

    /** Hand the address map over (after the last address pass). */
    std::vector<uint32_t> takeAddrMap() { return std::move(addr_map_); }

    /**
     * Profile-guided hot/cold reordering (LayoutMode::HotCold): split
     * the item list into fall-through chains -- maximal runs broken
     * only after instructions that cannot fall through -- sort the hot
     * chains by descending traffic density so the hottest code packs
     * into the fewest cache lines, and append the cold chains in their
     * original order. Execution never crosses a chain boundary
     * sequentially and branch patching is address-map driven, so the
     * reordered image runs identically.
     *
     * If the new placement would strand a branch the far expander
     * cannot rewrite (bcl, bdnz) out of displacement range, the whole
     * reorder is abandoned and the original order restored
     * (@p reverted). Returns the number of chains that moved.
     */
    uint32_t
    reorderHotCold(const SelectionResult &selection,
                   const std::vector<uint64_t> &profile, bool *reverted)
    {
        *reverted = false;
        if (items_.empty())
            return 0;
        uint32_t n = static_cast<uint32_t>(program_.text.size());

        struct Chain
        {
            size_t first = 0, last = 0; //!< inclusive item range
            unsigned __int128 traffic = 0;
            uint64_t nibbles = 0;
            bool fallsThrough = false;
        };
        std::vector<Chain> chains;
        Chain current;
        current.first = 0;
        for (size_t i = 0; i < items_.size(); ++i) {
            const LayoutItem &item = items_[i];
            uint32_t cover_end =
                i + 1 < items_.size() ? items_[i + 1].origIndex : n;
            for (uint32_t j = item.origIndex; j < cover_end; ++j)
                current.traffic += profile[j];
            current.nibbles += item.nibbles;
            current.last = i;
            // A codeword can only end a chain through its entry's final
            // instruction (candidates never span block boundaries, so a
            // terminator can only be the last word).
            isa::Word last_word =
                item.kind == LayoutItem::Kind::Codeword
                    ? selection.dict.entries[item.entryId].back()
                    : item.word;
            bool falls = isa::decode(last_word).canFallThrough();
            if (!falls || i + 1 == items_.size()) {
                current.fallsThrough = falls;
                chains.push_back(current);
                current = Chain{};
                current.first = i + 1;
            }
        }
        if (chains.size() < 2)
            return 0;

        // Only the text-final chain can end with a fall-through (e.g. a
        // halting syscall); pin it last so nothing lands after it.
        size_t pinned = chains.back().fallsThrough
                            ? chains.size() - 1
                            : SIZE_MAX;
        std::vector<size_t> hot, cold;
        for (size_t c = 0; c < chains.size(); ++c) {
            if (c == pinned)
                continue;
            (chains[c].traffic > 0 ? hot : cold).push_back(c);
        }
        std::stable_sort(hot.begin(), hot.end(),
                         [&chains](size_t a, size_t b) {
                             return chains[a].traffic * chains[b].nibbles >
                                    chains[b].traffic * chains[a].nibbles;
                         });
        std::vector<size_t> order;
        order.reserve(chains.size());
        order.insert(order.end(), hot.begin(), hot.end());
        order.insert(order.end(), cold.begin(), cold.end());
        if (pinned != SIZE_MAX)
            order.push_back(pinned);

        uint32_t moved = 0;
        for (size_t k = 0; k < order.size(); ++k)
            moved += order[k] != k;
        if (moved == 0)
            return 0;

        std::vector<LayoutItem> next;
        next.reserve(items_.size());
        for (size_t chain_index : order) {
            const Chain &chain = chains[chain_index];
            next.insert(next.end(), items_.begin() + chain.first,
                        items_.begin() + chain.last + 1);
        }
        items_ = std::move(next);
        assignAddresses();
        listBranches();

        // Trial-expand to fixpoint: prove the far expander can reach
        // every stranded branch before committing. Layout places no
        // stubs, so undoing the trial turns every stub back into its
        // branch, and the original order is ascending origIndex.
        bool stranded = false;
        uint32_t expanded = 0;
        do {
            expanded = expandFarBranches(&stranded);
        } while (expanded != 0 && !stranded);
        for (LayoutItem &item : items_) {
            if (item.kind == LayoutItem::Kind::Stub) {
                item.kind = LayoutItem::Kind::Insn;
                item.nibbles = static_cast<uint8_t>(params_.insnNibbles);
            }
        }
        if (stranded) {
            *reverted = true;
            std::sort(items_.begin(), items_.end(),
                      [](const LayoutItem &a, const LayoutItem &b) {
                          return a.origIndex < b.origIndex;
                      });
            moved = 0;
        }
        assignAddresses();
        listBranches();
        return moved;
    }

  private:
    void
    buildItems(const SelectionResult &selection, const SchemeCodec &codec,
               const std::vector<uint32_t> &rank_of_entry)
    {
        // Codeword sizes, once per dictionary entry.
        std::vector<uint8_t> entry_nibbles(rank_of_entry.size());
        for (size_t id = 0; id < rank_of_entry.size(); ++id)
            entry_nibbles[id] = static_cast<uint8_t>(
                codec.codewordNibbles(rank_of_entry[id]));

        size_t placement = 0;
        uint32_t index = 0;
        uint32_t n = static_cast<uint32_t>(program_.text.size());
        items_.reserve(n);
        while (index < n) {
            if (placement < selection.placements.size() &&
                selection.placements[placement].start == index) {
                const Placement &p = selection.placements[placement];
                LayoutItem item;
                item.kind = LayoutItem::Kind::Codeword;
                item.nibbles = entry_nibbles[p.entryId];
                item.entryId = p.entryId;
                item.origIndex = index;
                items_.push_back(item);
                index += p.length;
                ++placement;
                continue;
            }
            LayoutItem item;
            item.kind = LayoutItem::Kind::Insn;
            item.nibbles = static_cast<uint8_t>(params_.insnNibbles);
            item.word = program_.text[index];
            item.origIndex = index;
            isa::Inst inst = isa::decode(item.word);
            if (inst.isRelativeBranch()) {
                item.targetIndex = program_.branchTargetIndex(index);
                item.dispBits = dispBits(inst);
                item.stubWords =
                    static_cast<uint8_t>(farBranchStubWords(inst));
            }
            items_.push_back(item);
            ++index;
        }
        CC_ASSERT(placement == selection.placements.size(),
                  "placements misaligned with text walk");
    }

    /** Item addresses and the address map, in one pass. */
    void
    assignAddresses()
    {
        item_addr_.resize(items_.size());
        uint32_t addr = 0;
        for (size_t i = 0; i < items_.size(); ++i) {
            item_addr_[i] = addr;
            addr_map_[items_[i].origIndex] = addr;
            addr += items_[i].nibbles;
        }
        total_nibbles_ = addr;
    }

    /** The relative branches still emitted as instructions, in item
     *  order. */
    void
    listBranches()
    {
        branches_.clear();
        for (uint32_t i = 0; i < items_.size(); ++i) {
            if (items_[i].kind == LayoutItem::Kind::Insn &&
                items_[i].dispBits != 0)
                branches_.push_back(i);
        }
    }

    const Program &program_;
    SchemeParams params_;
    std::vector<LayoutItem> items_;
    std::vector<uint32_t> item_addr_;
    std::vector<uint32_t> addr_map_;
    std::vector<uint32_t> branches_; //!< item indices
    uint32_t total_nibbles_ = 0;
};

// ---- stats ----

uint64_t
PassStats::counter(std::string_view key) const
{
    for (const auto &[name, value] : counters)
        if (name == key)
            return value;
    return 0;
}

double
PipelineStats::totalMillis() const
{
    double total = 0.0;
    for (const PassStats &pass : passes)
        total += pass.millis;
    return total;
}

const PassStats *
PipelineStats::pass(std::string_view name) const
{
    for (const PassStats &pass : passes)
        if (pass.name == name)
            return &pass;
    return nullptr;
}

std::string
PipelineStats::toJson() const
{
    JsonWriter json;
    json.beginObject();
    json.member("strategy", strategy);
    json.member("scheme", scheme);
    json.member("selection_rounds", selectionRounds);
    json.member("total_millis", totalMillis());
    json.key("passes");
    json.beginArray();
    for (const PassStats &pass : passes) {
        json.beginObject();
        json.member("name", pass.name);
        json.member("millis", pass.millis);
        json.key("counters");
        json.beginObject();
        for (const auto &[name, value] : pass.counters)
            json.member(name, value);
        json.endObject();
        json.endObject();
    }
    json.endArray();
    json.endObject();
    return json.str();
}

// ---- context ----

PipelineContext::PipelineContext(const Program &prog,
                                 const CompressorConfig &cfg)
    : program(prog), config(cfg), params(schemeParams(cfg.scheme))
{
    greedy.maxEntries = std::min(config.maxEntries, params.maxCodewords);
    greedy.maxEntryLen = config.maxEntryLen;
    greedy.insnNibbles = params.insnNibbles;
    greedy.dictEntryNibbles = params.dictEntryNibbles;
    greedy.dictEntryExtraNibbles = params.dictEntryExtraNibbles;
    greedy.codewordNibbles =
        config.assumedCodewordNibbles
            ? config.assumedCodewordNibbles
            : params.defaultAssumedCodewordNibbles;
    std::string error = greedyConfigError(greedy);
    if (!error.empty())
        CC_FATAL("invalid compressor config: ", error);
}

PipelineContext::~PipelineContext() = default;

void
PipelineContext::counter(std::string name, uint64_t value)
{
    if (activePass)
        activePass->counters.emplace_back(std::move(name), value);
}

// ---- passes ----

void
passEnumerate(PipelineContext &ctx)
{
    if (ctx.cache) {
        // A cached Select product supersedes enumeration: nothing
        // downstream of Select reads the candidates. A miss claims the
        // Select key until passSelect stores it; the Enumerate lookup
        // may then wait, but never on a caller that waits in turn.
        std::shared_ptr<const SelectProduct> selected =
            ctx.cache->findSelection(
                PipelineCache::selectKey(ctx.programHash, ctx.config),
                ctx.selectClaim);
        if (selected) {
            ctx.selection = *selected;
            ctx.counter("select_cache_hit", 1);
            return;
        }
        ctx.candidates = ctx.cache->findCandidates(
            PipelineCache::enumerateKey(ctx.programHash, ctx.config),
            ctx.enumerateClaim);
        if (ctx.candidates) {
            ctx.counter("enumerate_cache_hit", 1);
            ctx.counter("candidates", ctx.candidates->size());
            return;
        }
    }
    Cfg cfg = Cfg::build(ctx.program);
    auto computed = std::make_shared<const CandidateSet>(
        enumerateCandidates(ctx.program, cfg, ctx.greedy.minEntryLen,
                            ctx.greedy.maxEntryLen));
    ctx.counter("blocks", cfg.blocks().size());
    ctx.counter("candidates", computed->size());
    ctx.counter("candidate_bytes", computed->bytes());
    if (ctx.cache)
        ctx.cache->storeCandidates(ctx.enumerateClaim, computed);
    ctx.candidates = std::move(computed);
}

void
passSelect(PipelineContext &ctx)
{
    if (ctx.candidates) {
        ctx.selection = selectDictionary(
            ctx.config.strategy, ctx.config.refitMaxRounds, *ctx.candidates,
            ctx.greedy, ctx.config.scheme);
        if (ctx.cache)
            ctx.cache->storeSelection(
                ctx.selectClaim,
                std::make_shared<const SelectProduct>(ctx.selection));
    }
    const SelectionResult &selection = ctx.selection.selection;
    ctx.counter("entries", selection.dict.entries.size());
    ctx.counter("placements", selection.placements.size());
    ctx.counter("rounds", ctx.selection.rounds);
}

void
passRankAssign(PipelineContext &ctx)
{
    CC_ASSERT(ctx.program.dataBase != 0, "program not finalized");
    CompressedImage &image = ctx.image;
    image.scheme = ctx.config.scheme;
    image.originalTextBytes = ctx.program.textBytes();
    image.dataBase = ctx.program.dataBase;
    const SelectionResult &selection = ctx.selection.selection;
    image.rankOfEntry = rankByUseCount(selection);
    image.entriesByRank.resize(selection.dict.entries.size());
    for (uint32_t id = 0; id < selection.dict.entries.size(); ++id)
        image.entriesByRank[image.rankOfEntry[id]] =
            selection.dict.entries[id];
    ctx.counter("entries", image.entriesByRank.size());
}

void
passLayout(PipelineContext &ctx)
{
    ctx.layout = std::make_unique<LayoutWork>(ctx.program, ctx.params,
                                              ctx.config.scheme,
                                              ctx.selection.selection,
                                              ctx.image.rankOfEntry);
    if (ctx.config.layout == LayoutMode::HotCold) {
        if (ctx.config.trafficProfile.size() != ctx.program.text.size())
            CC_FATAL("hotcold layout needs a traffic profile covering "
                     "the program (got ",
                     ctx.config.trafficProfile.size(), " counts for ",
                     ctx.program.text.size(),
                     " instructions); run "
                     "timing::profileExecutionCounts first");
        bool reverted = false;
        uint32_t moved = ctx.layout->reorderHotCold(
            ctx.selection.selection, ctx.config.trafficProfile, &reverted);
        ctx.counter("layout_chains_moved", moved);
        if (reverted)
            ctx.counter("layout_reverted", 1);
    }
    ctx.counter("items", ctx.layout->items().size());
}

void
passBranchPatch(PipelineContext &ctx)
{
    uint32_t expansions = 0;
    for (;;) {
        uint32_t expanded = ctx.layout->expandFarBranches();
        if (expanded == 0)
            break;
        expansions += expanded;
    }
    ctx.image.farBranchExpansions = expansions;
    ctx.counter("far_branch_expansions", expansions);
}

void
passEmit(PipelineContext &ctx)
{
    CompressedImage &image = ctx.image;
    LayoutWork &layout = *ctx.layout;
    const SchemeCodec &codec = schemeCodec(ctx.config.scheme);
    image.selection = std::move(ctx.selection.selection);

    auto account = [&image](const EmitAccounting &accounting) {
        image.composition.insnNibbles += accounting.insnNibbles;
        image.composition.escapeNibbles += accounting.escapeNibbles;
        image.composition.codewordNibbles += accounting.codewordNibbles;
    };
    const EmitAccounting instruction = codec.instructionAccounting();
    std::vector<EmitAccounting> codeword(image.rankOfEntry.size());
    for (size_t id = 0; id < codeword.size(); ++id)
        codeword[id] = codec.codewordAccounting(image.rankOfEntry[id]);

    NibbleWriter writer;
    writer.reserve(layout.totalNibbles());
    const auto &items = layout.items();
    for (size_t i = 0; i < items.size(); ++i) {
        const LayoutItem &item = items[i];
        CC_ASSERT(writer.nibbleCount() == layout.itemAddr()[i],
                  "emission drifted from layout");
        switch (item.kind) {
          case LayoutItem::Kind::Insn: {
            isa::Word word = item.word;
            if (item.dispBits != 0) {
                isa::Inst inst = isa::decode(word);
                inst.disp = layout.branchDisp(i);
                inst.aa = false;
                word = isa::encode(inst);
            }
            codec.emitInstruction(writer, word);
            account(instruction);
            break;
          }
          case LayoutItem::Kind::Stub: {
            uint32_t pointer = layout.codePointer(item.targetIndex);
            for (isa::Word word : farBranchStub(isa::decode(item.word),
                                                pointer, ctx.config.scheme)) {
                codec.emitInstruction(writer, word);
                account(instruction);
            }
            break;
          }
          case LayoutItem::Kind::Codeword: {
            codec.emitCodeword(writer, image.rankOfEntry[item.entryId]);
            account(codeword[item.entryId]);
            break;
          }
        }
    }
    image.textNibbles = writer.nibbleCount();
    image.text = writer.takeBytes();
    image.addrMap = layout.takeAddrMap();
    image.entryPointNibble = image.codePointer(ctx.program.entryIndex) -
                             CompressedImage::nibbleBase;
    image.composition.dictNibbles = image.dictionaryBytes() * 2;

    // The two size accountings must agree (DESIGN.md section 7).
    CC_ASSERT(image.composition.totalNibbles() ==
                  image.textNibbles + image.dictionaryBytes() * 2,
              "composition does not sum to image size");

    // ---- jump-table re-patch ----
    image.data = ctx.program.data;
    for (const CodeReloc &reloc : ctx.program.codeRelocs) {
        uint32_t pointer = image.codePointer(reloc.targetIndex);
        image.data[reloc.dataOffset] = static_cast<uint8_t>(pointer >> 24);
        image.data[reloc.dataOffset + 1] =
            static_cast<uint8_t>(pointer >> 16);
        image.data[reloc.dataOffset + 2] =
            static_cast<uint8_t>(pointer >> 8);
        image.data[reloc.dataOffset + 3] = static_cast<uint8_t>(pointer);
    }
    ctx.counter("text_nibbles", image.textNibbles);
    ctx.counter("code_relocs", ctx.program.codeRelocs.size());
}

} // namespace codecomp::compress
