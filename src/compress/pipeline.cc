#include "compress/pipeline.hh"

#include <algorithm>
#include <chrono>

#include "isa/builder.hh"
#include "support/json.hh"
#include "support/logging.hh"

namespace codecomp::compress {

namespace {

constexpr uint8_t regFar = 2; //!< reserved for far-branch stubs

/** Field width of a relative branch's displacement. */
unsigned
dispBits(const isa::Inst &inst)
{
    return inst.op == isa::Op::B ? 24 : 14;
}

/** True when execution can continue past @p word into the next
 *  sequential instruction. Conservative: anything that is not an
 *  unconditional non-linking branch is assumed to fall through. */
bool
canFallThrough(isa::Word word)
{
    isa::Inst inst = isa::decode(word);
    if (inst.lk)
        return true; // calls resume at the next sequential address
    if (inst.op == isa::Op::B)
        return false;
    if ((inst.op == isa::Op::Bc || inst.op == isa::Op::Bclr ||
         inst.op == isa::Op::Bcctr) &&
        inst.bo == static_cast<uint8_t>(isa::Bo::Always))
        return false;
    return true;
}

/** True when the far-branch expander (LayoutWork::expand) can rewrite
 *  @p inst through an absolute-target stub. */
bool
farExpandable(const isa::Inst &inst)
{
    if (inst.op == isa::Op::B)
        return true;
    return inst.op == isa::Op::Bc && !inst.lk &&
           inst.bo != static_cast<uint8_t>(isa::Bo::DecNz);
}

} // namespace

/** One slot of the compressed layout. */
struct LayoutItem
{
    enum class Kind : uint8_t {
        Insn,     //!< original instruction (branches patched at emission)
        Codeword, //!< dictionary reference
        SynFixed, //!< synthetic instruction emitted verbatim
        SynLis,   //!< lis r2, hi16(pointer to targetIndex)
        SynOri,   //!< ori r2, r2, lo16(pointer to targetIndex)
    };

    Kind kind;
    isa::Word word = 0;
    uint32_t entryId = 0;
    uint32_t origIndex = UINT32_MAX;   //!< set on items that begin at an
                                       //!< original instruction
    uint32_t targetIndex = UINT32_MAX; //!< branch/pointer target
};

/**
 * Working state shared by the Layout, BranchPatch, and Emit passes: the
 * item list, its nibble addresses, and the original-index -> nibble
 * address map. References the context's program and image.rankOfEntry,
 * both of which outlive it.
 */
struct LayoutWork
{
    LayoutWork(const Program &program, const SchemeParams &params,
               Scheme scheme, const SelectionResult &selection,
               const std::vector<uint32_t> &rank_of_entry)
        : program_(program), params_(params),
          codec_(schemeCodec(scheme)), rankOfEntry_(rank_of_entry)
    {
        buildItems(selection);
    }

    /** One far-branch expansion round: rewrite every branch whose
     *  displacement no longer fits through an absolute-target stub and
     *  reassign addresses. Returns the number of branches expanded;
     *  0 means addresses are at fixpoint. */
    uint32_t
    expandFarBranches()
    {
        std::vector<size_t> far = findFarBranches();
        if (far.empty())
            return 0;
        expand(far);
        assignAddresses();
        return static_cast<uint32_t>(far.size());
    }

    const std::vector<LayoutItem> &items() const { return items_; }
    const std::vector<uint32_t> &itemAddr() const { return item_addr_; }
    const std::unordered_map<uint32_t, uint32_t> &addrMap() const
    {
        return addr_map_;
    }

    /** Patched displacement (in units) for the branch item at @p i. */
    int32_t
    branchDisp(size_t i) const
    {
        const LayoutItem &item = items_[i];
        uint32_t target_nib = addr_map_.at(item.targetIndex);
        int64_t delta = static_cast<int64_t>(target_nib) -
                        static_cast<int64_t>(item_addr_[i]);
        CC_ASSERT(delta % params_.unitNibbles == 0,
                  "branch target not unit-aligned");
        return static_cast<int32_t>(delta / params_.unitNibbles);
    }

    void
    assignAddresses()
    {
        item_addr_.resize(items_.size());
        addr_map_.clear();
        uint32_t addr = 0;
        for (size_t i = 0; i < items_.size(); ++i) {
            item_addr_[i] = addr;
            if (items_[i].origIndex != UINT32_MAX)
                addr_map_.emplace(items_[i].origIndex, addr);
            addr += itemNibbles(items_[i]);
        }
        total_nibbles_ = addr;
    }

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
            current.nibbles += itemNibbles(item);
            current.last = i;
            // A codeword can only end a chain through its entry's final
            // instruction (candidates never span block boundaries, so a
            // terminator can only be the last word).
            isa::Word last_word =
                item.kind == LayoutItem::Kind::Codeword
                    ? selection.dict.entries[item.entryId].back()
                    : item.word;
            bool falls = canFallThrough(last_word);
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

        std::vector<LayoutItem> original = items_;
        std::vector<LayoutItem> next;
        next.reserve(items_.size());
        for (size_t chain_index : order) {
            const Chain &chain = chains[chain_index];
            for (size_t i = chain.first; i <= chain.last; ++i)
                next.push_back(original[i]);
        }
        items_ = std::move(next);
        assignAddresses();

        // Trial-expand to fixpoint on a scratch copy: prove the far
        // expander can reach every stranded branch before committing.
        std::vector<LayoutItem> placed = items_;
        bool ok = true;
        for (;;) {
            std::vector<size_t> far = findFarBranches();
            if (far.empty())
                break;
            for (size_t i : far)
                if (!farExpandable(isa::decode(items_[i].word))) {
                    ok = false;
                    break;
                }
            if (!ok)
                break;
            expand(far);
            assignAddresses();
        }
        if (!ok) {
            *reverted = true;
            items_ = std::move(original);
            assignAddresses();
            return 0;
        }
        items_ = std::move(placed);
        assignAddresses();
        return moved;
    }

  private:
    void
    buildItems(const SelectionResult &selection)
    {
        size_t placement = 0;
        uint32_t index = 0;
        uint32_t n = static_cast<uint32_t>(program_.text.size());
        while (index < n) {
            if (placement < selection.placements.size() &&
                selection.placements[placement].start == index) {
                const Placement &p = selection.placements[placement];
                LayoutItem item;
                item.kind = LayoutItem::Kind::Codeword;
                item.entryId = p.entryId;
                item.origIndex = index;
                items_.push_back(item);
                index += p.length;
                ++placement;
                continue;
            }
            LayoutItem item;
            item.kind = LayoutItem::Kind::Insn;
            item.word = program_.text[index];
            item.origIndex = index;
            isa::Inst inst = isa::decode(item.word);
            if (inst.isRelativeBranch())
                item.targetIndex = program_.branchTargetIndex(index);
            items_.push_back(item);
            ++index;
        }
        CC_ASSERT(placement == selection.placements.size(),
                  "placements misaligned with text walk");
    }

    unsigned
    itemNibbles(const LayoutItem &item) const
    {
        if (item.kind == LayoutItem::Kind::Codeword)
            return codec_.codewordNibbles(rankOfEntry_[item.entryId]);
        return params_.insnNibbles;
    }

    std::vector<size_t>
    findFarBranches() const
    {
        std::vector<size_t> far;
        for (size_t i = 0; i < items_.size(); ++i) {
            const LayoutItem &item = items_[i];
            if (item.kind != LayoutItem::Kind::Insn ||
                item.targetIndex == UINT32_MAX)
                continue;
            isa::Inst inst = isa::decode(item.word);
            if (!isa::fitsSigned(branchDisp(i), dispBits(inst)))
                far.push_back(i);
        }
        return far;
    }

    void
    expand(const std::vector<size_t> &far)
    {
        std::vector<LayoutItem> next;
        next.reserve(items_.size() + far.size() * 6);
        size_t far_pos = 0;
        for (size_t i = 0; i < items_.size(); ++i) {
            if (far_pos >= far.size() || far[far_pos] != i) {
                next.push_back(items_[i]);
                continue;
            }
            ++far_pos;
            const LayoutItem &item = items_[i];
            isa::Inst inst = isa::decode(item.word);
            CC_ASSERT(!inst.isCall() || inst.op == isa::Op::B,
                      "cannot far-expand a linking conditional branch");

            auto syn = [](isa::Word word) {
                LayoutItem s;
                s.kind = LayoutItem::Kind::SynFixed;
                s.word = word;
                return s;
            };
            auto ptr_pair = [&item](LayoutItem::Kind kind) {
                LayoutItem s;
                s.kind = kind;
                s.targetIndex = item.targetIndex;
                return s;
            };

            size_t first = next.size();
            if (inst.op == isa::Op::Bc) {
                CC_ASSERT(inst.bo !=
                              static_cast<uint8_t>(isa::Bo::DecNz),
                          "cannot far-expand a CTR-decrementing branch");
                CC_ASSERT(!inst.lk, "cannot far-expand bcl");
                // bc cond -> trampoline (two instructions ahead);
                // b -> past the stub (five instructions ahead).
                int32_t two = static_cast<int32_t>(
                    2 * params_.insnNibbles / params_.unitNibbles);
                int32_t five = static_cast<int32_t>(
                    5 * params_.insnNibbles / params_.unitNibbles);
                next.push_back(syn(isa::encode(isa::bc(
                    static_cast<isa::Bo>(inst.bo), inst.bi, two))));
                next.push_back(syn(isa::encode(isa::b(five))));
            }
            next.push_back(ptr_pair(LayoutItem::Kind::SynLis));
            next.push_back(ptr_pair(LayoutItem::Kind::SynOri));
            next.push_back(syn(isa::encode(isa::mtctr(regFar))));
            next.push_back(syn(isa::encode(
                inst.lk ? isa::bctrl() : isa::bctr())));
            // The stub inherits the original instruction's identity so
            // branches targeting it still resolve.
            next[first].origIndex = item.origIndex;
        }
        items_ = std::move(next);
    }

    const Program &program_;
    SchemeParams params_;
    const SchemeCodec &codec_;
    const std::vector<uint32_t> &rankOfEntry_;
    std::vector<LayoutItem> items_;
    std::vector<uint32_t> item_addr_;
    std::unordered_map<uint32_t, uint32_t> addr_map_;
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
    strategy = makeStrategy(config.strategy,
                            RefitOptions{config.refitMaxRounds});
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
        // downstream of Select reads the candidates.
        ctx.cachedSelection = ctx.cache->findSelection(
            PipelineCache::selectKey(ctx.programHash, ctx.config));
        if (ctx.cachedSelection) {
            ctx.counter("select_cache_hit", 1);
            return;
        }
        uint64_t key =
            PipelineCache::enumerateKey(ctx.programHash, ctx.config);
        ctx.sharedCandidates = ctx.cache->findCandidates(key);
        if (ctx.sharedCandidates) {
            ctx.counter("enumerate_cache_hit", 1);
            ctx.counter("candidates", ctx.sharedCandidates->size());
            return;
        }
    }
    ctx.cfg = Cfg::build(ctx.program);
    ctx.candidates =
        enumerateCandidates(ctx.program, *ctx.cfg, ctx.greedy.minEntryLen,
                            ctx.greedy.maxEntryLen);
    ctx.counter("blocks", ctx.cfg->blocks().size());
    ctx.counter("candidates", ctx.candidates.size());
    ctx.counter("candidate_bytes", ctx.candidates.bytes());
    if (ctx.cache) {
        auto computed =
            std::make_shared<CandidateSet>(std::move(ctx.candidates));
        ctx.candidates = {};
        ctx.sharedCandidates = computed;
        ctx.cache->storeCandidates(
            PipelineCache::enumerateKey(ctx.programHash, ctx.config),
            std::move(computed));
    }
}

void
passSelect(PipelineContext &ctx)
{
    if (ctx.cachedSelection) {
        ctx.selection = ctx.cachedSelection->selection;
        ctx.selectionRoundsOverride = ctx.cachedSelection->rounds;
    } else {
        ctx.selection = ctx.strategy->select(ctx.program.text.size(),
                                             ctx.candidateList(),
                                             ctx.greedy,
                                             ctx.config.scheme);
        if (ctx.cache) {
            auto computed = std::make_shared<CachedSelection>();
            computed->selection = ctx.selection;
            computed->rounds = ctx.strategy->rounds();
            ctx.cache->storeSelection(
                PipelineCache::selectKey(ctx.programHash, ctx.config),
                std::move(computed));
        }
    }
    ctx.counter("entries", ctx.selection.dict.entries.size());
    ctx.counter("placements", ctx.selection.placements.size());
    ctx.counter("rounds", ctx.selectionRoundsOverride
                              ? ctx.selectionRoundsOverride
                              : ctx.strategy->rounds());
}

void
passRankAssign(PipelineContext &ctx)
{
    CC_ASSERT(ctx.program.dataBase != 0, "program not finalized");
    CompressedImage &image = ctx.image;
    image.scheme = ctx.config.scheme;
    image.originalTextBytes = ctx.program.textBytes();
    image.dataBase = ctx.program.dataBase;
    image.rankOfEntry = rankByUseCount(ctx.selection);
    image.entriesByRank.resize(ctx.selection.dict.entries.size());
    for (uint32_t id = 0; id < ctx.selection.dict.entries.size(); ++id)
        image.entriesByRank[image.rankOfEntry[id]] =
            ctx.selection.dict.entries[id];
    ctx.counter("entries", image.entriesByRank.size());
}

void
passLayout(PipelineContext &ctx)
{
    ctx.layout = std::make_unique<LayoutWork>(ctx.program, ctx.params,
                                              ctx.config.scheme,
                                              ctx.selection,
                                              ctx.image.rankOfEntry);
    ctx.layout->assignAddresses();
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
            ctx.selection, ctx.config.trafficProfile, &reverted);
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
    const LayoutWork &layout = *ctx.layout;
    const SchemeCodec &codec = schemeCodec(ctx.config.scheme);
    image.selection = std::move(ctx.selection);

    auto account = [&image](const EmitAccounting &accounting) {
        image.composition.insnNibbles += accounting.insnNibbles;
        image.composition.escapeNibbles += accounting.escapeNibbles;
        image.composition.codewordNibbles += accounting.codewordNibbles;
    };
    auto accountInstruction = [&account, &codec]() {
        account(codec.instructionAccounting());
    };

    NibbleWriter writer;
    const auto &items = layout.items();
    for (size_t i = 0; i < items.size(); ++i) {
        const LayoutItem &item = items[i];
        CC_ASSERT(writer.nibbleCount() == layout.itemAddr()[i],
                  "emission drifted from layout");
        switch (item.kind) {
          case LayoutItem::Kind::Insn: {
            isa::Word word = item.word;
            if (item.targetIndex != UINT32_MAX) {
                isa::Inst inst = isa::decode(word);
                inst.disp = layout.branchDisp(i);
                inst.aa = false;
                word = isa::encode(inst);
            }
            codec.emitInstruction(writer, word);
            accountInstruction();
            break;
          }
          case LayoutItem::Kind::SynFixed:
            codec.emitInstruction(writer, item.word);
            accountInstruction();
            break;
          case LayoutItem::Kind::SynLis:
          case LayoutItem::Kind::SynOri: {
            uint32_t pointer = CompressedImage::nibbleBase +
                               layout.addrMap().at(item.targetIndex);
            isa::Inst inst =
                item.kind == LayoutItem::Kind::SynLis
                    ? isa::lis(regFar,
                               static_cast<int32_t>(static_cast<int16_t>(
                                   pointer >> 16)))
                    : isa::ori(regFar, regFar,
                               static_cast<int32_t>(pointer & 0xffff));
            codec.emitInstruction(writer, isa::encode(inst));
            accountInstruction();
            break;
          }
          case LayoutItem::Kind::Codeword: {
            uint32_t rank = image.rankOfEntry[item.entryId];
            codec.emitCodeword(writer, rank);
            account(codec.codewordAccounting(rank));
            break;
          }
        }
    }
    image.textNibbles = writer.nibbleCount();
    image.text = writer.bytes();
    image.addrMap = layout.addrMap();
    image.entryPointNibble = image.addrMap.at(ctx.program.entryIndex);
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

// ---- pipeline ----

Pipeline &
Pipeline::addPass(std::string name, PassFn fn)
{
    passes_.push_back({std::move(name), std::move(fn)});
    return *this;
}

PipelineStats
Pipeline::run(PipelineContext &ctx) const
{
    PipelineStats stats;
    stats.scheme = schemeName(ctx.config.scheme);
    stats.passes.reserve(passes_.size());
    for (const Pass &pass : passes_) {
        PassStats &record = stats.passes.emplace_back();
        record.name = pass.name;
        ctx.activePass = &record;
        auto start = std::chrono::steady_clock::now();
        pass.fn(ctx);
        auto end = std::chrono::steady_clock::now();
        ctx.activePass = nullptr;
        record.millis =
            std::chrono::duration<double, std::milli>(end - start).count();
    }
    if (ctx.strategy) {
        stats.strategy = ctx.strategy->name();
        stats.selectionRounds = ctx.selectionRoundsOverride
                                    ? ctx.selectionRoundsOverride
                                    : ctx.strategy->rounds();
    }
    return stats;
}

Pipeline
Pipeline::standard()
{
    Pipeline pipeline;
    pipeline.addPass("Enumerate", passEnumerate)
        .addPass("Select", passSelect)
        .addPass("RankAssign", passRankAssign)
        .addPass("Layout", passLayout)
        .addPass("BranchPatch", passBranchPatch)
        .addPass("Emit", passEmit);
    return pipeline;
}

Pipeline
Pipeline::fromSelection()
{
    Pipeline pipeline;
    pipeline.addPass("RankAssign", passRankAssign)
        .addPass("Layout", passLayout)
        .addPass("BranchPatch", passBranchPatch)
        .addPass("Emit", passEmit);
    return pipeline;
}

} // namespace codecomp::compress
