#include "verify/fault.hh"

#include <algorithm>
#include <set>
#include <vector>

#include "compress/objfile.hh"
#include "decompress/compressed_cpu.hh"
#include "decompress/engine.hh"
#include "decompress/fault.hh"
#include "isa/disasm.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "verify/items.hh"

namespace codecomp::verify {

namespace {

/** Re-emit @p image's stream from @p items, an edited copy of its
 *  decoded items. Stream size must come out identical, or the address
 *  map and branches would break. */
void
rebuildStream(compress::CompressedImage &image,
              const std::vector<DecodedItem> &items)
{
    NibbleWriter writer;
    for (const DecodedItem &item : items) {
        if (item.isCodeword)
            compress::emitCodeword(writer, image.scheme, item.rank);
        else
            compress::emitInstruction(writer, image.scheme, item.word);
    }
    CC_ASSERT(writer.nibbleCount() == image.textNibbles,
              "fault mutation changed the stream size");
    image.text = writer.bytes();
}

/** Store @p value big-endian at @p bytes[@p pos]. */
void
putWord32(std::vector<uint8_t> &bytes, size_t pos, uint32_t value)
{
    for (unsigned b = 0; b < 4; ++b)
        bytes[pos + b] = static_cast<uint8_t>(value >> (24 - 8 * b));
}

/** Register whose corruption the mutated instruction should target:
 *  prefer the register the original instruction writes, and never use
 *  r2 (stub scratch, excluded from comparison) or r0 (often read as a
 *  literal zero). */
uint8_t
corruptionTarget(const isa::Inst &inst)
{
    uint8_t reg;
    switch (inst.op) {
      case isa::Op::Rlwinm:
      case isa::Op::Srawi:
        reg = inst.ra;
        break;
      case isa::Op::Stw:
      case isa::Op::Stb:
      case isa::Op::Sth:
      case isa::Op::Cmp:
      case isa::Op::Cmpl:
      case isa::Op::Cmpi:
      case isa::Op::Cmpli:
      case isa::Op::Mtspr:
      case isa::Op::Sc:
      case isa::Op::B:
      case isa::Op::Bc:
      case isa::Op::Bclr:
      case isa::Op::Bcctr:
        reg = 3;
        break;
      default:
        reg = inst.rt;
        break;
    }
    if (reg == 0 || reg == 2)
        reg = 3;
    return reg;
}

Mutant
noSite(MutationKind kind, std::string why)
{
    return {kind, false, std::move(why), {}, {}};
}

Mutant
injectDictEntryWord(const compress::CompressedImage &image,
                    const DecompressionEngine &engine,
                    const PristineRun &pristine, Rng &rng)
{
    const std::vector<DecodedItem> &items = engine.items();
    std::set<uint32_t> rank_set;
    for (uint32_t i = 0; i < items.size(); ++i)
        if (pristine.executed[i] && items[i].isCodeword)
            rank_set.insert(items[i].rank);
    if (rank_set.empty())
        return noSite(MutationKind::DictEntryWord,
                      "no codeword executed; cannot inject a dictionary "
                      "fault");
    std::vector<uint32_t> ranks(rank_set.begin(), rank_set.end());
    uint32_t rank = ranks[rng.below(ranks.size())];

    Mutant fault{MutationKind::DictEntryWord, true, {}, image, {}};
    isa::Word original = fault.image.entriesByRank[rank][0];
    isa::Inst victim = isa::decode(original);
    isa::Inst corrupt;
    corrupt.op = isa::Op::Addis;
    corrupt.rt = corruptionTarget(victim);
    corrupt.ra = corrupt.rt;
    corrupt.imm = 0x0100;
    if (isa::encode(corrupt) == original)
        corrupt.imm = 0x0200;
    fault.image.entriesByRank[rank][0] = isa::encode(corrupt);
    fault.description =
        "dictionary rank " + std::to_string(rank) + " slot 0: " +
        isa::disassemble(victim, 0) + " -> " + isa::disassemble(corrupt, 0);
    return fault;
}

Mutant
injectCodewordRank(const compress::CompressedImage &image,
                   const DecompressionEngine &engine,
                   const PristineRun &pristine, Rng &rng)
{
    const std::vector<DecodedItem> &items = engine.items();
    std::vector<uint32_t> executed_codewords;
    for (uint32_t i = 0; i < items.size(); ++i)
        if (pristine.executed[i] && items[i].isCodeword)
            executed_codewords.push_back(i);
    if (executed_codewords.empty())
        return noSite(MutationKind::CodewordRank,
                      "no codeword executed; cannot inject a rank fault");

    // Pick an executed codeword whose width class holds another rank;
    // a same-width swap keeps the stream layout bit-identical in size.
    uint32_t num_ranks =
        static_cast<uint32_t>(image.entriesByRank.size());
    for (uint64_t attempt = 0; attempt < 64; ++attempt) {
        uint32_t victim_index =
            executed_codewords[rng.below(executed_codewords.size())];
        uint32_t old_rank = items[victim_index].rank;
        unsigned width = compress::codewordNibbles(image.scheme, old_rank);
        std::vector<uint32_t> candidates;
        for (uint32_t r = 0; r < num_ranks; ++r) {
            if (r != old_rank &&
                compress::codewordNibbles(image.scheme, r) == width) {
                candidates.push_back(r);
            }
        }
        if (candidates.empty())
            continue;
        uint32_t new_rank = candidates[rng.below(candidates.size())];

        Mutant fault{MutationKind::CodewordRank, true, {}, image, {}};
        std::vector<DecodedItem> edited = items;
        edited[victim_index].rank = new_rank;
        rebuildStream(fault.image, edited);
        fault.description = "codeword at nibble " +
                            hex32(items[victim_index].nibbleAddr) +
                            ": rank " + std::to_string(old_rank) +
                            " -> rank " + std::to_string(new_rank) +
                            " (same width)";
        return fault;
    }
    return noSite(MutationKind::CodewordRank,
                  "no same-width rank swap available for 64 drawn "
                  "executed codewords");
}

Mutant
injectBranchDisp(const compress::CompressedImage &image,
                 const DecompressionEngine &engine,
                 const PristineRun &pristine, Rng &rng)
{
    ItemMap map = mapItems(engine, image);
    const std::vector<DecodedItem> &items = engine.items();

    // Taken relative branches outside stub groups: retargeting one is
    // guaranteed to change the control flow of the verified run.
    std::vector<uint32_t> candidates;
    for (uint32_t i = 0; i < items.size(); ++i) {
        if (!pristine.redirected[i] || map.isStub[i] ||
            items[i].isCodeword)
            continue;
        if (isa::decode(items[i].word).isRelativeBranch())
            candidates.push_back(i);
    }
    if (candidates.empty())
        return noSite(MutationKind::BranchDisp,
                      "no taken relative branch executed; cannot inject "
                      "a displacement fault");
    uint32_t victim_index = candidates[rng.below(candidates.size())];
    const DecodedItem &victim = items[victim_index];
    isa::Inst inst = isa::decode(victim.word);
    unsigned disp_bits = inst.op == isa::Op::B ? 24 : 14;
    unsigned unit = compress::schemeParams(image.scheme).unitNibbles;
    int64_t old_target =
        static_cast<int64_t>(victim.nibbleAddr) +
        static_cast<int64_t>(inst.disp) * unit;

    // Retarget to the nearest other mapped, non-stub item boundary the
    // displacement field can reach; item-boundary deltas are unit
    // aligned by construction.
    uint32_t best_index = ItemMap::noIndex;
    int64_t best_distance = 0;
    for (uint32_t i = 0; i < items.size(); ++i) {
        if (map.origOf[i] == ItemMap::noIndex || map.isStub[i])
            continue;
        int64_t target = items[i].nibbleAddr;
        if (target == old_target)
            continue;
        int64_t disp =
            (target - static_cast<int64_t>(victim.nibbleAddr)) / unit;
        if (!isa::fitsSigned(disp, disp_bits))
            continue;
        int64_t distance = target > old_target ? target - old_target
                                               : old_target - target;
        if (best_index == ItemMap::noIndex || distance < best_distance) {
            best_index = i;
            best_distance = distance;
        }
    }
    if (best_index == ItemMap::noIndex)
        return noSite(MutationKind::BranchDisp,
                      "no reachable alternative branch target");
    isa::Inst mutated = inst;
    mutated.disp = static_cast<int32_t>(
        (static_cast<int64_t>(items[best_index].nibbleAddr) -
         static_cast<int64_t>(victim.nibbleAddr)) /
        unit);

    Mutant fault{MutationKind::BranchDisp, true, {}, image, {}};
    std::vector<DecodedItem> edited = items;
    edited[victim_index].word = isa::encode(mutated);
    rebuildStream(fault.image, edited);
    fault.description =
        "branch at nibble " + hex32(victim.nibbleAddr) + ": disp " +
        std::to_string(inst.disp) + " -> " + std::to_string(mutated.disp) +
        " (retargeted to nibble " + hex32(items[best_index].nibbleAddr) +
        ")";
    return fault;
}

/** Apply byte mutation @p kind to a copy of @p bytes, drawing positions
 *  from @p rng. */
Mutant
corruptBytes(const std::vector<uint8_t> &bytes, MutationKind kind,
             Rng &rng)
{
    CC_ASSERT(bytes.size() >= 16, "serialized image implausibly small");
    Mutant mutant{kind, true, std::string(kindName(kind)) + ": ", {}, bytes};
    std::vector<uint8_t> &out = mutant.bytes;
    std::string &description = mutant.description;
    switch (kind) {
      case MutationKind::BitFlip: {
        size_t pos = rng.below(out.size());
        unsigned bit = static_cast<unsigned>(rng.below(8));
        out[pos] ^= static_cast<uint8_t>(1u << bit);
        description += "flip bit " + std::to_string(bit) + " of byte " +
                       std::to_string(pos);
        break;
      }
      case MutationKind::Truncate: {
        size_t size = rng.below(out.size());
        out.resize(size);
        description += "truncate to " + std::to_string(size) + " of " +
                       std::to_string(bytes.size()) + " bytes";
        break;
      }
      case MutationKind::Splice: {
        size_t len = 1 + rng.below(std::min<size_t>(16, out.size()));
        size_t src = rng.below(out.size() - len + 1);
        size_t dst = rng.below(out.size() - len + 1);
        std::vector<uint8_t> span(out.begin() + static_cast<long>(src),
                                  out.begin() + static_cast<long>(src + len));
        std::copy(span.begin(), span.end(),
                  out.begin() + static_cast<long>(dst));
        description += "splice " + std::to_string(len) + " bytes from " +
                       std::to_string(src) + " over " + std::to_string(dst);
        break;
      }
      case MutationKind::LengthLie: {
        size_t pos = rng.below(out.size() - 3);
        uint32_t value = static_cast<uint32_t>(rng.next());
        putWord32(out, pos, value);
        description += "overwrite 4 bytes at " + std::to_string(pos) +
                       " with " + hex32(value);
        break;
      }
      default:
        CC_PANIC("not a byte mutation: ", kindName(kind));
    }
    return mutant;
}

/**
 * The structural mutants of @p image: validator bait (illegal
 * dictionary words, out-of-range ranks, lying nibble counts,
 * out-of-range entry points, truncated streams) plus jump-table code
 * pointers redirected out of the compressed text, which load-validate
 * cleanly but must machine-check when consumed.
 */
std::vector<Mutant>
structuralMutants(const Program &program,
                  const compress::CompressedImage &image)
{
    std::vector<Mutant> mutants;
    auto add = [&mutants, &image](std::string description) ->
        compress::CompressedImage & {
        mutants.push_back({MutationKind::Structural, true,
                           std::move(description), image, {}});
        return mutants.back().image;
    };

    if (!image.entriesByRank.empty()) {
        add("dictionary rank 0 slot 0 zeroed (illegal word)")
            .entriesByRank[0][0] = 0;
        // Dropping the last entry leaves any codeword of that rank
        // dangling; the validator must notice before the engine would.
        add("last dictionary entry removed").entriesByRank.pop_back();
    }

    add("entry point moved past the end of the stream").entryPointNibble =
        static_cast<uint32_t>(image.textNibbles);

    add("nibble count inflated past the byte stream").textNibbles += 2;

    if (image.textNibbles >= 4) {
        compress::CompressedImage &truncated =
            add("stream truncated by one byte");
        truncated.textNibbles -= 2;
        truncated.text.resize((truncated.textNibbles + 1) / 2);
    }

    // Jump-table slots hold absolute nibble code pointers; the loader
    // cannot know which .data words those are (relocations are not part
    // of the image), so a corrupted pointer must surface as a machine
    // check at the indirect branch that consumes it.
    size_t reloc_count = std::min<size_t>(program.codeRelocs.size(), 4);
    for (size_t i = 0; i < reloc_count; ++i) {
        const CodeReloc &reloc = program.codeRelocs[i];
        CC_ASSERT(static_cast<uint64_t>(reloc.dataOffset) + 4 <=
                      image.data.size(),
                  "reloc outside the image .data");
        uint32_t bogus = compress::CompressedImage::nibbleBase +
                         static_cast<uint32_t>(image.textNibbles) + 1 +
                         static_cast<uint32_t>(i);
        putWord32(add("jump-table slot at .data+" +
                      std::to_string(reloc.dataOffset) +
                      " redirected past the compressed text")
                      .data,
                  reloc.dataOffset, bogus);
    }
    if (reloc_count > 0) {
        const CodeReloc &reloc = program.codeRelocs[0];
        putWord32(add("jump-table slot at .data+" +
                      std::to_string(reloc.dataOffset) +
                      " redirected below the text base")
                      .data,
                  reloc.dataOffset, compress::CompressedImage::nibbleBase - 4);
    }
    return mutants;
}

/** Execute a mutant that passed the loader, with panics trapped, and
 *  compare against the pristine run. */
void
runContained(const compress::CompressedImage &image,
             const ExecResult &expected, uint64_t max_steps,
             MutantReport &report)
{
    try {
        PanicTrap trap;
        ExecResult result = runCompressed(image, max_steps);
        if (result == expected) {
            report.outcome = MutantOutcome::RanIdentical;
        } else {
            report.outcome = MutantOutcome::SilentDivergence;
            report.detail =
                "exit " + std::to_string(result.exitCode) + " vs " +
                std::to_string(expected.exitCode) + ", " +
                std::to_string(result.instCount) + " vs " +
                std::to_string(expected.instCount) + " insts, output " +
                (result.output == expected.output ? "equal" : "differs");
        }
    } catch (const MachineCheckError &error) {
        report.outcome = MutantOutcome::Trapped;
        report.detail = error.what();
    } catch (const PanicError &error) {
        report.outcome = MutantOutcome::Panicked;
        report.detail = error.what();
    } catch (const std::runtime_error &error) {
        // CC_FATAL: the watchdog step budget; part of the fault model.
        report.outcome = MutantOutcome::Trapped;
        report.detail = error.what();
    }
}

/** Judge @p mutant by its kind's oracle. */
MutantReport
judgeMutant(const Program &program, const Mutant &mutant,
            const PristineRun &pristine, const LockstepConfig &config)
{
    MutantReport report{mutant.kind, MutantOutcome::NoSite,
                        mutant.description, {}};
    if (!mutant.hasSite)
        return report;
    if (isLockstepKind(mutant.kind)) {
        LockstepResult result = runLockstep(program, mutant.image, config);
        if (result.ok()) {
            report.outcome = MutantOutcome::Undetected;
            report.detail = "after " +
                            std::to_string(result.verifiedInsts) +
                            " verified instructions";
        } else {
            report.outcome = MutantOutcome::Detected;
            report.detail = formatReport(result);
        }
        return report;
    }
    if (isByteKind(mutant.kind)) {
        Result<compress::CompressedImage> loaded =
            tryLoadImage(mutant.bytes);
        if (!loaded.ok()) {
            report.outcome = MutantOutcome::LoadRejected;
            report.detail = loaded.error().message();
        } else {
            runContained(loaded.value(), pristine.result, config.maxSteps,
                         report);
        }
        return report;
    }
    if (std::optional<LoadError> error = validateImage(mutant.image)) {
        report.outcome = MutantOutcome::LoadRejected;
        report.detail = error->message();
    } else {
        runContained(mutant.image, pristine.result, config.maxSteps,
                     report);
    }
    return report;
}

} // namespace

const char *
kindName(MutationKind kind)
{
    static constexpr const char *names[] = {
        "dict-entry-word", "codeword-rank", "branch-disp", "bit-flip",
        "truncate",        "splice",        "length-lie",  "structural"};
    return names[static_cast<size_t>(kind)];
}

const char *
outcomeName(MutantOutcome outcome)
{
    static constexpr const char *names[] = {
        "detected",   "load-rejected",     "trapped",  "ran-identical",
        "no-site",    "undetected",        "silent-divergence",
        "panicked"};
    return names[static_cast<size_t>(outcome)];
}

PristineRun
runPristine(const compress::CompressedImage &image, uint64_t max_steps)
{
    CompressedCpu cpu(image);
    const DecompressionEngine &engine = cpu.engine();
    PristineRun pristine;
    pristine.executed.assign(engine.items().size(), false);
    pristine.redirected.assign(engine.items().size(), false);
    // The observer sees each item after it retired; by then a taken
    // branch has already moved the PC to its target.
    uint32_t pc = cpu.pc();
    pristine.result = cpu.run(
        [&](const FetchEvent &event) {
            uint32_t index = engine.itemIndexAt(
                pc - compress::CompressedImage::nibbleBase);
            uint32_t fall_through = pc + engine.items()[index].nibbles;
            pristine.executed[index] = true;
            pc = event.taken ? cpu.pc() : fall_through;
            if (pc != fall_through)
                pristine.redirected[index] = true;
        },
        max_steps);
    return pristine;
}

void
forEachMutant(const Program &program, const compress::CompressedImage &image,
              const PristineRun &pristine, const MutationPlan &plan,
              const std::function<void(const Mutant &)> &visit)
{
    DecompressionEngine engine(image);
    std::vector<MutationKind> byte_kinds;
    bool structural = false;
    for (MutationKind kind : plan.kinds) {
        if (isByteKind(kind)) {
            byte_kinds.push_back(kind);
            continue;
        }
        if (kind == MutationKind::Structural) {
            structural = true;
            continue;
        }
        auto inject = kind == MutationKind::DictEntryWord
                          ? injectDictEntryWord
                      : kind == MutationKind::CodewordRank
                          ? injectCodewordRank
                          : injectBranchDisp;
        Rng rng(plan.seed);
        visit(inject(image, engine, pristine, rng));
    }
    if (!byte_kinds.empty() && plan.count > 0) {
        std::vector<uint8_t> bytes = saveImage(image);
        Rng rng(plan.seed);
        for (uint64_t i = 0; i < plan.count; ++i)
            visit(corruptBytes(bytes, byte_kinds[i % byte_kinds.size()],
                               rng));
    }
    if (structural)
        for (const Mutant &mutant : structuralMutants(program, image))
            visit(mutant);
}

size_t
CampaignReport::count(MutantOutcome outcome) const
{
    return static_cast<size_t>(
        std::count_if(mutants.begin(), mutants.end(),
                      [outcome](const MutantReport &mutant) {
                          return mutant.outcome == outcome;
                      }));
}

bool
CampaignReport::ok() const
{
    return std::all_of(mutants.begin(), mutants.end(),
                       [](const MutantReport &mutant) {
                           return mutant.acceptable();
                       });
}

CampaignReport
runCampaign(const Program &program, const compress::CompressedImage &image,
            const MutationPlan &plan)
{
    PristineRun pristine = runPristine(image, plan.lockstep.maxSteps);
    CampaignReport report;
    forEachMutant(program, image, pristine, plan, [&](const Mutant &mutant) {
        report.mutants.push_back(
            judgeMutant(program, mutant, pristine, plan.lockstep));
    });
    return report;
}

} // namespace codecomp::verify
