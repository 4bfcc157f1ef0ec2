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

constexpr uint32_t noIndex = UINT32_MAX;

std::string
hex32(uint32_t v)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "0x%08x", v);
    return buf;
}

/** Execution profile of a pristine image: which item boundaries ran,
 *  and which items ever redirected control (taken branches). */
struct Profile
{
    std::vector<uint32_t> executed;   //!< sorted item nibble offsets
    std::vector<uint32_t> redirected; //!< sorted; subset of executed
};

Profile
profileRun(const compress::CompressedImage &image, uint64_t max_steps)
{
    CompressedCpu cpu(image);
    const DecompressionEngine &engine = cpu.engine();
    std::set<uint32_t> executed, redirected;
    uint32_t prev_addr = noIndex, prev_next = 0;
    uint64_t steps = 0;
    while (!cpu.machine().halted() && steps++ < max_steps) {
        uint32_t pc_nibble =
            cpu.pc() - compress::CompressedImage::nibbleBase;
        executed.insert(pc_nibble);
        if (prev_addr != noIndex && pc_nibble != prev_next)
            redirected.insert(prev_addr);
        const DecodedItem &item = engine.itemAt(pc_nibble);
        prev_addr = pc_nibble;
        prev_next = pc_nibble + item.nibbles;
        cpu.step();
    }
    CC_ASSERT(cpu.machine().halted(),
              "fault-injection profiling run did not terminate");
    Profile profile;
    profile.executed.assign(executed.begin(), executed.end());
    profile.redirected.assign(redirected.begin(), redirected.end());
    return profile;
}

/** Re-emit the whole item sequence, with per-item overrides applied by
 *  the caller through @p rank_of and @p word_of. Stream size must come
 *  out identical, or the address map and branches would break. */
template <typename RankOf, typename WordOf>
void
rebuildStream(compress::CompressedImage &image,
              const std::vector<DecodedItem> &items, RankOf rank_of,
              WordOf word_of)
{
    NibbleWriter writer;
    for (uint32_t i = 0; i < items.size(); ++i) {
        if (items[i].isCodeword)
            compress::emitCodeword(writer, image.scheme, rank_of(i));
        else
            compress::emitInstruction(writer, image.scheme, word_of(i));
    }
    CC_ASSERT(writer.nibbleCount() == image.textNibbles,
              "fault mutation changed the stream size");
    image.text = writer.bytes();
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

FaultInjection
injectDictEntryWord(const compress::CompressedImage &image,
                    const DecompressionEngine &engine,
                    const Profile &profile, Rng &rng)
{
    std::set<uint32_t> rank_set;
    for (uint32_t addr : profile.executed) {
        const DecodedItem &item = engine.itemAt(addr);
        if (item.isCodeword)
            rank_set.insert(item.rank);
    }
    CC_ASSERT(!rank_set.empty(),
              "no codeword executed; cannot inject a dictionary fault");
    std::vector<uint32_t> ranks(rank_set.begin(), rank_set.end());
    uint32_t rank = ranks[rng.below(ranks.size())];

    FaultInjection fault{FaultKind::DictEntryWord, image, {}};
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

FaultInjection
injectCodewordRank(const compress::CompressedImage &image,
                   const DecompressionEngine &engine,
                   const Profile &profile, Rng &rng)
{
    std::vector<uint32_t> executed_codewords;
    for (uint32_t addr : profile.executed) {
        if (engine.itemAt(addr).isCodeword)
            executed_codewords.push_back(addr);
    }
    CC_ASSERT(!executed_codewords.empty(),
              "no codeword executed; cannot inject a rank fault");

    // Pick an executed codeword whose width class holds another rank;
    // a same-width swap keeps the stream layout bit-identical in size.
    uint32_t num_ranks =
        static_cast<uint32_t>(image.entriesByRank.size());
    for (uint64_t attempt = 0; attempt < 64; ++attempt) {
        uint32_t victim_addr =
            executed_codewords[rng.below(executed_codewords.size())];
        uint32_t victim_index = engine.itemIndexAt(victim_addr);
        uint32_t old_rank = engine.items()[victim_index].rank;
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

        FaultInjection fault{FaultKind::CodewordRank, image, {}};
        const std::vector<DecodedItem> &items = engine.items();
        rebuildStream(
            fault.image, items,
            [&](uint32_t i) {
                return i == victim_index ? new_rank : items[i].rank;
            },
            [&](uint32_t i) { return items[i].word; });
        fault.description = "codeword at nibble " + hex32(victim_addr) +
                            ": rank " + std::to_string(old_rank) +
                            " -> rank " + std::to_string(new_rank) +
                            " (same width)";
        return fault;
    }
    CC_PANIC("no same-width rank swap available for any executed codeword");
}

FaultInjection
injectBranchDisp(const compress::CompressedImage &image,
                 const DecompressionEngine &engine, const Profile &profile,
                 Rng &rng)
{
    ItemMap map = mapItems(engine, image);
    const std::vector<DecodedItem> &items = engine.items();

    // Taken relative branches outside stub groups: retargeting one is
    // guaranteed to change the control flow of the verified run.
    std::vector<uint32_t> candidates;
    for (uint32_t addr : profile.redirected) {
        uint32_t index = engine.itemIndexAt(addr);
        if (map.isStub[index] || items[index].isCodeword)
            continue;
        if (isa::decode(items[index].word).isRelativeBranch())
            candidates.push_back(index);
    }
    CC_ASSERT(!candidates.empty(),
              "no taken relative branch executed; cannot inject a "
              "displacement fault");
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
    uint32_t best_index = noIndex;
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
        if (best_index == noIndex || distance < best_distance) {
            best_index = i;
            best_distance = distance;
        }
    }
    CC_ASSERT(best_index != noIndex,
              "no reachable alternative branch target");
    isa::Inst mutated = inst;
    mutated.disp = static_cast<int32_t>(
        (static_cast<int64_t>(items[best_index].nibbleAddr) -
         static_cast<int64_t>(victim.nibbleAddr)) /
        unit);

    FaultInjection fault{FaultKind::BranchDisp, image, {}};
    rebuildStream(
        fault.image, items,
        [&](uint32_t i) { return items[i].rank; },
        [&](uint32_t i) {
            return i == victim_index ? isa::encode(mutated)
                                     : items[i].word;
        });
    fault.description =
        "branch at nibble " + hex32(victim.nibbleAddr) + ": disp " +
        std::to_string(inst.disp) + " -> " + std::to_string(mutated.disp) +
        " (retargeted to nibble " + hex32(items[best_index].nibbleAddr) +
        ")";
    return fault;
}

} // namespace

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::DictEntryWord:
        return "dict-entry-word";
      case FaultKind::CodewordRank:
        return "codeword-rank";
      case FaultKind::BranchDisp:
        return "branch-disp";
    }
    return "unknown";
}

FaultInjection
injectFault(const compress::CompressedImage &image, FaultKind kind,
            uint64_t seed)
{
    DecompressionEngine engine(image);
    Profile profile = profileRun(image, CompressedCpu::defaultMaxSteps);
    Rng rng(seed);
    switch (kind) {
      case FaultKind::DictEntryWord:
        return injectDictEntryWord(image, engine, profile, rng);
      case FaultKind::CodewordRank:
        return injectCodewordRank(image, engine, profile, rng);
      case FaultKind::BranchDisp:
        return injectBranchDisp(image, engine, profile, rng);
    }
    CC_PANIC("unknown fault kind");
}

// ------------------------- corruption campaign -----------------------

const char *
corruptionKindName(CorruptionKind kind)
{
    switch (kind) {
      case CorruptionKind::BitFlip:
        return "bit-flip";
      case CorruptionKind::Truncate:
        return "truncate";
      case CorruptionKind::Splice:
        return "splice";
      case CorruptionKind::LengthLie:
        return "length-lie";
    }
    return "unknown";
}

const char *
mutantOutcomeName(MutantOutcome outcome)
{
    switch (outcome) {
      case MutantOutcome::LoadRejected:
        return "load-rejected";
      case MutantOutcome::Trapped:
        return "trapped";
      case MutantOutcome::RanIdentical:
        return "ran-identical";
      case MutantOutcome::SilentDivergence:
        return "silent-divergence";
      case MutantOutcome::Panicked:
        return "panicked";
    }
    return "unknown";
}

std::vector<uint8_t>
corruptBytes(const std::vector<uint8_t> &bytes, CorruptionKind kind,
             Rng &rng, std::string &description)
{
    CC_ASSERT(bytes.size() >= 16, "serialized image implausibly small");
    std::vector<uint8_t> out = bytes;
    switch (kind) {
      case CorruptionKind::BitFlip: {
        size_t pos = rng.below(out.size());
        unsigned bit = static_cast<unsigned>(rng.below(8));
        out[pos] ^= static_cast<uint8_t>(1u << bit);
        description = "flip bit " + std::to_string(bit) + " of byte " +
                      std::to_string(pos);
        break;
      }
      case CorruptionKind::Truncate: {
        size_t size = rng.below(out.size());
        out.resize(size);
        description = "truncate to " + std::to_string(size) + " of " +
                      std::to_string(bytes.size()) + " bytes";
        break;
      }
      case CorruptionKind::Splice: {
        size_t len = 1 + rng.below(std::min<size_t>(16, out.size()));
        size_t src = rng.below(out.size() - len + 1);
        size_t dst = rng.below(out.size() - len + 1);
        std::vector<uint8_t> span(out.begin() + static_cast<long>(src),
                                  out.begin() + static_cast<long>(src + len));
        std::copy(span.begin(), span.end(),
                  out.begin() + static_cast<long>(dst));
        description = "splice " + std::to_string(len) + " bytes from " +
                      std::to_string(src) + " over " + std::to_string(dst);
        break;
      }
      case CorruptionKind::LengthLie: {
        size_t pos = rng.below(out.size() - 3);
        uint32_t value = static_cast<uint32_t>(rng.next());
        for (unsigned i = 0; i < 4; ++i)
            out[pos + i] = static_cast<uint8_t>(value >> (24 - 8 * i));
        description = "overwrite 4 bytes at " + std::to_string(pos) +
                      " with " + hex32(value);
        break;
      }
    }
    return out;
}

namespace {

/** Execute an already-loaded mutant, with panics trapped, and compare
 *  against the pristine run. */
MutantReport
runMutant(const compress::CompressedImage &image, const ExecResult &expected,
          uint64_t max_steps, std::string description)
{
    MutantReport report{MutantOutcome::RanIdentical, std::move(description),
                        {}};
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
    return report;
}

} // namespace

MutantReport
classifyMutantBytes(const std::vector<uint8_t> &mutant,
                    const ExecResult &expected, uint64_t max_steps,
                    std::string description)
{
    Result<compress::CompressedImage> loaded = tryLoadImage(mutant);
    if (!loaded.ok())
        return {MutantOutcome::LoadRejected, std::move(description),
                loaded.error().message()};
    return runMutant(loaded.value(), expected, max_steps,
                     std::move(description));
}

MutantReport
classifyMutantImage(const compress::CompressedImage &mutant,
                    const ExecResult &expected, uint64_t max_steps,
                    std::string description)
{
    if (std::optional<LoadError> error = validateImage(mutant))
        return {MutantOutcome::LoadRejected, std::move(description),
                error->message()};
    return runMutant(mutant, expected, max_steps, std::move(description));
}

std::vector<StructuralMutant>
structuralMutants(const Program &program,
                  const compress::CompressedImage &image)
{
    std::vector<StructuralMutant> mutants;
    auto add = [&mutants, &image](std::string description) ->
        compress::CompressedImage & {
        mutants.push_back({image, std::move(description)});
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
        compress::CompressedImage &corrupted =
            add("jump-table slot at .data+" +
                std::to_string(reloc.dataOffset) +
                " redirected past the compressed text");
        for (unsigned b = 0; b < 4; ++b)
            corrupted.data[reloc.dataOffset + b] =
                static_cast<uint8_t>(bogus >> (24 - 8 * b));
    }
    if (reloc_count > 0) {
        const CodeReloc &reloc = program.codeRelocs[0];
        compress::CompressedImage &corrupted =
            add("jump-table slot at .data+" +
                std::to_string(reloc.dataOffset) +
                " redirected below the text base");
        uint32_t bogus = compress::CompressedImage::nibbleBase - 4;
        for (unsigned b = 0; b < 4; ++b)
            corrupted.data[reloc.dataOffset + b] =
                static_cast<uint8_t>(bogus >> (24 - 8 * b));
    }
    return mutants;
}

CorruptionCampaign
runCorruptionCampaign(const Program &program,
                      const compress::CompressedImage &image,
                      uint64_t count, uint64_t seed, uint64_t max_steps)
{
    CorruptionCampaign campaign;
    auto tally = [&campaign](MutantReport report) {
        ++campaign.total;
        switch (report.outcome) {
          case MutantOutcome::LoadRejected:
            ++campaign.loadRejected;
            break;
          case MutantOutcome::Trapped:
            ++campaign.trapped;
            break;
          case MutantOutcome::RanIdentical:
            ++campaign.ranIdentical;
            break;
          case MutantOutcome::SilentDivergence:
          case MutantOutcome::Panicked:
            campaign.failures.push_back(std::move(report));
            break;
        }
    };

    ExecResult expected = runCompressed(image, max_steps);
    std::vector<uint8_t> bytes = saveImage(image);
    constexpr CorruptionKind kinds[] = {
        CorruptionKind::BitFlip, CorruptionKind::Truncate,
        CorruptionKind::Splice, CorruptionKind::LengthLie};
    Rng rng(seed);
    for (uint64_t i = 0; i < count; ++i) {
        CorruptionKind kind = kinds[i % 4];
        std::string description;
        std::vector<uint8_t> mutant =
            corruptBytes(bytes, kind, rng, description);
        tally(classifyMutantBytes(
            mutant, expected, max_steps,
            std::string(corruptionKindName(kind)) + ": " + description));
    }
    for (StructuralMutant &mutant : structuralMutants(program, image))
        tally(classifyMutantImage(mutant.image, expected, max_steps,
                                  std::move(mutant.description)));
    return campaign;
}

} // namespace codecomp::verify
