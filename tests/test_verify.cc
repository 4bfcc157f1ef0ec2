/**
 * @file
 * Tests for the lockstep differential-execution harness: full workload
 * sweeps under every scheme, far-branch stub handling, the
 * indirect-branch alignment invariant, the full-state memory walk,
 * the per-instruction step budget, and seeded fault injection (every
 * mutation kind must be reported as a divergence).
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>

#include "codegen/codegen.hh"
#include "compress/compressor.hh"
#include "decompress/compressed_cpu.hh"
#include "decompress/cpu.hh"
#include "decompress/fault.hh"
#include "isa/builder.hh"
#include "support/logging.hh"
#include "verify/fault.hh"
#include "verify/lockstep.hh"
#include "workloads/generator.hh"
#include "workloads/workloads.hh"

using namespace codecomp;
using namespace codecomp::compress;

namespace {

CompressedImage
compressScheme(const Program &p, Scheme scheme)
{
    CompressorConfig config;
    config.scheme = scheme;
    return compressProgram(p, config);
}

// ---------------- full workload sweep ----------------

class LockstepWorkloads
    : public ::testing::TestWithParam<std::tuple<std::string, Scheme>>
{};

TEST_P(LockstepWorkloads, VerifiesWithZeroDivergences)
{
    const auto &[name, scheme] = GetParam();
    Program p = workloads::buildBenchmark(name);
    CompressedImage image = compressScheme(p, scheme);

    verify::LockstepResult result = verify::runLockstep(p, image);
    EXPECT_TRUE(result.ok()) << verify::formatReport(result);
    EXPECT_TRUE(result.nativeHalted);
    EXPECT_TRUE(result.compressedHalted);
    // Every native instruction was paired: stub traversals pair one
    // native branch with a group of synthetic compressed retires, all
    // other pairings are one-to-one.
    EXPECT_EQ(result.verifiedInsts, result.native.instCount);
    EXPECT_EQ(result.verifiedInsts + result.syntheticInsts,
              result.compressed.instCount + result.stubTraversals);
    EXPECT_EQ(result.native.output, result.compressed.output);
    EXPECT_EQ(result.native.exitCode, result.compressed.exitCode);
    EXPECT_GE(result.fullStateChecks, 2u); // entry + exit
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, LockstepWorkloads,
    ::testing::Combine(
        ::testing::ValuesIn(workloads::benchmarkNames()),
        ::testing::ValuesIn(allSchemes())),
    [](const auto &info) {
        return std::get<0>(info.param) + "_" +
               std::string(schemeCliName(std::get<1>(info.param)));
    });

// The IterativeRefit strategy picks a different dictionary than plain
// greedy; lockstep every workload under it too so the rank-aware
// selection gets the same differential coverage.
class LockstepRefitWorkloads
    : public ::testing::TestWithParam<std::tuple<std::string, Scheme>>
{};

TEST_P(LockstepRefitWorkloads, VerifiesWithZeroDivergences)
{
    const auto &[name, scheme] = GetParam();
    Program p = workloads::buildBenchmark(name);
    CompressorConfig config;
    config.scheme = scheme;
    config.strategy = StrategyKind::IterativeRefit;
    CompressedImage image = compressProgram(p, config);

    verify::LockstepResult result = verify::runLockstep(p, image);
    EXPECT_TRUE(result.ok()) << verify::formatReport(result);
    EXPECT_TRUE(result.nativeHalted);
    EXPECT_TRUE(result.compressedHalted);
    EXPECT_EQ(result.verifiedInsts, result.native.instCount);
    EXPECT_EQ(result.native.output, result.compressed.output);
    EXPECT_EQ(result.native.exitCode, result.compressed.exitCode);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, LockstepRefitWorkloads,
    ::testing::Combine(
        ::testing::ValuesIn(workloads::benchmarkNames()),
        ::testing::ValuesIn(allSchemes())),
    [](const auto &info) {
        return std::get<0>(info.param) + "_" +
               std::string(schemeCliName(std::get<1>(info.param)));
    });

// ---------------- far-branch stubs ----------------

TEST(LockstepFarBranch, SyntheticStubInstructionsAreVerified)
{
    // A conditional branch spanning a > 4 KiB loop body loses offset
    // range at nibble granularity and runs through a stub: several
    // compressed instructions retire for one native branch.
    std::string src =
        workloads::bigLoopFunction("huge", 3000, 7) +
        "int main() { puti(huge(5)); return 0; }\n";
    Program p = codegen::compile(src);
    CompressedImage image = compressScheme(p, Scheme::Nibble);
    ASSERT_GE(image.farBranchExpansions, 1u)
        << "test needs at least one stub to be meaningful";

    verify::LockstepResult result = verify::runLockstep(p, image);
    EXPECT_TRUE(result.ok()) << verify::formatReport(result);
    EXPECT_GT(result.syntheticInsts, 0u);
    EXPECT_GE(result.stubTraversals, 1u);
    EXPECT_EQ(result.verifiedInsts, result.native.instCount);
}

// ---------------- indirect-branch alignment invariant ----------------

std::vector<isa::Inst>
badLrInsts()
{
    // Load a misaligned code address (native text base + 6) into LR by
    // literal, so both processors agree on every register value right
    // up until blr consumes the bad pointer.
    return {
        isa::lis(4, 1),     // 0: r4 = 0x00010000 (text base)
        isa::ori(4, 4, 6),  // 1: r4 = 0x00010006, not 4-aligned
        isa::mtlr(4),       // 2
        isa::blr(),         // 3
        isa::li(0, 0),      // 4: unreachable
        isa::sc(),          // 5
    };
}

Program
rawProgram(const std::vector<isa::Inst> &insns)
{
    Program p;
    for (const isa::Inst &inst : insns)
        p.text.push_back(isa::encode(inst));
    p.entryIndex = 0;
    p.finalize();
    return p;
}

TEST(LockstepBadLr, NativeCpuRefusesMisalignedIndirectTarget)
{
    // The native Cpu used to mask LR/CTR with ~3, silently repairing
    // exactly the corruption a lockstep run exists to expose. Under the
    // machine-check model the bad pointer raises a catchable fault.
    Program p = rawProgram(badLrInsts());
    try {
        runProgram(p, 1 << 20);
        FAIL() << "misaligned LR target went unnoticed";
    } catch (const MachineCheckError &error) {
        EXPECT_EQ(error.fault(), MachineFault::MisalignedPc);
        EXPECT_NE(std::string(error.what()).find("misaligned"),
                  std::string::npos);
    }
}

TEST(LockstepBadLr, HarnessReportsCorruptedLrAsDivergence)
{
    Program p = rawProgram(badLrInsts());
    CompressedImage image = compressScheme(p, Scheme::Nibble);

    verify::LockstepResult result = verify::runLockstep(p, image);
    ASSERT_FALSE(result.ok());
    // Both processors validate the pointer at the taken blr itself; the
    // compressed side steps first, so its machine check surfaces as a
    // reported divergence attributed to the branch (the literal 0x10006
    // is below the compressed text base), not a process abort at some
    // later fetch.
    EXPECT_NE(result.divergences[0].kind.find("fault"), std::string::npos)
        << verify::formatReport(result);
    EXPECT_NE(result.divergences[0].detail.find("branch target"),
              std::string::npos)
        << verify::formatReport(result);
}

// ---------------- full-state memory walk ----------------

/** li r3,0; li r0,Exit; sc over 16 bytes of .data: words 0 and 4 are
 *  jump-table slots for instructions 0 and 2, words 8 and 12 plain
 *  data the program never touches. */
Program
dataProgram()
{
    Program p;
    for (const isa::Inst &inst :
         {isa::li(3, 0),
          isa::li(0, static_cast<int32_t>(isa::Syscall::Exit)),
          isa::sc()})
        p.text.push_back(isa::encode(inst));
    p.data = {0, 0, 0, 0, 0, 0, 0, 0,
              0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88};
    p.codeRelocs = {{0, 0}, {4, 2}};
    p.finalize();
    return p;
}

void
putWordBE(std::vector<uint8_t> &bytes, uint32_t offset, uint32_t value)
{
    for (unsigned i = 0; i < 4; ++i)
        bytes[offset + i] = static_cast<uint8_t>(value >> (24 - 8 * i));
}

TEST(LockstepMemory, MutatedDataWordIsOneMemoryDivergencePerCheck)
{
    Program p = dataProgram();
    CompressedImage image = compressScheme(p, Scheme::Nibble);
    // One byte in the middle of the plain word at .data + 8.
    image.data[10] ^= 0x0f;

    verify::LockstepConfig config;
    config.maxDivergences = 8;
    verify::LockstepResult result = verify::runLockstep(p, image, config);
    char word[80];
    std::snprintf(word, sizeof(word),
                  "memory word at 0x%08x native 0x11223344 vs compressed "
                  "0x11223c44",
                  p.dataBase + 8);
    std::string detail = word;
    // The entry walk reports the word once, not once per differing
    // byte; the untouched word survives to the exit walk.
    ASSERT_EQ(result.divergences.size(), 2u) << verify::formatReport(result);
    EXPECT_EQ(result.divergences[0].kind, "memory");
    EXPECT_EQ(result.divergences[0].atInst, 0u);
    EXPECT_EQ(result.divergences[0].detail, detail + " (entry check)");
    EXPECT_EQ(result.divergences[1].kind, "memory");
    EXPECT_EQ(result.divergences[1].atInst, 3u);
    EXPECT_EQ(result.divergences[1].detail, detail + " (exit check)");
}

TEST(LockstepMemory, PointerEquivalentJumpTableSlotIsAccepted)
{
    Program p = dataProgram();
    CompressedImage image = compressScheme(p, Scheme::Nibble);
    // Redirect slot 0 from instruction 0 to instruction 2 on both
    // sides: the native processor patches byte addresses from the
    // relocation, the compressed image holds the nibble pointer.
    p.codeRelocs[0].targetIndex = 2;
    putWordBE(image.data, 0, image.codePointer(2));
    ASSERT_NE(image.codePointer(2), p.addrOfIndex(2));

    verify::LockstepConfig config;
    config.maxDivergences = 8;
    verify::LockstepResult result = verify::runLockstep(p, image, config);
    EXPECT_TRUE(result.ok()) << verify::formatReport(result);
    EXPECT_EQ(result.fullStateChecks, 2u);
    EXPECT_EQ(result.verifiedInsts, 3u);
}

// ---------------- per-instruction step budget ----------------

TEST(CompressedCpuBudget, MaxStepsEnforcedInsideDictionaryEntries)
{
    // Hand-build a program where instructions 1..4 compress into one
    // four-instruction dictionary entry, so a budget landing inside
    // the expansion can only be honored per expanded instruction.
    std::vector<isa::Inst> insns = {
        isa::li(3, 0),       // 0
        isa::addi(3, 3, 1),  // 1: first of one four-inst codeword
        isa::addi(3, 3, 1),  // 2
        isa::addi(3, 3, 1),  // 3
        isa::addi(3, 3, 1),  // 4: last of the codeword
        isa::li(0, 0),       // 5
        isa::sc(),           // 6
    };
    Program p = rawProgram(insns);

    SelectionResult selection;
    selection.dict.entries = {{
        isa::encode(isa::addi(3, 3, 1)), isa::encode(isa::addi(3, 3, 1)),
        isa::encode(isa::addi(3, 3, 1)), isa::encode(isa::addi(3, 3, 1)),
    }};
    selection.placements = {{1, 4, 0}};
    selection.useCount = {1};
    CompressorConfig config;
    CompressedImage image = compressWithSelection(p, config, selection);

    // Budget expires after 3 instructions: mid-expansion. The old
    // between-items check let the whole entry retire (5 instructions)
    // before noticing.
    {
        CompressedCpu cpu(image);
        EXPECT_THROW(cpu.run(3), std::runtime_error);
        EXPECT_LE(cpu.instCount(), 3u);
    }
    // One short of the full dynamic count still throws, without
    // overshooting.
    {
        CompressedCpu cpu(image);
        EXPECT_THROW(cpu.run(6), std::runtime_error);
        EXPECT_LE(cpu.instCount(), 6u);
    }
    // The exact dynamic count completes.
    {
        CompressedCpu cpu(image);
        ExecResult r{};
        EXPECT_NO_THROW(r = cpu.run(7));
        EXPECT_EQ(r.instCount, 7u);
        EXPECT_EQ(r.exitCode, 4);
    }
}

TEST(CompressedCpuBudget, BudgetDoesNotOutliveEscapedFatal)
{
    // Same hand-built image as above: a four-instruction dictionary
    // entry guarantees the budget trips mid-expansion.
    std::vector<isa::Inst> insns = {
        isa::li(3, 0),       // 0
        isa::addi(3, 3, 1),  // 1
        isa::addi(3, 3, 1),  // 2
        isa::addi(3, 3, 1),  // 3
        isa::addi(3, 3, 1),  // 4
        isa::li(0, 0),       // 5
        isa::sc(),           // 6
    };
    Program p = rawProgram(insns);

    SelectionResult selection;
    selection.dict.entries = {{
        isa::encode(isa::addi(3, 3, 1)), isa::encode(isa::addi(3, 3, 1)),
        isa::encode(isa::addi(3, 3, 1)), isa::encode(isa::addi(3, 3, 1)),
    }};
    selection.placements = {{1, 4, 0}};
    selection.useCount = {1};
    CompressorConfig config;
    CompressedImage image = compressWithSelection(p, config, selection);

    CompressedCpu cpu(image);
    EXPECT_THROW(cpu.run(3), std::runtime_error);
    // run() used to leave step_limit_ == 3 behind when the watchdog
    // fatal escaped, so this manual step() -- outside any run() budget
    // -- would immediately re-trip the stale limit. The RAII guard
    // restores the unbudgeted default on unwind.
    EXPECT_NO_THROW(cpu.step());
    while (cpu.step()) {
    }
    EXPECT_TRUE(cpu.machine().halted());
}

TEST(IndirectBranchCheck, CompressedAttributesCorruptLrAtTheBranch)
{
    // The literal 0x10006 is a native text address; in the compressed
    // space it sits below the nibble base, so the blr consumes a wild
    // pointer. The fault must carry the branch's target and fire on
    // the branch step itself -- not on the following fetch, where the
    // faulting PC would no longer name the culprit.
    Program p = rawProgram(badLrInsts());
    CompressedImage image = compressScheme(p, Scheme::Nibble);
    CompressedCpu cpu(image);
    try {
        while (cpu.step()) {
        }
        FAIL() << "corrupt LR went unnoticed at the branch";
    } catch (const MachineCheckError &error) {
        EXPECT_EQ(error.fault(), MachineFault::FetchOutOfText);
        EXPECT_EQ(error.addr(), 0x00010006u);
        EXPECT_NE(std::string(error.what()).find("branch target"),
                  std::string::npos)
            << error.what();
    }
    // lis, ori, mtlr retired, then the blr itself (counted before its
    // target check); nothing after the branch ran.
    EXPECT_EQ(cpu.instCount(), 4u);
}

// ---------------- fault injection ----------------

/** The lockstep fault @p kind of @p image, drawn from Rng(@p seed). */
verify::Mutant
lockstepFault(const Program &p, const CompressedImage &image,
              verify::MutationKind kind, uint64_t seed)
{
    verify::MutationPlan plan;
    plan.kinds = {kind};
    plan.seed = seed;
    verify::Mutant fault{};
    verify::forEachMutant(p, image,
                          verify::runPristine(image, plan.lockstep.maxSteps),
                          plan, [&](const verify::Mutant &m) { fault = m; });
    return fault;
}

class FaultInjectionKinds
    : public ::testing::TestWithParam<
          std::tuple<verify::MutationKind, uint64_t>>
{};

TEST_P(FaultInjectionKinds, SeededFaultIsReportedAsDivergence)
{
    const auto &[kind, seed] = GetParam();
    Program p = workloads::buildBenchmark("compress");
    CompressedImage image = compressScheme(p, Scheme::Nibble);

    verify::Mutant fault = lockstepFault(p, image, kind, seed);
    EXPECT_FALSE(fault.description.empty());

    verify::LockstepResult result =
        verify::runLockstep(p, fault.image);
    ASSERT_FALSE(result.ok())
        << "undetected fault: " << fault.description;
    // The report must carry disassembled context from both sides.
    const verify::Divergence &d = result.divergences.front();
    EXPECT_FALSE(d.kind.empty());
    EXPECT_FALSE(d.detail.empty());
    EXPECT_FALSE(d.compressedWindow.empty());
    std::string report = verify::formatReport(result);
    EXPECT_NE(report.find("compressed window"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndSeeds, FaultInjectionKinds,
    ::testing::Combine(
        ::testing::Values(verify::MutationKind::DictEntryWord,
                          verify::MutationKind::CodewordRank,
                          verify::MutationKind::BranchDisp),
        ::testing::Values(uint64_t{1}, uint64_t{2})),
    [](const auto &info) {
        // "dict-entry-word" -> "DictEntryWord"
        std::string kind;
        bool upper = true;
        for (const char *c = verify::kindName(std::get<0>(info.param));
             *c; ++c) {
            if (*c == '-') {
                upper = true;
                continue;
            }
            kind += upper ? static_cast<char>(std::toupper(*c)) : *c;
            upper = false;
        }
        return kind + "Seed" + std::to_string(std::get<1>(info.param));
    });

TEST(FaultInjectionDeterminism, SameSeedSameMutation)
{
    Program p = workloads::buildBenchmark("compress");
    CompressedImage image = compressScheme(p, Scheme::Nibble);
    verify::Mutant a =
        lockstepFault(p, image, verify::MutationKind::DictEntryWord, 42);
    verify::Mutant b =
        lockstepFault(p, image, verify::MutationKind::DictEntryWord, 42);
    EXPECT_EQ(a.description, b.description);
    EXPECT_EQ(a.image.entriesByRank, b.image.entriesByRank);
}

TEST(MutationCampaign, NonHaltingProgramHonoursTheStepBudget)
{
    // Both families start from one pristine run under the plan's step
    // budget, so a program that never halts is refused at that budget
    // with a fatal (input) error, not a panic.
    Program p = codegen::compile("int main() { while (1) { } return 0; }");
    CompressedImage image = compressScheme(p, Scheme::Nibble);
    for (verify::MutationKind kind :
         {verify::MutationKind::DictEntryWord,
          verify::MutationKind::BitFlip}) {
        verify::MutationPlan plan;
        plan.kinds = {kind};
        plan.count = 4;
        plan.lockstep.maxSteps = 100000;
        try {
            verify::runCampaign(p, image, plan);
            ADD_FAILURE() << verify::kindName(kind) << " ran unbounded";
        } catch (const PanicError &error) {
            ADD_FAILURE() << verify::kindName(kind) << ": " << error.what();
        } catch (const std::runtime_error &error) {
            EXPECT_NE(std::string(error.what())
                          .find("compressed program exceeded 100000 steps"),
                      std::string::npos)
                << error.what();
        }
    }
}

TEST(MutationCampaign, FaultWithNoSiteIsReportedNotPanicked)
{
    // No runtime: a handful of instructions, too few codewords for a
    // same-width rank swap under some schemes. A missing site is an
    // outcome; every other fault of the sweep still runs and is
    // detected.
    codegen::CompileOptions options;
    options.includeRuntime = false;
    Program p = codegen::compile("int main() { exit(3); }", options);
    size_t no_site = 0;
    for (Scheme scheme : allSchemes()) {
        verify::MutationPlan plan;
        plan.kinds = {verify::MutationKind::DictEntryWord,
                      verify::MutationKind::CodewordRank,
                      verify::MutationKind::BranchDisp};
        verify::CampaignReport report =
            verify::runCampaign(p, compressScheme(p, scheme), plan);
        ASSERT_EQ(report.mutants.size(), 3u) << schemeName(scheme);
        EXPECT_TRUE(report.ok()) << schemeName(scheme);
        for (const verify::MutantReport &mutant : report.mutants) {
            EXPECT_TRUE(mutant.outcome == verify::MutantOutcome::Detected ||
                        mutant.outcome == verify::MutantOutcome::NoSite)
                << schemeName(scheme) << " "
                << verify::kindName(mutant.kind) << ": "
                << verify::outcomeName(mutant.outcome);
            EXPECT_FALSE(mutant.description.empty());
        }
        no_site += report.count(verify::MutantOutcome::NoSite);
    }
    EXPECT_GT(no_site, 0u);
}

TEST(LockstepReport, DivergenceCountAndWindowsAreBounded)
{
    Program p = workloads::buildBenchmark("compress");
    CompressedImage image = compressScheme(p, Scheme::Nibble);
    verify::Mutant fault =
        lockstepFault(p, image, verify::MutationKind::DictEntryWord, 3);

    verify::LockstepConfig config;
    config.maxDivergences = 4;
    config.window = 5;
    verify::LockstepResult result =
        verify::runLockstep(p, fault.image, config);
    ASSERT_FALSE(result.ok());
    EXPECT_LE(result.divergences.size(), 4u);
    for (const verify::Divergence &d : result.divergences) {
        EXPECT_LE(d.nativeWindow.size(), 5u);
        EXPECT_LE(d.compressedWindow.size(), 5u);
    }
}

} // namespace
