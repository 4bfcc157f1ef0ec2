/**
 * @file
 * Instruction-semantics unit tests for the Machine data path and the
 * plain Cpu fetch loop: arithmetic, logic, shifts, rotates, memory
 * byte order, condition register behaviour, branches, calls, and
 * syscalls -- each checked against hand-computed values.
 */

#include <gtest/gtest.h>

#include <optional>
#include <tuple>
#include <vector>

#include "decompress/cpu.hh"
#include "decompress/fault.hh"
#include "decompress/machine.hh"
#include "isa/builder.hh"

using namespace codecomp;
namespace isa = codecomp::isa;

namespace {

/** Fault kind raised by @p fn, or nullopt if it completes. */
template <typename Fn>
std::optional<MachineFault>
faultKind(Fn &&fn)
{
    try {
        fn();
    } catch (const MachineCheckError &error) {
        return error.fault();
    }
    return std::nullopt;
}

/** Run instructions on a bare machine (no branches allowed). */
Machine
exec(std::initializer_list<isa::Inst> insns)
{
    Machine machine;
    for (const isa::Inst &inst : insns)
        machine.execute(inst);
    return machine;
}

TEST(MachineAlu, AddSubNeg)
{
    Machine m = exec({isa::li(3, 7), isa::li(4, -9), isa::add(5, 3, 4),
                      isa::subf(6, 4, 3), isa::neg(7, 3)});
    EXPECT_EQ(m.gpr(5), static_cast<uint32_t>(-2));
    EXPECT_EQ(m.gpr(6), 16u); // 7 - (-9)
    EXPECT_EQ(m.gpr(7), static_cast<uint32_t>(-7));
}

TEST(MachineAlu, AddiWithR0ReadsZero)
{
    Machine m = exec({isa::li(0, 123), isa::li(3, 0), isa::addi(4, 0, 5)});
    // addi with ra=0 ignores r0's contents.
    EXPECT_EQ(m.gpr(4), 5u);
}

TEST(MachineAlu, AddisAndOris)
{
    Machine m = exec({isa::lis(3, 0x1234), isa::ori(3, 3, 0x5678),
                      isa::lis(4, -1), isa::oris(5, 3, 0xff00)});
    EXPECT_EQ(m.gpr(3), 0x12345678u);
    EXPECT_EQ(m.gpr(4), 0xffff0000u);
    EXPECT_EQ(m.gpr(5), 0xff345678u);
}

TEST(MachineAlu, MulDivMod)
{
    Machine m = exec({isa::li(3, -6), isa::li(4, 4), isa::mullw(5, 3, 4),
                      isa::divw(6, 3, 4), isa::mulli(7, 3, -3)});
    EXPECT_EQ(static_cast<int32_t>(m.gpr(5)), -24);
    EXPECT_EQ(static_cast<int32_t>(m.gpr(6)), -1); // trunc toward zero
    EXPECT_EQ(static_cast<int32_t>(m.gpr(7)), 18);
}

TEST(MachineAlu, DivisionEdgeCasesPinned)
{
    Machine m = exec({isa::li(3, 5), isa::li(4, 0), isa::divw(5, 3, 4),
                      isa::lis(6, -32768), isa::li(7, -1),
                      isa::divw(8, 6, 7)});
    EXPECT_EQ(m.gpr(5), 0u); // x/0 == 0 by definition here
    EXPECT_EQ(m.gpr(8), 0u); // INT_MIN / -1 == 0 by definition here
}

TEST(MachineAlu, LogicOps)
{
    Machine m = exec({isa::li(3, 0b1100), isa::li(4, 0b1010),
                      isa::and_(5, 3, 4), isa::or_(6, 3, 4),
                      isa::xor_(7, 3, 4), isa::andi(8, 3, 0b0110),
                      isa::xori(9, 3, 0xff)});
    EXPECT_EQ(m.gpr(5), 0b1000u);
    EXPECT_EQ(m.gpr(6), 0b1110u);
    EXPECT_EQ(m.gpr(7), 0b0110u);
    EXPECT_EQ(m.gpr(8), 0b0100u);
    EXPECT_EQ(m.gpr(9), 0xf3u);
}

TEST(MachineAlu, ShiftsIncludingOverwideAmounts)
{
    Machine m = exec({isa::li(3, -16), isa::li(4, 2), isa::slw(5, 3, 4),
                      isa::srw(6, 3, 4), isa::sraw(7, 3, 4),
                      isa::li(8, 40), isa::slw(9, 3, 8),
                      isa::sraw(10, 3, 8), isa::srawi(11, 3, 3)});
    EXPECT_EQ(static_cast<int32_t>(m.gpr(5)), -64);
    EXPECT_EQ(m.gpr(6), 0xfffffff0u >> 2);
    EXPECT_EQ(static_cast<int32_t>(m.gpr(7)), -4);
    EXPECT_EQ(m.gpr(9), 0u);  // shift >= 32 -> 0
    EXPECT_EQ(m.gpr(10), 0xffffffffu); // arithmetic >= 32 -> sign
    EXPECT_EQ(static_cast<int32_t>(m.gpr(11)), -2);
}

TEST(MachineAlu, RlwinmMasksAndRotates)
{
    // clrlwi 24: keep low 8 bits.
    Machine m = exec({isa::lis(3, 0x1234), isa::ori(3, 3, 0x56f8),
                      isa::clrlwi(4, 3, 24), isa::slwi(5, 3, 4),
                      isa::srwi(6, 3, 8),
                      isa::rlwinm(7, 3, 8, 24, 31)});
    EXPECT_EQ(m.gpr(4), 0xf8u);
    EXPECT_EQ(m.gpr(5), 0x23456f80u);
    EXPECT_EQ(m.gpr(6), 0x00123456u);
    EXPECT_EQ(m.gpr(7), 0x12u); // rotate left 8, keep low byte
}

TEST(MachineMemory, BigEndianWordHalfByte)
{
    Machine m;
    m.setGpr(3, 0x11223344);
    m.setGpr(4, 0x1000);
    m.execute(isa::stw(3, 0, 4));
    EXPECT_EQ(m.loadByte(0x1000), 0x11u);
    EXPECT_EQ(m.loadByte(0x1003), 0x44u);
    EXPECT_EQ(m.loadHalf(0x1000), 0x1122u);
    EXPECT_EQ(m.loadHalf(0x1002), 0x3344u);
    EXPECT_EQ(m.loadWord(0x1000), 0x11223344u);

    m.execute(isa::lbz(5, 1, 4));
    EXPECT_EQ(m.gpr(5), 0x22u);
    m.execute(isa::lhz(6, 2, 4));
    EXPECT_EQ(m.gpr(6), 0x3344u);
    m.execute(isa::stb(3, 8, 4));
    EXPECT_EQ(m.loadByte(0x1008), 0x44u);
    m.execute(isa::sth(3, 12, 4));
    EXPECT_EQ(m.loadHalf(0x100c), 0x3344u);
}

TEST(MachineMemory, IndexedLoadAndNegativeDisplacement)
{
    Machine m;
    m.storeWord(0x2000, 0xabcd0123);
    m.setGpr(3, 0x1f00);
    m.setGpr(4, 0x100);
    m.execute(isa::lwzx(5, 3, 4));
    EXPECT_EQ(m.gpr(5), 0xabcd0123u);
    m.setGpr(6, 0x2004);
    m.execute(isa::lwz(7, -4, 6));
    EXPECT_EQ(m.gpr(7), 0xabcd0123u);
}

TEST(MachineCr, CompareFieldsIndependent)
{
    Machine m = exec({isa::li(3, 5), isa::li(4, 9), isa::cmp(0, 3, 4),
                      isa::cmp(3, 4, 3), isa::cmpi(7, 3, 5)});
    // cr0: 5 < 9 -> LT
    EXPECT_TRUE(m.evalCond(static_cast<uint8_t>(isa::Bo::IfTrue),
                           isa::crBit(0, isa::CrBit::Lt)));
    // cr3: 9 > 5 -> GT
    EXPECT_TRUE(m.evalCond(static_cast<uint8_t>(isa::Bo::IfTrue),
                           isa::crBit(3, isa::CrBit::Gt)));
    // cr7: 5 == 5 -> EQ
    EXPECT_TRUE(m.evalCond(static_cast<uint8_t>(isa::Bo::IfTrue),
                           isa::crBit(7, isa::CrBit::Eq)));
    EXPECT_FALSE(m.evalCond(static_cast<uint8_t>(isa::Bo::IfTrue),
                            isa::crBit(7, isa::CrBit::Lt)));
}

TEST(MachineCr, SignedVsUnsignedCompare)
{
    Machine m = exec({isa::li(3, -1), isa::li(4, 1), isa::cmp(0, 3, 4),
                      isa::cmpl(1, 3, 4)});
    // Signed: -1 < 1.
    EXPECT_TRUE(m.evalCond(static_cast<uint8_t>(isa::Bo::IfTrue),
                           isa::crBit(0, isa::CrBit::Lt)));
    // Unsigned: 0xffffffff > 1.
    EXPECT_TRUE(m.evalCond(static_cast<uint8_t>(isa::Bo::IfTrue),
                           isa::crBit(1, isa::CrBit::Gt)));
}

TEST(MachineCr, DecNzDecrementsCtr)
{
    Machine m;
    m.setCtr(2);
    EXPECT_TRUE(m.evalCond(static_cast<uint8_t>(isa::Bo::DecNz), 0));
    EXPECT_EQ(m.ctr(), 1u);
    EXPECT_FALSE(m.evalCond(static_cast<uint8_t>(isa::Bo::DecNz), 0));
    EXPECT_EQ(m.ctr(), 0u);
}

TEST(MachineSpr, LrCtrMoves)
{
    Machine m = exec({isa::li(3, 0x4444), isa::mtlr(3), isa::mflr(4),
                      isa::li(5, 9), isa::mtctr(5), isa::mfctr(6)});
    EXPECT_EQ(m.lr(), 0x4444u);
    EXPECT_EQ(m.gpr(4), 0x4444u);
    EXPECT_EQ(m.ctr(), 9u);
    EXPECT_EQ(m.gpr(6), 9u);
}

TEST(MachineSyscall, OutputAndExit)
{
    Machine m;
    m.setGpr(0, static_cast<uint32_t>(isa::Syscall::PutChar));
    m.setGpr(3, 'A');
    m.execute(isa::sc());
    m.setGpr(0, static_cast<uint32_t>(isa::Syscall::PutInt));
    m.setGpr(3, static_cast<uint32_t>(-12));
    m.execute(isa::sc());
    EXPECT_EQ(m.output(), "A-12\n");
    EXPECT_FALSE(m.halted());
    m.setGpr(0, static_cast<uint32_t>(isa::Syscall::Exit));
    m.setGpr(3, 3);
    m.execute(isa::sc());
    EXPECT_TRUE(m.halted());
    EXPECT_EQ(m.exitCode(), 3);
}

TEST(MachineState, StoreLogSeesEveryArchitecturalStore)
{
    Machine m;
    std::vector<Machine::Store> seen;
    m.setStoreLog(&seen);

    m.setGpr(5, 0x2000);
    m.setGpr(6, 0x00c0ffee);
    m.execute(isa::stw(6, 0, 5));
    m.execute(isa::sth(6, 8, 5));
    m.execute(isa::stb(6, 12, 5));
    // Loads are not logged.
    m.execute(isa::lwz(7, 0, 5));

    auto logged = [&seen] {
        std::vector<std::tuple<uint32_t, unsigned, uint32_t>> fields;
        for (const Machine::Store &store : seen)
            fields.emplace_back(store.addr, store.bytes, store.value);
        return fields;
    };
    decltype(logged()) want = {
        {0x2000, 4, 0x00c0ffee}, {0x2008, 2, 0xffee}, {0x200c, 1, 0xee}};
    EXPECT_EQ(logged(), want);
    EXPECT_EQ(m.loadWord(0x2000), 0x00c0ffeeu);
    EXPECT_EQ(m.gpr(7), 0x00c0ffeeu);

    // With the log detached, stores land but are not logged.
    m.setStoreLog(nullptr);
    m.execute(isa::stw(6, 16, 5));
    EXPECT_EQ(logged(), want);
    EXPECT_EQ(m.loadWord(0x2010), 0x00c0ffeeu);
}

TEST(MachineMemory, AccessNearAddressSpaceTopDoesNotWrapAround)
{
    // addr + 4 overflows uint32_t here; the bounds check must reject
    // the access rather than wrap to a small in-range address.
    Machine m;
    EXPECT_EQ(faultKind([&] { m.loadWord(0xfffffffe); }),
              MachineFault::MemoryOutOfRange);
    EXPECT_EQ(faultKind([&] { m.storeWord(0xfffffffe, 1); }),
              MachineFault::MemoryOutOfRange);
    EXPECT_EQ(faultKind([&] { m.loadHalf(0xffffffff); }),
              MachineFault::MemoryOutOfRange);
}

// ---------------- Cpu fetch loop ----------------

/** Build a raw program from instructions and run it. */
ExecResult
runRaw(const std::vector<isa::Inst> &insns)
{
    Program p;
    for (const isa::Inst &inst : insns)
        p.text.push_back(isa::encode(inst));
    p.entryIndex = 0;
    p.finalize();
    return runProgram(p, 1 << 20);
}

TEST(CpuFetch, StraightLineAndExit)
{
    ExecResult r = runRaw({isa::li(3, 9),
                           isa::li(0, 0), // Syscall::Exit
                           isa::sc()});
    EXPECT_EQ(r.exitCode, 9);
    EXPECT_EQ(r.instCount, 3u);
}

TEST(CpuFetch, ForwardAndBackwardBranches)
{
    // r3 counts down from 3 with a backward bc loop.
    ExecResult r = runRaw({
        isa::li(3, 3),            // 0
        isa::addi(3, 3, -1),      // 1: loop body
        isa::cmpi(0, 3, 0),       // 2
        isa::bc(isa::Bo::IfFalse, isa::crBit(0, isa::CrBit::Eq), -2), // 3
        isa::li(0, 0),            // 4
        isa::sc(),                // 5
    });
    EXPECT_EQ(r.exitCode, 0);
    // 1 + 3*3 + 2 = 12 dynamic instructions.
    EXPECT_EQ(r.instCount, 12u);
}

TEST(CpuFetch, CallAndReturnViaLr)
{
    ExecResult r = runRaw({
        isa::bl(3),        // 0: call the +3 "function"
        isa::li(0, 0),     // 1
        isa::sc(),         // 2
        isa::li(3, 77),    // 3: function body
        isa::blr(),        // 4
    });
    EXPECT_EQ(r.exitCode, 77);
}

TEST(CpuFetch, IndirectBranchThroughCtr)
{
    ExecResult r = runRaw({
        isa::lis(4, 1),            // 0: r4 = 0x10000 (textBase)
        isa::addi(4, 4, 5 * 4),    // 1: address of index 5
        isa::mtctr(4),             // 2
        isa::bctr(),               // 3
        isa::li(3, 1),             // 4: skipped
        isa::li(3, 42),            // 5: target
        isa::li(0, 0),             // 6
        isa::sc(),                 // 7
    });
    EXPECT_EQ(r.exitCode, 42);
}

TEST(CpuFetch, UntakenConditionalFallsThrough)
{
    ExecResult r = runRaw({
        isa::li(3, 1),
        isa::cmpi(0, 3, 1),
        isa::bc(isa::Bo::IfFalse, isa::crBit(0, isa::CrBit::Eq), 2),
        isa::li(3, 10), // executed: branch not taken (1 == 1)
        isa::li(0, 0),
        isa::sc(),
    });
    EXPECT_EQ(r.exitCode, 10);
}

TEST(CpuFetch, StepBudgetEnforced)
{
    Program p;
    p.text.push_back(isa::encode(isa::b(0))); // tight self-loop
    p.entryIndex = 0;
    p.finalize();
    Cpu cpu(p);
    EXPECT_THROW(cpu.run(1000), std::runtime_error);
}


TEST(CpuFetch, BclSetsLinkEvenWhenNotTaken)
{
    // PowerPC semantics: LK=1 writes LR regardless of the outcome.
    ExecResult r = runRaw({
        isa::li(3, 1),                                            // 0
        isa::cmpi(0, 3, 0),                                       // 1
        isa::bc(isa::Bo::IfTrue, isa::crBit(0, isa::CrBit::Eq), 3,
                true),                                            // 2
        isa::mflr(4),          // 3: LR = addr of index 3
        isa::lis(5, 1),        // 4: 0x10000
        isa::addi(5, 5, 12),   // 5: expected LR value
        isa::subf(3, 5, 4),    // 6: r3 = LR - expected = 0
        isa::li(0, 0),         // 7
        isa::sc(),             // 8
    });
    EXPECT_EQ(r.exitCode, 0);
}

TEST(CpuFetch, BdnzLoopCountsWithCtr)
{
    ExecResult r = runRaw({
        isa::li(3, 0),                        // 0
        isa::li(4, 5),                        // 1
        isa::mtctr(4),                        // 2
        isa::addi(3, 3, 1),                   // 3: loop body
        isa::bc(isa::Bo::DecNz, 0, -1),       // 4: bdnz -> 3
        isa::li(0, 0),                        // 5
        isa::sc(),                            // 6
    });
    EXPECT_EQ(r.exitCode, 5);
}

TEST(CpuFetch, ConditionalReturn)
{
    // beqlr: return only when the condition holds.
    ExecResult r = runRaw({
        isa::bl(4),                                              // 0
        isa::li(0, 0),                                           // 1
        isa::sc(),                                               // 2
        isa::nop(),                                              // 3
        isa::li(3, 1),                                           // 4 callee
        isa::cmpi(0, 3, 2),                                      // 5
        isa::bclr(isa::Bo::IfTrue, isa::crBit(0, isa::CrBit::Eq)), // 6
        isa::li(3, 77),                                          // 7
        isa::blr(),                                              // 8
    });
    EXPECT_EQ(r.exitCode, 77); // 1 != 2, fall through to 77
}


TEST(MachineMemory, OutOfRangeAccessFaults)
{
    Machine m;
    EXPECT_EQ(faultKind([&] { m.loadWord(Machine::memBytes - 2); }),
              MachineFault::MemoryOutOfRange);
    EXPECT_EQ(faultKind([&] { m.storeWord(Machine::memBytes, 1); }),
              MachineFault::MemoryOutOfRange);
    EXPECT_EQ(faultKind([&] { m.loadByte(Machine::memBytes); }),
              MachineFault::MemoryOutOfRange);
}

TEST(MachineCr, UnsupportedBoFaults)
{
    Machine m;
    EXPECT_EQ(faultKind([&] { m.evalCond(31, 0); }),
              MachineFault::BadCondition);
}

TEST(MachineSpr, UnknownSprFaults)
{
    Machine m;
    isa::Inst bad = isa::mtspr(isa::Spr::LR, 3);
    bad.spr = 123;
    EXPECT_EQ(faultKind([&] { m.execute(bad); }), MachineFault::BadSpr);
}

} // namespace
