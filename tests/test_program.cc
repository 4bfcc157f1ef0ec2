/**
 * @file
 * Tests for the Program model and the basic-block (Cfg) analysis.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "codegen/codegen.hh"
#include "isa/builder.hh"
#include "program/cfg.hh"
#include "program/program.hh"
#include "workloads/workloads.hh"

using namespace codecomp;
namespace isa = codecomp::isa;

namespace {

/** The block leaders of @p cfg, ascending: the first index of every
 *  block. */
std::vector<uint32_t>
leaders(const Cfg &cfg)
{
    std::vector<uint32_t> starts;
    for (const InstRange &block : cfg.blocks())
        starts.push_back(block.first);
    return starts;
}

TEST(ProgramModel, AddressIndexRoundTrip)
{
    Program p;
    for (int i = 0; i < 10; ++i)
        p.text.push_back(isa::encode(isa::nop()));
    p.entryIndex = 0;
    p.finalize();
    EXPECT_EQ(p.textBytes(), 40u);
    for (uint32_t i = 0; i < 10; ++i)
        EXPECT_EQ(p.indexOfAddr(p.addrOfIndex(i)), i);
    EXPECT_EQ(p.addrOfIndex(0), Program::textBase);
}

TEST(ProgramModel, DataBaseAlignedAboveText)
{
    Program p;
    p.text.assign(1000, isa::encode(isa::nop()));
    p.entryIndex = 0;
    p.finalize();
    EXPECT_GE(p.dataBase, Program::textBase + p.textBytes());
    EXPECT_EQ(p.dataBase % Program::dataAlign, 0u);
}

TEST(ProgramModel, BranchTargetIndex)
{
    Program p;
    p.text.push_back(isa::encode(isa::b(2)));    // 0 -> 2
    p.text.push_back(isa::encode(isa::nop()));   // 1
    p.text.push_back(isa::encode(isa::bc(isa::Bo::Always, 0, -2))); // 2->0
    p.entryIndex = 0;
    p.finalize();
    EXPECT_EQ(p.branchTargetIndex(0), 2u);
    EXPECT_EQ(p.branchTargetIndex(2), 0u);
}

TEST(ProgramModel, FinalizeRejectsBadPrograms)
{
    {
        Program p; // branch off the end
        p.text.push_back(isa::encode(isa::b(5)));
        p.entryIndex = 0;
        EXPECT_DEATH(p.finalize(), "branch target");
    }
    {
        Program p; // entry out of range
        p.text.push_back(isa::encode(isa::nop()));
        p.entryIndex = 3;
        EXPECT_DEATH(p.finalize(), "entry point");
    }
    {
        Program p; // code reloc outside .text
        p.text.push_back(isa::encode(isa::nop()));
        p.data.assign(8, 0);
        p.codeRelocs.push_back({0, 9});
        p.entryIndex = 0;
        EXPECT_DEATH(p.finalize(), "reloc");
    }
}

TEST(Cfg, LeadersAtBranchesTargetsAndEntries)
{
    Program p;
    p.text.push_back(isa::encode(isa::li(3, 1)));                    // 0
    p.text.push_back(isa::encode(isa::cmpi(0, 3, 0)));               // 1
    p.text.push_back(isa::encode(
        isa::bc(isa::Bo::IfTrue, isa::crBit(0, isa::CrBit::Eq), 2))); // 2->4
    p.text.push_back(isa::encode(isa::li(3, 2)));                    // 3
    p.text.push_back(isa::encode(isa::blr()));                       // 4
    p.entryIndex = 0;
    p.finalize();

    Cfg cfg = Cfg::build(p);
    // Leaders: 0 (entry), 3 (after the branch), 4 (its target).
    EXPECT_EQ(leaders(cfg), (std::vector<uint32_t>{0, 3, 4}));
    ASSERT_EQ(cfg.blocks().size(), 3u);
    EXPECT_EQ(cfg.blocks()[0].count, 3u);
    EXPECT_EQ(cfg.blocks()[1].count, 1u);
    EXPECT_EQ(cfg.blocks()[2].count, 1u);
}

TEST(Cfg, JumpTableTargetsAreLeaders)
{
    Program p = codegen::compile(R"(
        int pick(int x) {
            switch (x) {
              case 0: return 1;
              case 1: return 2;
              case 2: return 3;
              case 3: return 4;
              case 4: return 5;
              default: return 0;
            }
        }
        int main() { return pick(2); }
    )");
    ASSERT_FALSE(p.codeRelocs.empty());
    std::vector<uint32_t> starts = leaders(Cfg::build(p));
    for (const CodeReloc &reloc : p.codeRelocs)
        EXPECT_TRUE(std::binary_search(starts.begin(), starts.end(),
                                       reloc.targetIndex))
            << reloc.targetIndex;
}

/** Structural invariants over the whole suite. */
class CfgInvariants : public ::testing::TestWithParam<std::string>
{};

TEST_P(CfgInvariants, BlocksPartitionAndBranchesTerminate)
{
    Program p = workloads::buildBenchmark(GetParam());
    Cfg cfg = Cfg::build(p);

    uint32_t covered = 0;
    for (const InstRange &block : cfg.blocks()) {
        EXPECT_EQ(block.first, covered);
        EXPECT_GT(block.count, 0u);
        covered += block.count;
        // A branch may only be the last instruction of its block.
        for (uint32_t i = block.first; i + 1 < block.first + block.count;
             ++i)
            EXPECT_FALSE(isa::decode(p.text[i]).isBranch())
                << "branch mid-block at " << i;
    }
    EXPECT_EQ(covered, p.text.size());

    // Every branch target is a leader.
    std::vector<uint32_t> starts = leaders(cfg);
    for (uint32_t i = 0; i < p.text.size(); ++i) {
        if (isa::decode(p.text[i]).isRelativeBranch()) {
            EXPECT_TRUE(std::binary_search(starts.begin(), starts.end(),
                                           p.branchTargetIndex(i)))
                << "target of " << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Suite, CfgInvariants,
                         ::testing::Values("compress", "gcc", "go", "ijpeg",
                                           "li", "m88ksim", "perl",
                                           "vortex"));

} // namespace
