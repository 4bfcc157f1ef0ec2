/**
 * @file
 * Candidate enumeration against the map-based reference enumerator
 * (candidate_oracle.hh): the prefix-ID refinement must produce the same
 * sequences, the same occurrence lists, and the same candidate order,
 * and lay the lists out as one contiguous CSR array.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

#include "candidate_oracle.hh"
#include "codegen/codegen.hh"
#include "workloads/generator.hh"
#include "workloads/workloads.hh"

using namespace codecomp;
using namespace codecomp::compress;

namespace {

/** Enumerate @p program both ways and require identical results. */
void
expectMatchesOracle(const Program &program, uint32_t minLen,
                    uint32_t maxLen, const std::string &what)
{
    SCOPED_TRACE(what + " lengths " + std::to_string(minLen) + ".." +
                 std::to_string(maxLen));
    Cfg cfg = Cfg::build(program);
    CandidateSet set = enumerateCandidates(program, cfg, minLen, maxLen);
    std::vector<test::OracleCandidate> oracle =
        test::oracleEnumerate(program, cfg, minLen, maxLen);

    EXPECT_EQ(set.text, program.text);
    ASSERT_EQ(set.size(), oracle.size());
    uint32_t expected_begin = 0;
    for (size_t i = 0; i < oracle.size(); ++i) {
        const Candidate &cand = set[i];
        std::span<const isa::Word> seq = set.sequenceOf(cand);
        std::span<const uint32_t> positions = set.positionsOf(cand);
        ASSERT_TRUE(std::ranges::equal(seq, oracle[i].seq))
            << "sequence of candidate " << i;
        ASSERT_TRUE(std::ranges::equal(positions, oracle[i].positions))
            << "positions of candidate " << i;
        ASSERT_EQ(cand.firstPos, oracle[i].positions.front()) << i;
        ASSERT_EQ(cand.posBegin, expected_begin) << "CSR gap at " << i;
        expected_begin = cand.posEnd;
    }
    EXPECT_EQ(expected_begin, set.positions.size());
}

/** Three copies of one long straight-line loop body: every chain of up
 *  to ~2 * stmts instructions in it occurs three times. */
Program
repeatedChainsProgram()
{
    std::string source;
    for (const char *name : {"chain_a", "chain_b", "chain_c"})
        source += workloads::bigLoopFunction(name, 40, 11);
    source += "int main() {\n"
              "    puti(chain_a(1) + chain_b(2) + chain_c(3));\n"
              "    return 0;\n"
              "}\n";
    return codegen::compile(source);
}

} // namespace

TEST(CandidateOracle, MatchesOnEveryWorkload)
{
    for (const std::string &name : workloads::benchmarkNames())
        expectMatchesOracle(workloads::buildBenchmark(name), 1, 4, name);
}

TEST(CandidateOracle, MatchesOnGccAtScale4)
{
    expectMatchesOracle(workloads::buildBenchmark("gcc", 4), 1, 4,
                        "gcc x4");
}

TEST(CandidateOracle, MatchesAcrossLengthWindows)
{
    const std::pair<uint32_t, uint32_t> windows[] = {
        {1, 1}, {1, 4}, {2, 4}, {1, 8}, {1, 64}};
    for (const char *name : {"compress", "li"}) {
        Program program = workloads::buildBenchmark(name);
        for (auto [min_len, max_len] : windows)
            expectMatchesOracle(program, min_len, max_len, name);
    }
}

TEST(CandidateOracle, MatchesOnLongRepeatedChains)
{
    Program program = repeatedChainsProgram();
    for (auto [min_len, max_len] :
         {std::pair{1u, 8u}, std::pair{1u, 64u}, std::pair{8u, 64u}})
        expectMatchesOracle(program, min_len, max_len, "chains");

    // The program really does repeat long chains: some sequence of at
    // least 8 instructions occurs more than once.
    Cfg cfg = Cfg::build(program);
    CandidateSet set = enumerateCandidates(program, cfg, 8, 64);
    EXPECT_TRUE(std::ranges::any_of(set, [](const Candidate &cand) {
        return cand.posEnd - cand.posBegin >= 2;
    }));
}
