/**
 * @file
 * Byte-identity gate for the lockstep verifier's reports: FNV-1a64
 * digests of verify::formatReport, pinned, for every seeded fault kind
 * and for a clean run with periodic full-state checks, under every
 * scheme on two workloads. A change to divergence detection, ordering
 * or wording -- or to the number of full-state walks -- shows up here,
 * even when every fault is still caught.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "compress/compressor.hh"
#include "support/serialize.hh"
#include "verify/fault.hh"
#include "verify/lockstep.hh"
#include "workloads/workloads.hh"

using namespace codecomp;
using namespace codecomp::compress;

namespace {

/** The seed of the fault-injection cases (ccverify --inject all
 *  --seed 7). */
constexpr uint64_t faultSeed = 7;

/** Full-state check interval of the clean case. */
constexpr uint64_t cleanCheckInterval = 100000;

uint64_t
textDigest(const std::string &text)
{
    return fnv1a64(reinterpret_cast<const uint8_t *>(text.data()),
                   text.size());
}

/** Key: "<scheme>/<fault kind>" or "<scheme>/clean". */
using ReportDigests = std::map<std::string, uint64_t>;

const std::map<std::string, ReportDigests> pinned = {
    {"compress",
     {
        {"baseline/clean", 0x9c13b9bcbaf06857ull},
        {"baseline/dict-entry-word", 0xb2153098f5688c64ull},
        {"baseline/codeword-rank", 0x68c5e726818738c6ull},
        {"baseline/branch-disp", 0x25003125d419f555ull},
        {"onebyte/clean", 0x9c13b9bcbaf06857ull},
        {"onebyte/dict-entry-word", 0x9367546369d89994ull},
        {"onebyte/codeword-rank", 0x29264242975750f3ull},
        {"onebyte/branch-disp", 0xf94e2e22a55ef59full},
        {"nibble/clean", 0x9c13b9bcbaf06857ull},
        {"nibble/dict-entry-word", 0x9ffb5d2d4b0190f9ull},
        {"nibble/codeword-rank", 0x5697c58e48eac211ull},
        {"nibble/branch-disp", 0x2c6919800294d45aull},
        {"opfac/clean", 0x9c13b9bcbaf06857ull},
        {"opfac/dict-entry-word", 0x22fb3fbe43ddaffeull},
        {"opfac/codeword-rank", 0xe3fe1808011572d1ull},
        {"opfac/branch-disp", 0x94bbf83c37905727ull},
     }},
    {"li",
     {
        {"baseline/clean", 0x70be049fc7c65fe3ull},
        {"baseline/dict-entry-word", 0x4cb243fe427bf44cull},
        {"baseline/codeword-rank", 0xe7363baac110162full},
        {"baseline/branch-disp", 0xa992fd0be94e3c4eull},
        {"onebyte/clean", 0x70be049fc7c65fe3ull},
        {"onebyte/dict-entry-word", 0xdb9053831416109eull},
        {"onebyte/codeword-rank", 0x186fb75c8c690d8bull},
        {"onebyte/branch-disp", 0xb2aaafe5be6d3cafull},
        {"nibble/clean", 0x70be049fc7c65fe3ull},
        {"nibble/dict-entry-word", 0x751b4a5be32af46full},
        {"nibble/codeword-rank", 0x1a1f15be55bf63ebull},
        {"nibble/branch-disp", 0xfd936d7a65601274ull},
        {"opfac/clean", 0x70be049fc7c65fe3ull},
        {"opfac/dict-entry-word", 0x20027f45934ecf69ull},
        {"opfac/codeword-rank", 0xd61eb1e23cc4afbdull},
        {"opfac/branch-disp", 0xfe1977d29dd7151aull},
     }},
};

class LockstepGolden : public ::testing::TestWithParam<std::string>
{};

TEST_P(LockstepGolden, ReportDigests)
{
    const std::string &name = GetParam();
    auto expected = pinned.find(name);
    ASSERT_NE(expected, pinned.end()) << "no pinned digests for " << name;

    Program program = workloads::buildBenchmark(name);
    auto check = [&](const std::string &key, uint64_t got) {
        auto want = expected->second.find(key);
        ASSERT_NE(want, expected->second.end()) << name << " " << key;
        EXPECT_EQ(got, want->second)
            << name << " " << key << " report digest 0x" << std::hex << got;
    };
    for (Scheme scheme : allSchemes()) {
        CompressorConfig config;
        config.scheme = scheme;
        CompressedImage image = compressProgram(program, config);
        std::string prefix = std::string(schemeCliName(scheme)) + "/";

        verify::LockstepConfig clean;
        clean.fullCheckInterval = cleanCheckInterval;
        check(prefix + "clean",
              textDigest(verify::formatReport(
                  verify::runLockstep(program, image, clean))));

        // ccverify's --inject all path: one campaign, whose detail for
        // a detected fault is the lockstep report.
        verify::MutationPlan plan;
        plan.kinds = {verify::MutationKind::DictEntryWord,
                      verify::MutationKind::CodewordRank,
                      verify::MutationKind::BranchDisp};
        plan.seed = faultSeed;
        for (const verify::MutantReport &fault :
             verify::runCampaign(program, image, plan).mutants)
            check(prefix + verify::kindName(fault.kind),
                  textDigest(fault.detail));
    }
}

INSTANTIATE_TEST_SUITE_P(TwoWorkloads, LockstepGolden,
                         ::testing::Values("compress", "li"),
                         [](const auto &info) { return info.param; });

} // namespace
