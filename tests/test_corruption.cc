/**
 * @file
 * Corruption-hardening tests: any damaged compressed image must be
 * rejected at load with a typed error or trapped by a machine check
 * during execution -- never abort the process, never silently diverge.
 *
 * The small-image suites are exhaustive (every truncation boundary,
 * every bit position); the benchmark suites sample mutants from the
 * seeded generator that also powers `ccverify --corrupt`.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "codegen/codegen.hh"
#include "compress/compressor.hh"
#include "compress/objfile.hh"
#include "decompress/compressed_cpu.hh"
#include "decompress/cpu.hh"
#include "decode_oracle.hh"
#include "support/serialize.hh"
#include "verify/fault.hh"
#include "workloads/workloads.hh"

using namespace codecomp;
using namespace codecomp::compress;
using codecomp::verify::MutantOutcome;

namespace {

constexpr uint64_t kMaxSteps = 1ull << 24;

const std::vector<Scheme> kSchemes = allSchemes();

/** A few dozen instructions plus the runtime; keeps exhaustive sweeps
 *  over every byte/bit of the serialized image cheap. */
Program
smallProgram()
{
    return codegen::compile(R"(
        int table[8];
        int fill(int n) {
            int i;
            for (i = 0; i < 8; i = i + 1) table[i] = i * n + 1;
            return table[n & 7];
        }
        int main() {
            int r = fill(3) + fill(6);
            puti(r);
            return r & 127;
        }
    )");
}

CompressedImage
makeImage(const Program &program, Scheme scheme)
{
    CompressorConfig config;
    config.scheme = scheme;
    return compressProgram(program, config);
}

// ---------------- typed loader errors ----------------

TEST(CorruptionLoader, HeaderDamageYieldsTypedStatuses)
{
    Program program = smallProgram();
    std::vector<uint8_t> good = saveImage(makeImage(program, Scheme::Nibble));
    ASSERT_TRUE(tryLoadImage(good).ok());

    std::vector<uint8_t> bad = good;
    bad[0] ^= 0xff; // magic
    Result<CompressedImage> r = tryLoadImage(bad);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().status, LoadStatus::BadMagic);
    EXPECT_EQ(r.error().offset, 0u);

    bad = good;
    bad[7] ^= 0x40; // version word
    r = tryLoadImage(bad);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().status, LoadStatus::BadVersion);
    EXPECT_EQ(r.error().offset, 4u);

    bad = good;
    bad[good.size() / 2] ^= 0x01; // payload byte
    r = tryLoadImage(bad);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().status, LoadStatus::BadChecksum);

    bad = good;
    bad[12] ^= 0x01; // the stored checksum itself
    r = tryLoadImage(bad);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().status, LoadStatus::BadChecksum);

    bad = good;
    bad.push_back(0);
    r = tryLoadImage(bad);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().status, LoadStatus::TrailingBytes);

    bad.assign(good.begin(), good.begin() + 3);
    r = tryLoadImage(bad);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().status, LoadStatus::Truncated);

    r = tryLoadImage(std::vector<uint8_t>{});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().status, LoadStatus::Truncated);

    // A .ccp is not a .cci and vice versa, with a typed magic error.
    std::vector<uint8_t> prog_bytes = saveProgram(program);
    r = tryLoadImage(prog_bytes);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().status, LoadStatus::BadMagic);
    Result<Program> p = tryLoadProgram(good);
    ASSERT_FALSE(p.ok());
    EXPECT_EQ(p.error().status, LoadStatus::BadMagic);

    // The throwing wrapper carries the same typed error.
    bad = good;
    bad[0] ^= 0xff;
    try {
        loadImage(bad);
        FAIL() << "loadImage accepted a bad magic";
    } catch (const LoadFailure &failure) {
        EXPECT_EQ(failure.error().status, LoadStatus::BadMagic);
        EXPECT_NE(std::string(failure.what()).find("magic"),
                  std::string::npos);
    }
}

TEST(CorruptionLoader, ValidatorEnforcesEntryAndRankCeilings)
{
    Program program = smallProgram();
    for (Scheme scheme : kSchemes) {
        CompressedImage image = makeImage(program, scheme);
        ASSERT_FALSE(validateImage(image).has_value());
        ASSERT_FALSE(image.entriesByRank.empty());
        isa::Word legal = image.entriesByRank[0][0];

        // An entry longer than the format ceiling.
        CompressedImage mutant = image;
        mutant.entriesByRank[0].assign(maxImageEntryWords + 1, legal);
        std::optional<LoadError> error = validateImage(mutant);
        ASSERT_TRUE(error.has_value()) << schemeName(scheme);
        EXPECT_EQ(error->status, LoadStatus::BadValue);

        // An empty entry.
        mutant = image;
        mutant.entriesByRank[0].clear();
        error = validateImage(mutant);
        ASSERT_TRUE(error.has_value()) << schemeName(scheme);
        EXPECT_EQ(error->status, LoadStatus::BadValue);

        // More dictionary entries than the scheme has codewords.
        mutant = image;
        mutant.entriesByRank.resize(schemeParams(scheme).maxCodewords + 1,
                                    {legal});
        error = validateImage(mutant);
        ASSERT_TRUE(error.has_value()) << schemeName(scheme);
        EXPECT_EQ(error->status, LoadStatus::BadValue);

        // Stream codewords naming ranks past the end of the dictionary.
        mutant = image;
        mutant.entriesByRank.clear();
        error = validateImage(mutant);
        ASSERT_TRUE(error.has_value()) << schemeName(scheme);
        EXPECT_EQ(error->status, LoadStatus::BadValue);

        // An illegal instruction inside an entry.
        mutant = image;
        mutant.entriesByRank[0][0] = 0;
        error = validateImage(mutant);
        ASSERT_TRUE(error.has_value()) << schemeName(scheme);
        EXPECT_EQ(error->status, LoadStatus::BadValue);

        // The serialized loader applies the same validation.
        mutant = image;
        mutant.entriesByRank[0][0] = 0;
        Result<CompressedImage> loaded = tryLoadImage(saveImage(mutant));
        ASSERT_FALSE(loaded.ok()) << schemeName(scheme);
        EXPECT_EQ(loaded.error().status, LoadStatus::BadValue);
    }
}

// ---------------- exhaustive byte-level sweeps ----------------

TEST(CorruptionTruncation, EveryPrefixOfSmallImageIsRejected)
{
    Program program = smallProgram();
    for (Scheme scheme : kSchemes) {
        std::vector<uint8_t> good = saveImage(makeImage(program, scheme));
        ASSERT_TRUE(tryLoadImage(good).ok());
        for (size_t len = 0; len < good.size(); ++len) {
            std::vector<uint8_t> prefix(good.begin(),
                                        good.begin() +
                                            static_cast<long>(len));
            Result<CompressedImage> r = tryLoadImage(prefix);
            ASSERT_FALSE(r.ok()) << schemeName(scheme) << " truncated to "
                                 << len << " of " << good.size()
                                 << " bytes was accepted";
        }
    }
}

TEST(CorruptionBitFlip, EveryBitOfSmallImageIsRejected)
{
    // A single flipped bit always leaves the file distinguishable from
    // the original, so every one of these mutants must be refused at
    // load -- trapping later would already be too lenient.
    Program program = smallProgram();
    for (Scheme scheme : kSchemes) {
        std::vector<uint8_t> good = saveImage(makeImage(program, scheme));
        for (size_t byte = 0; byte < good.size(); ++byte) {
            for (int bit = 0; bit < 8; ++bit) {
                std::vector<uint8_t> mutant = good;
                mutant[byte] ^= static_cast<uint8_t>(1u << bit);
                Result<CompressedImage> r = tryLoadImage(mutant);
                ASSERT_FALSE(r.ok())
                    << schemeName(scheme) << " accepted a flip of byte "
                    << byte << " bit " << bit;
            }
        }
    }
}

// ---------------- seeded sampling on a large workload ----------------

TEST(CorruptionSampled, SeededByteMutantsOnGccAreContained)
{
    Program program = workloads::buildBenchmark("gcc");
    CompressedImage image = makeImage(program, Scheme::Nibble);

    verify::MutationPlan plan;
    plan.kinds = {verify::MutationKind::BitFlip,
                  verify::MutationKind::Truncate,
                  verify::MutationKind::Splice,
                  verify::MutationKind::LengthLie};
    plan.count = 240;
    plan.seed = 0x5eed2026;
    plan.lockstep.maxSteps = kMaxSteps;
    for (const verify::MutantReport &report :
         verify::runCampaign(program, image, plan).mutants) {
        EXPECT_TRUE(report.acceptable())
            << report.description << ": "
            << verify::outcomeName(report.outcome) << "\n"
            << report.detail;
    }
}

// ---------------- structural mutants ----------------

TEST(CorruptionStructural, MutantsRejectOrTrap)
{
    // The compress benchmark carries jump tables, so the mutant set
    // includes redirected code pointers that pass validation and must
    // machine-check at run time.
    Program program = workloads::buildBenchmark("compress");
    verify::MutationPlan plan;
    plan.kinds = {verify::MutationKind::Structural};
    plan.lockstep.maxSteps = kMaxSteps;
    for (Scheme scheme : kSchemes) {
        verify::CampaignReport campaign =
            verify::runCampaign(program, makeImage(program, scheme), plan);
        ASSERT_GT(campaign.mutants.size(), 4u) << schemeName(scheme);

        for (const verify::MutantReport &report : campaign.mutants) {
            EXPECT_TRUE(report.acceptable())
                << schemeName(scheme) << ": " << report.description
                << ": " << verify::outcomeName(report.outcome)
                << "\n" << report.detail;
        }
        // Both defense layers are exercised: the validator refuses the
        // structurally-invalid images, and the redirected jump tables
        // get through to a machine check.
        EXPECT_GT(campaign.count(verify::MutantOutcome::LoadRejected), 0u)
            << schemeName(scheme);
        EXPECT_GT(campaign.count(verify::MutantOutcome::Trapped), 0u)
            << schemeName(scheme);
    }
}

// ---------------- the loader against the reference decoder ----------------

/** Check validateImage against the reference decoder on @p mutant:
 *  whenever the reference scan faults, the loader must reject the
 *  image as BadValue with the error for the item the reference
 *  faulted at.
 *  Returns whether the reference faulted. */
bool
expectLoaderRejectsOracleFault(const CompressedImage &mutant,
                               const std::string &label)
{
    try {
        test::oracleScan(mutant);
        return false;
    } catch (const MachineCheckError &fault) {
        std::optional<LoadError> error = validateImage(mutant);
        EXPECT_TRUE(error.has_value()) << label << " was accepted";
        if (error) {
            EXPECT_EQ(error->status, LoadStatus::BadValue) << label;
            std::string at = "at nibble " + std::to_string(fault.addr());
            std::string expected =
                fault.fault() == MachineFault::BadCodeword
                    ? "stream ends mid-item " + at
                    : "codeword " + at + " names rank ";
            EXPECT_EQ(error->detail.substr(0, expected.size()), expected)
                << label;
        }
        return true;
    }
}

TEST(CorruptionStream, LoaderRejectsEveryReferenceFault)
{
    // Cut the stream of a small image at every nibble count, and shrink
    // its dictionary by one entry and to nothing. The loader walks the
    // stream with the engine's table-driven scan; the reference walks
    // it a nibble at a time with no shared table, so the two must agree
    // on every truncated item and dangling rank.
    Program program = smallProgram();
    for (Scheme scheme : kSchemes) {
        const CompressedImage image = makeImage(program, scheme);
        ASSERT_FALSE(validateImage(image).has_value())
            << schemeName(scheme);
        ASSERT_FALSE(
            expectLoaderRejectsOracleFault(image, schemeName(scheme)));

        CompressedImage mutant = image;
        size_t faults = 0;
        for (size_t cut = 0; cut < image.textNibbles; ++cut) {
            mutant.textNibbles = cut;
            mutant.text.assign(image.text.begin(),
                               image.text.begin() +
                                   static_cast<long>((cut + 1) / 2));
            if (cut % 2 != 0)
                mutant.text.back() &= 0xf0; // zero the pad nibble
            faults += expectLoaderRejectsOracleFault(
                mutant, std::string(schemeName(scheme)) + " cut at " +
                            std::to_string(cut));
        }
        EXPECT_GT(faults, 0u) << schemeName(scheme);

        for (size_t entries : {image.entriesByRank.size() - 1, size_t{0}}) {
            mutant = image;
            mutant.entriesByRank.resize(entries);
            EXPECT_TRUE(expectLoaderRejectsOracleFault(
                mutant, std::string(schemeName(scheme)) + " with " +
                            std::to_string(entries) + " entries"));
        }
    }
}

// ---------------- whole-campaign behavior ----------------

/** Mutants that failed to be contained (hardening failures). */
size_t
failures(const verify::CampaignReport &campaign)
{
    return static_cast<size_t>(std::count_if(
        campaign.mutants.begin(), campaign.mutants.end(),
        [](const verify::MutantReport &m) { return !m.acceptable(); }));
}

/** The byte kinds plus the structural set: ccverify --corrupt. */
verify::MutationPlan
corruptionPlan(uint64_t count, uint64_t seed)
{
    verify::MutationPlan plan;
    plan.kinds = {verify::MutationKind::BitFlip,
                  verify::MutationKind::Truncate,
                  verify::MutationKind::Splice,
                  verify::MutationKind::LengthLie,
                  verify::MutationKind::Structural};
    plan.count = count;
    plan.seed = seed;
    plan.lockstep.maxSteps = kMaxSteps;
    return plan;
}

TEST(CorruptionCampaign, SmokeAcrossSchemes)
{
    Program program = workloads::buildBenchmark("compress");
    for (Scheme scheme : kSchemes) {
        CompressedImage image = makeImage(program, scheme);
        verify::CampaignReport campaign =
            verify::runCampaign(program, image, corruptionPlan(60, 2026));
        EXPECT_TRUE(campaign.ok()) << schemeName(scheme) << ": "
                                   << failures(campaign) << " failures";
        EXPECT_GE(campaign.mutants.size(), 60u);
        EXPECT_GT(campaign.count(verify::MutantOutcome::LoadRejected), 0u);
        EXPECT_EQ(campaign.mutants.size(),
                  campaign.count(verify::MutantOutcome::LoadRejected) +
                      campaign.count(verify::MutantOutcome::Trapped) +
                      campaign.count(verify::MutantOutcome::RanIdentical) +
                      failures(campaign));
    }
}

TEST(CorruptionCampaign, DeterministicInSeed)
{
    Program program = smallProgram();
    CompressedImage image = makeImage(program, Scheme::Nibble);
    // The corruption plan, and a mixed one: the three lockstep faults
    // draw from their own Rng(seed) ahead of the byte mutants' shared
    // one.
    verify::MutationPlan mixed = corruptionPlan(40, 7);
    mixed.kinds.insert(mixed.kinds.begin(),
                       {verify::MutationKind::DictEntryWord,
                        verify::MutationKind::CodewordRank,
                        verify::MutationKind::BranchDisp});
    for (const verify::MutationPlan &plan : {corruptionPlan(40, 7), mixed}) {
        verify::CampaignReport first =
            verify::runCampaign(program, image, plan);
        verify::CampaignReport second =
            verify::runCampaign(program, image, plan);
        EXPECT_TRUE(first.ok());
        EXPECT_EQ(first.mutants.size(), second.mutants.size());
        for (MutantOutcome outcome :
             {MutantOutcome::Detected, MutantOutcome::LoadRejected,
              MutantOutcome::Trapped, MutantOutcome::RanIdentical,
              MutantOutcome::NoSite})
            EXPECT_EQ(first.count(outcome), second.count(outcome))
                << verify::outcomeName(outcome);
        EXPECT_EQ(failures(first), failures(second));
        // Every planned lockstep fault found a site and was caught.
        EXPECT_EQ(first.count(MutantOutcome::Detected),
                  static_cast<size_t>(std::count_if(
                      plan.kinds.begin(), plan.kinds.end(),
                      verify::isLockstepKind)));
        for (size_t i = 0;
             i < std::min(first.mutants.size(), second.mutants.size()); ++i)
            EXPECT_EQ(first.mutants[i].description,
                      second.mutants[i].description);
    }
    // The lockstep faults leave the byte mutants' shared Rng alone.
    verify::CampaignReport alone =
        verify::runCampaign(program, image, corruptionPlan(40, 7));
    verify::CampaignReport both = verify::runCampaign(program, image, mixed);
    ASSERT_EQ(both.mutants.size(), alone.mutants.size() + 3);
    for (size_t i = 0; i < alone.mutants.size(); ++i)
        EXPECT_EQ(both.mutants[i + 3].description,
                  alone.mutants[i].description);
}

} // namespace
