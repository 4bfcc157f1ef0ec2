/**
 * @file
 * Byte-identity gate for the compressor's back end (Layout, BranchPatch,
 * Emit): FNV-1a64 digests of every image's serialized .cci bytes and of
 * its address map, pinned. A change to item layout, branch patching,
 * far-branch stubs, emission or jump-table re-patching that alters one
 * bit of an image or one map entry shows up here, even when the image
 * still runs correctly.
 *
 * Covered: all eight workloads at --scale 1 under every scheme, laid
 * out linearly and hot/cold (profiled by a native run), plus gcc at
 * --scale 16 under the nibble scheme, the suite's far-branch expansion.
 * CompressorGoldenRefit pins the same workloads and schemes under the
 * IterativeRefit strategy (linear layout): its later rounds select with
 * other uniform and per-candidate codeword costs, so they reach
 * selections the greedy digests never do.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "compress/compressor.hh"
#include "compress/objfile.hh"
#include "support/serialize.hh"
#include "timing/timing.hh"
#include "workloads/workloads.hh"

using namespace codecomp;
using namespace codecomp::compress;

namespace {

struct ImageDigest
{
    uint64_t image;   //!< fnv1a64(saveImage(image))
    uint64_t addrMap; //!< fnv1a64 of the (index, nibble) pairs
};

/** FNV-1a64 of the address map as little-endian u32 (index, nibble)
 *  pairs, in ascending index order. */
uint64_t
addrMapDigest(const CompressedImage &image, size_t instructions)
{
    std::vector<uint8_t> bytes;
    auto put = [&bytes](uint32_t value) {
        for (unsigned shift = 0; shift < 32; shift += 8)
            bytes.push_back(static_cast<uint8_t>(value >> shift));
    };
    EXPECT_EQ(image.addrMap.size(), instructions);
    for (uint32_t index = 0; index < image.addrMap.size(); ++index) {
        if (image.addrMap[index] == CompressedImage::noItem)
            continue;
        put(index);
        put(image.addrMap[index]);
    }
    return fnv1a64(bytes);
}

ImageDigest
digestOf(const Program &program, const CompressorConfig &config)
{
    CompressedImage image = compressProgram(program, config);
    return {fnv1a64(saveImage(image)),
            addrMapDigest(image, program.text.size())};
}

/** Key: "<scheme>/<layout>", e.g. "nibble/hotcold". */
using WorkloadDigests = std::map<std::string, ImageDigest>;

const std::map<std::string, WorkloadDigests> pinned = {
    {"compress",
     {
        {"baseline/linear", {0xb71a58e009c1482full, 0x1c40d3deba7e6b18ull}},
        {"baseline/hotcold", {0xdc0a34b4b46057bfull, 0x9d8f4af8a78e4c72ull}},
        {"onebyte/linear", {0x59c0563dc2c3ffbfull, 0xafac088ee3301ff9ull}},
        {"onebyte/hotcold", {0x1633ce3e4bae0719ull, 0xc52b8e79478684f9ull}},
        {"nibble/linear", {0x9317bce01ecf3475ull, 0xab7cb14f9d98b413ull}},
        {"nibble/hotcold", {0xd85402726f86f802ull, 0x080793a757c09575ull}},
        {"opfac/linear", {0xf7db4be75c1275deull, 0x41a2a4fa7cc9d069ull}},
        {"opfac/hotcold", {0xcdb738322d5bcc4cull, 0x53472731c917e95full}},
     }},
    {"gcc",
     {
        {"baseline/linear", {0xf6049d53ee8d1dd1ull, 0xd9c260adda5c3ac3ull}},
        {"baseline/hotcold", {0xeb20e00340f7c449ull, 0x13cf54836c1c4582ull}},
        {"onebyte/linear", {0x013d76b11a02ee55ull, 0x92775cd0cf11f405ull}},
        {"onebyte/hotcold", {0x1673e41286fa5939ull, 0x758572945e55e49bull}},
        {"nibble/linear", {0x607d19f8d8d4b79eull, 0x15195a02630a25b6ull}},
        {"nibble/hotcold", {0x88a3fc56fca2cf56ull, 0xe7da26353a8f66c9ull}},
        {"opfac/linear", {0xf97b26e7172884a6ull, 0x6f4099ba6eb75f62ull}},
        {"opfac/hotcold", {0xa2f8c6eb1aabbb31ull, 0x5e5d5b2bb4cf250cull}},
     }},
    {"go",
     {
        {"baseline/linear", {0x0d3a7f39299691dcull, 0x43f53224b48635ffull}},
        {"baseline/hotcold", {0xfb19139f25226333ull, 0x3b4290bf165af2deull}},
        {"onebyte/linear", {0x1291d791f8a2fcdbull, 0x4c7b295fce58efd8ull}},
        {"onebyte/hotcold", {0xf3ca5028cdb3a500ull, 0x587a39c8935d7ef5ull}},
        {"nibble/linear", {0xf681122aa020ab1aull, 0x0822c5401cc94682ull}},
        {"nibble/hotcold", {0x8bba326960cb66e3ull, 0xde53d338ec7b7d65ull}},
        {"opfac/linear", {0x9daa38ab0f23842cull, 0x6bd87ed1a11e55e7ull}},
        {"opfac/hotcold", {0x353591d1fc0532abull, 0x76539c4b85845316ull}},
     }},
    {"ijpeg",
     {
        {"baseline/linear", {0x3828cb4b05ee4e35ull, 0x39ecdacaaa27de04ull}},
        {"baseline/hotcold", {0x653dd0c5afa4ce44ull, 0xd8ce4739a3a3c130ull}},
        {"onebyte/linear", {0x5b4f346c8ee7831aull, 0x8dfd6a2855690aa9ull}},
        {"onebyte/hotcold", {0x6bc374827d8144ecull, 0x91a67daf80eb33a1ull}},
        {"nibble/linear", {0x01c8dc7c95e20c06ull, 0x0b4fa136ade87e9aull}},
        {"nibble/hotcold", {0x27f2f044d1109acfull, 0x04890f61fdc89650ull}},
        {"opfac/linear", {0xa7c0d99e11d8249aull, 0xe17712d495fdcb6cull}},
        {"opfac/hotcold", {0x1124d4735b8264a7ull, 0x459d51c0420f7325ull}},
     }},
    {"li",
     {
        {"baseline/linear", {0x501e42cd6d023564ull, 0x114aef03698b9834ull}},
        {"baseline/hotcold", {0xb7120dc048e3df18ull, 0x5142bc05a015f4ebull}},
        {"onebyte/linear", {0xfe5cdba96eda9fbdull, 0x87a8dec2d7332121ull}},
        {"onebyte/hotcold", {0xfd886f4783dfe030ull, 0xf221ba6eba5feb2bull}},
        {"nibble/linear", {0x8ddfed1bbee1e8c2ull, 0xf64efdd927dd40abull}},
        {"nibble/hotcold", {0xae4f6a7eaa8f2943ull, 0x3ae86f50200588cbull}},
        {"opfac/linear", {0xbcc4dbc0874827a4ull, 0xdfda3b6d1d1519e5ull}},
        {"opfac/hotcold", {0x054d246d388077aaull, 0x7ec3e12fa97c6bccull}},
     }},
    {"m88ksim",
     {
        {"baseline/linear", {0xe9cc5c370388e99cull, 0xfe35ab9fdd216271ull}},
        {"baseline/hotcold", {0xca5342ccd538da07ull, 0xf56129431a5e30deull}},
        {"onebyte/linear", {0xed0e93c0a3158405ull, 0x97d3d3fa0612f1bcull}},
        {"onebyte/hotcold", {0xc530b019fac8555eull, 0x208f2080f5d090fbull}},
        {"nibble/linear", {0x9c7d88eea504f33cull, 0x89a54e01f3f5482eull}},
        {"nibble/hotcold", {0x2ab5458afb915cfeull, 0x8ea5361337f7443aull}},
        {"opfac/linear", {0x9256fc2fd678be4full, 0xa9deec41196b7f81ull}},
        {"opfac/hotcold", {0x2f133b9dfc2b8321ull, 0x2518839af6171bf9ull}},
     }},
    {"perl",
     {
        {"baseline/linear", {0xc0709562b402098cull, 0x2863d999d54d5cadull}},
        {"baseline/hotcold", {0x3284012d902b9f72ull, 0x0168bb2a8f71b556ull}},
        {"onebyte/linear", {0xc254314714e4426bull, 0x3c620aacc1d9b379ull}},
        {"onebyte/hotcold", {0x60e7fa6e89dd4574ull, 0x3e6cf70fab7ce8c1ull}},
        {"nibble/linear", {0xa6ac1a2ab3a0f482ull, 0xefc6a69f5ba659d0ull}},
        {"nibble/hotcold", {0xc7bb64f67008006dull, 0xc27796a7dfcacfafull}},
        {"opfac/linear", {0x391503499a402b01ull, 0x2a3a2167a4acb38eull}},
        {"opfac/hotcold", {0xda96b371d1a0bcddull, 0x18db66a23a5a15bbull}},
     }},
    {"vortex",
     {
        {"baseline/linear", {0x07d1430f6cce2a65ull, 0x0e23584e353a8366ull}},
        {"baseline/hotcold", {0x4cacb800ba351964ull, 0xde55ac169c18e04dull}},
        {"onebyte/linear", {0xc0323dad30379b8dull, 0x0de2116f3cb236adull}},
        {"onebyte/hotcold", {0xfda5b7b9488a832aull, 0x1dfa270bf367c2f5ull}},
        {"nibble/linear", {0x8284340274fa4cacull, 0xc69ad1279b7cde1cull}},
        {"nibble/hotcold", {0x5e4eb1ba6687cc40ull, 0x6fe2763477594b1dull}},
        {"opfac/linear", {0xfc529b740dc83903ull, 0xa3542dacc26507baull}},
        {"opfac/hotcold", {0x99dc784d77a7c718ull, 0x919330c3260f722full}},
     }},
};

class CompressorGolden : public ::testing::TestWithParam<std::string>
{};

TEST_P(CompressorGolden, ImageDigests)
{
    const std::string &name = GetParam();
    auto expected = pinned.find(name);
    ASSERT_NE(expected, pinned.end()) << "no pinned digests for " << name;

    Program program = workloads::buildBenchmark(name, 1);
    std::vector<uint64_t> profile = timing::profileExecutionCounts(program);
    for (Scheme scheme : allSchemes()) {
        for (LayoutMode layout : {LayoutMode::Linear, LayoutMode::HotCold}) {
            CompressorConfig config;
            config.scheme = scheme;
            config.layout = layout;
            if (layout == LayoutMode::HotCold)
                config.trafficProfile = profile;
            std::string key = std::string(schemeCliName(scheme)) + "/" +
                              layoutModeName(layout);
            ImageDigest got = digestOf(program, config);
            auto want = expected->second.find(key);
            ASSERT_NE(want, expected->second.end()) << name << " " << key;
            EXPECT_EQ(got.image, want->second.image)
                << name << " " << key << " image digest 0x" << std::hex
                << got.image;
            EXPECT_EQ(got.addrMap, want->second.addrMap)
                << name << " " << key << " address-map digest 0x"
                << std::hex << got.addrMap;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, CompressorGolden,
                         ::testing::ValuesIn(workloads::benchmarkNames()),
                         [](const auto &info) { return info.param; });

/** IterativeRefit, linear layout; key: scheme. */
const std::map<std::string, WorkloadDigests> pinnedRefit = {
    {"compress",
     {
        {"baseline", {0xb71a58e009c1482full, 0x1c40d3deba7e6b18ull}},
        {"onebyte", {0x59c0563dc2c3ffbfull, 0xafac088ee3301ff9ull}},
        {"nibble", {0x97b60d2f169cbbbeull, 0x139490df5d64ff93ull}},
        {"opfac", {0xf7db4be75c1275deull, 0x41a2a4fa7cc9d069ull}},
     }},
    {"gcc",
     {
        {"baseline", {0xf6049d53ee8d1dd1ull, 0xd9c260adda5c3ac3ull}},
        {"onebyte", {0x013d76b11a02ee55ull, 0x92775cd0cf11f405ull}},
        {"nibble", {0x4dd04a25cedee071ull, 0xf90771f892a76545ull}},
        {"opfac", {0x1d00640a11b99673ull, 0x051357e39aba4e7cull}},
     }},
    {"go",
     {
        {"baseline", {0x0d3a7f39299691dcull, 0x43f53224b48635ffull}},
        {"onebyte", {0x1291d791f8a2fcdbull, 0x4c7b295fce58efd8ull}},
        {"nibble", {0x1dbd96b9e1187693ull, 0xfc70515b856d9c94ull}},
        {"opfac", {0x7ad6dccf49d43e15ull, 0xbb3b900f1e0ab113ull}},
     }},
    {"ijpeg",
     {
        {"baseline", {0x3828cb4b05ee4e35ull, 0x39ecdacaaa27de04ull}},
        {"onebyte", {0x5b4f346c8ee7831aull, 0x8dfd6a2855690aa9ull}},
        {"nibble", {0x8ed8283360b5b816ull, 0xf3ce1b414dd87011ull}},
        {"opfac", {0x83b1b9bf2ced6766ull, 0x056afba83e3f78b6ull}},
     }},
    {"li",
     {
        {"baseline", {0x501e42cd6d023564ull, 0x114aef03698b9834ull}},
        {"onebyte", {0xfe5cdba96eda9fbdull, 0x87a8dec2d7332121ull}},
        {"nibble", {0x199fe2c295daad15ull, 0x2585f29130468a0bull}},
        {"opfac", {0xbcc4dbc0874827a4ull, 0xdfda3b6d1d1519e5ull}},
     }},
    {"m88ksim",
     {
        {"baseline", {0xe9cc5c370388e99cull, 0xfe35ab9fdd216271ull}},
        {"onebyte", {0xed0e93c0a3158405ull, 0x97d3d3fa0612f1bcull}},
        {"nibble", {0xcc9b6d69729b061aull, 0x80e66dbd3f85cedaull}},
        {"opfac", {0x9256fc2fd678be4full, 0xa9deec41196b7f81ull}},
     }},
    {"perl",
     {
        {"baseline", {0xc0709562b402098cull, 0x2863d999d54d5cadull}},
        {"onebyte", {0xc254314714e4426bull, 0x3c620aacc1d9b379ull}},
        {"nibble", {0x60aefc5a15632abfull, 0x03ea60b02f7168d4ull}},
        {"opfac", {0xde4edb3a4cc1b789ull, 0x89aadd07dbb01a21ull}},
     }},
    {"vortex",
     {
        {"baseline", {0x07d1430f6cce2a65ull, 0x0e23584e353a8366ull}},
        {"onebyte", {0xc0323dad30379b8dull, 0x0de2116f3cb236adull}},
        {"nibble", {0x19342466c288e974ull, 0x3179e256b5d66062ull}},
        {"opfac", {0x0b4e69b75022fc81ull, 0xae8cee089797009cull}},
     }},
};

class CompressorGoldenRefit : public ::testing::TestWithParam<std::string>
{};

TEST_P(CompressorGoldenRefit, ImageDigests)
{
    const std::string &name = GetParam();
    auto expected = pinnedRefit.find(name);
    ASSERT_NE(expected, pinnedRefit.end())
        << "no pinned digests for " << name;

    Program program = workloads::buildBenchmark(name, 1);
    for (Scheme scheme : allSchemes()) {
        CompressorConfig config;
        config.scheme = scheme;
        config.strategy = StrategyKind::IterativeRefit;
        std::string key = schemeCliName(scheme);
        ImageDigest got = digestOf(program, config);
        auto want = expected->second.find(key);
        ASSERT_NE(want, expected->second.end()) << name << " " << key;
        EXPECT_EQ(got.image, want->second.image)
            << name << " " << key << " image digest 0x" << std::hex
            << got.image;
        EXPECT_EQ(got.addrMap, want->second.addrMap)
            << name << " " << key << " address-map digest 0x" << std::hex
            << got.addrMap;
    }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, CompressorGoldenRefit,
                         ::testing::ValuesIn(workloads::benchmarkNames()),
                         [](const auto &info) { return info.param; });

TEST(CompressorGoldenFarBranch, GccScale16Nibble)
{
    Program program = workloads::buildBenchmark("gcc", 16);
    CompressorConfig config;
    config.scheme = Scheme::Nibble;
    CompressedImage image = compressProgram(program, config);
    ASSERT_GT(image.farBranchExpansions, 0u);
    uint64_t image_digest = fnv1a64(saveImage(image));
    uint64_t map_digest = addrMapDigest(image, program.text.size());
    EXPECT_EQ(image_digest, 0x5bfdfe7ebb87b2a5ull)
        << "image digest 0x" << std::hex << image_digest;
    EXPECT_EQ(map_digest, 0x5961b961eead10eaull)
        << "address-map digest 0x" << std::hex << map_digest;
}

} // namespace
