/**
 * @file
 * Byte-identity gate for the MiniC front end: FNV-1a64 digests of the
 * serialized output of every compile path, pinned. Any change to the
 * lexer, parser, AST or emitter that alters one bit of a .ccp or .cco
 * shows up here, even when the program still runs correctly.
 *
 * Covered: all eight workloads at --scale 1 and 16, the standardized
 * frame variant at scale 1, the runtime library module, and the two
 * separately compiled modules of tools/testdata.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "codegen/codegen.hh"
#include "compress/objfile.hh"
#include "link/object.hh"
#include "support/serialize.hh"
#include "workloads/workloads.hh"

using namespace codecomp;

namespace {

struct ProgramDigests
{
    uint64_t scale1;
    uint64_t scale16;
    uint64_t standardFrames1; //!< CompileOptions::standardizedFrames
};

const std::map<std::string, ProgramDigests> pinnedPrograms = {
    {"compress", {0x660d62b7e157f0a8ull, 0x5b2efa61e7c933b2ull,
                  0x7b12ce4c32a411e3ull}},
    {"gcc", {0x6e2b7ba8d2ec8916ull, 0x2aa1e42c4d98649cull,
             0x15ebce1985b014adull}},
    {"go", {0xc135543c1c1b464eull, 0x0232b6f629e76703ull,
            0x8b5ea2f724fa1f67ull}},
    {"ijpeg", {0x3e6f65e7de41b141ull, 0xb0543c90cfc75c82ull,
               0xc5ba08101f9f02d4ull}},
    {"li", {0x18aae1476a30973aull, 0x25ebb7947ec4b561ull,
            0x82d126bb12cc759cull}},
    {"m88ksim", {0x63d979b015db8aa5ull, 0x7d0b8a4ff3c7530full,
                 0xc6f8a6ecc4480e6aull}},
    {"perl", {0x90ea53a378f0d9b3ull, 0x032d9c82e6a98fd7ull,
              0x453ee5720efdb23eull}},
    {"vortex", {0x99cd5b621e49f820ull, 0xb52a8b82d50f2b24ull,
                0x57d4105e2a99975eull}},
};

uint64_t
programDigest(const Program &program)
{
    return fnv1a64(saveProgram(program));
}

uint64_t
moduleDigest(const link::ObjectModule &module)
{
    return fnv1a64(link::saveModule(module));
}

class MiniCGolden : public ::testing::TestWithParam<std::string>
{};

TEST_P(MiniCGolden, ProgramDigests)
{
    const std::string &name = GetParam();
    auto pinned = pinnedPrograms.find(name);
    ASSERT_NE(pinned, pinnedPrograms.end()) << "no pinned digest for " << name;

    uint64_t scale1 = programDigest(workloads::buildBenchmark(name, 1));
    EXPECT_EQ(scale1, pinned->second.scale1)
        << name << " scale 1 digest 0x" << std::hex << scale1;

    uint64_t scale16 = programDigest(workloads::buildBenchmark(name, 16));
    EXPECT_EQ(scale16, pinned->second.scale16)
        << name << " scale 16 digest 0x" << std::hex << scale16;

    codegen::CompileOptions standard;
    standard.standardizedFrames = true;
    uint64_t frames = programDigest(
        codegen::compile(workloads::benchmarkSource(name, 1), standard));
    EXPECT_EQ(frames, pinned->second.standardFrames1)
        << name << " standardized-frames digest 0x" << std::hex << frames;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, MiniCGolden,
                         ::testing::ValuesIn(workloads::benchmarkNames()),
                         [](const auto &info) { return info.param; });

TEST(MiniCGoldenModules, RuntimeModuleDigest)
{
    uint64_t digest = moduleDigest(codegen::runtimeModule());
    EXPECT_EQ(digest, 0xface13a903372846ull)
        << "runtime digest 0x" << std::hex << digest;
}

/** minicc -c on the two modules the tool_cclink test links together. */
TEST(MiniCGoldenModules, SeparateCompilationDigests)
{
    const std::map<std::string, uint64_t> pinned = {
        {"modmath.mc", 0xa6639c71843fb525ull},
        {"modapp.mc", 0x7bd709ff6a52d141ull},
    };
    for (const auto &[file, expected] : pinned) {
        std::vector<uint8_t> bytes =
            readFile(std::string(CC_TESTS_TESTDATA_DIR) + "/" + file);
        std::string source(bytes.begin(), bytes.end());
        uint64_t digest =
            moduleDigest(codegen::compileModule(source, file));
        EXPECT_EQ(digest, expected)
            << file << " digest 0x" << std::hex << digest;
    }
}

} // namespace
