/**
 * @file
 * Tests for the synthetic CINT95 substitute suite: determinism,
 * executability, SPEC-like relative sizing, and scaling.
 */

#include <gtest/gtest.h>

#include "codegen/codegen.hh"
#include "decompress/cpu.hh"
#include "support/serialize.hh"
#include "workloads/generator.hh"
#include "workloads/workloads.hh"

using namespace codecomp;
using namespace codecomp::workloads;

namespace {

TEST(Workloads, EightBenchmarksInPaperOrder)
{
    const auto &names = benchmarkNames();
    ASSERT_EQ(names.size(), 8u);
    EXPECT_EQ(names.front(), "compress");
    EXPECT_EQ(names[1], "gcc");
    EXPECT_EQ(names.back(), "vortex");
}

TEST(Workloads, UnknownNameIsAnError)
{
    EXPECT_THROW(benchmarkSource("espresso"), std::runtime_error);
}

TEST(Workloads, SourceGenerationIsDeterministic)
{
    for (const std::string &name : benchmarkNames())
        EXPECT_EQ(benchmarkSource(name), benchmarkSource(name)) << name;
}

/** The generated MiniC text is pinned byte for byte: FNV-1a64 of every
 *  benchmark's source at scale 1 and at paper scale (16). A rewrite of
 *  the generators' string building must leave the text unchanged. */
TEST(Workloads, SourceTextIsPinned)
{
    struct Pin
    {
        const char *name;
        uint64_t scale1;
        uint64_t scale16;
    };
    const Pin pins[] = {
        {"compress", 0xf0b69afb531f00f5ull, 0x56c7b59f160eaa60ull},
        {"gcc", 0x473a518ec9789922ull, 0xf3b39dcdb56953dbull},
        {"go", 0x5e88fc8cab21a98full, 0x7466ddaf6af552c7ull},
        {"ijpeg", 0xd7364faceeff793eull, 0x74e43cca13466707ull},
        {"li", 0xf6cb2875230a758dull, 0x03534cd811301403ull},
        {"m88ksim", 0xf4deabeef5f35ff8ull, 0x369b6c45c42909d7ull},
        {"perl", 0x38a9490fe38e5349ull, 0x9b27b2e7984d6bedull},
        {"vortex", 0x55d2037b485339abull, 0xdeaddaf78df67809ull},
    };
    auto digest = [](const std::string &src) {
        return fnv1a64(reinterpret_cast<const uint8_t *>(src.data()),
                       src.size());
    };
    for (const Pin &pin : pins) {
        EXPECT_EQ(digest(benchmarkSource(pin.name, 1)), pin.scale1)
            << pin.name << " scale 1";
        EXPECT_EQ(digest(benchmarkSource(pin.name, 16)), pin.scale16)
            << pin.name << " scale 16";
    }
}

TEST(Workloads, GccIsLargestCompressIsSmallest)
{
    // Mirrors CINT95's size ordering (and paper Table 2's extremes).
    size_t compress_size = buildBenchmark("compress").text.size();
    size_t gcc_size = buildBenchmark("gcc").text.size();
    for (const std::string &name : benchmarkNames()) {
        size_t size = buildBenchmark(name).text.size();
        EXPECT_GE(size, compress_size) << name;
        EXPECT_LE(size, gcc_size) << name;
    }
    EXPECT_GT(gcc_size, 4 * compress_size);
}

TEST(Workloads, ScaleGrowsPrograms)
{
    Program one = buildBenchmark("li", 1);
    Program two = buildBenchmark("li", 2);
    EXPECT_GT(two.text.size(), one.text.size() * 3 / 2);
    // Scaled programs still run.
    ExecResult r = runProgram(two, 1ull << 26);
    EXPECT_EQ(r.exitCode, 0);
}

TEST(Workloads, BigLoopFunctionCompilesAndSpans)
{
    std::string src = bigLoopFunction("huge", 600, 42) +
                      "int main() { return huge(3) & 127; }\n";
    Program p = codegen::compile(src);
    EXPECT_GT(p.text.size(), 1200u); // ~2 insns per statement
    ExecResult r = runProgram(p, 1 << 22);
    EXPECT_EQ(r.instCount, runProgram(p, 1 << 22).instCount);
}

/** Each benchmark executes, produces output, and is reproducible. */
class WorkloadExecution : public ::testing::TestWithParam<std::string>
{};

TEST_P(WorkloadExecution, DeterministicRun)
{
    Program p = buildBenchmark(GetParam());
    ExecResult a = runProgram(p, 1ull << 26);
    EXPECT_EQ(a.exitCode, 0) << GetParam();
    EXPECT_FALSE(a.output.empty());
    // Output ends with the checksum line.
    EXPECT_EQ(a.output.back(), '\n');

    ExecResult b = runProgram(p, 1ull << 26);
    EXPECT_EQ(a, b);
}

INSTANTIATE_TEST_SUITE_P(Suite, WorkloadExecution,
                         ::testing::Values("compress", "gcc", "go", "ijpeg",
                                           "li", "m88ksim", "perl",
                                           "vortex"));

TEST(Generator, FillerIsSelfContained)
{
    GenSpec spec;
    spec.seed = 99;
    spec.leafFuncs = 3;
    spec.midFuncs = 3;
    spec.dispatchFuncs = 1;
    spec.switchCases = 4;
    FillerCode filler = generateFiller(spec, "tst", 5);
    std::string src = filler.definitions;
    src += "int main() {\n    int acc = 1;\n    int tst_it;\n";
    src += filler.mainStmts;
    src += "    return acc & 127;\n}\n";
    Program p = codegen::compile(src);
    ExecResult r = runProgram(p, 1 << 24);
    EXPECT_GE(r.exitCode, 0);
}

} // namespace
