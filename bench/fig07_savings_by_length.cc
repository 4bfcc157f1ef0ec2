/**
 * @file
 * Figure 7: program bytes removed by compression, attributed to the
 * instruction length of the dictionary entry; ijpeg, entries up to 8
 * instructions, baseline scheme, across dictionary budgets.
 *
 * Paper shape: 1-instruction entries contribute 48-60% of the savings,
 * and the short-entry share grows with dictionary size. This is the
 * capability Liao's scheme lacks (its codewords are a full instruction
 * word, so single instructions can never compress).
 */

#include "analysis/analysis.hh"
#include "compress/compressor.hh"
#include "common.hh"

using namespace codecomp;
using namespace codecomp::bench;

int
main(int argc, char **argv)
{
    initJobs(argc, argv);
    banner("Figure 7",
           "bytes saved by dictionary entry length (ijpeg, <= 8 "
           "insns/entry)");
    Program program = workloads::buildBenchmark("ijpeg");
    const unsigned budgets[] = {32, 128, 512, 2048, 8192};

    std::printf("%-10s %10s", "dict size", "saved(B)");
    for (unsigned len = 1; len <= 8; ++len)
        std::printf("  len%u", len);
    std::printf("   (%% of savings)\n");

    for (unsigned budget : budgets) {
        compress::CompressorConfig config;
        config.scheme = compress::Scheme::Baseline;
        config.maxEntries = budget;
        config.maxEntryLen = 8;
        compress::CompressedImage image =
            compress::compressProgram(program, config);
        analysis::DictionaryUsage usage =
            analysis::analyzeDictionaryUsage(image);
        std::printf("%-10u %10lld", budget,
                    static_cast<long long>(usage.totalBytesSaved));
        for (unsigned len = 1; len <= 8; ++len) {
            auto it = usage.bytesSavedByLength.find(len);
            double frac =
                it == usage.bytesSavedByLength.end()
                    ? 0.0
                    : static_cast<double>(it->second) /
                          static_cast<double>(usage.totalBytesSaved);
            std::printf(" %5.1f", frac * 100);
        }
        std::printf("\n");
    }
    std::printf("paper shape: 1-instruction entries give 48-60%% of the "
                "savings; share grows with dictionary size\n");
    return 0;
}
