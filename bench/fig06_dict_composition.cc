/**
 * @file
 * Figure 6: composition of the dictionary by entry length (number of
 * instructions) as the dictionary budget grows; ijpeg, entries up to 8
 * instructions, baseline scheme.
 *
 * Paper shape: single-instruction entries are 48-80% of the dictionary,
 * and their share grows with dictionary size.
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
    banner("Figure 6",
           "dictionary composition by entry length (ijpeg, <= 8 "
           "insns/entry)");
    Program program = workloads::buildBenchmark("ijpeg");
    const unsigned budgets[] = {32, 128, 512, 2048, 8192};

    std::printf("%-10s %8s", "dict size", "entries");
    for (unsigned len = 1; len <= 8; ++len)
        std::printf("  len%u", len);
    std::printf("   (%% of entries)\n");

    double first_single = -1, last_single = -1;
    for (unsigned budget : budgets) {
        compress::CompressorConfig config;
        config.scheme = compress::Scheme::Baseline;
        config.maxEntries = budget;
        config.maxEntryLen = 8;
        compress::CompressedImage image =
            compress::compressProgram(program, config);
        analysis::DictionaryUsage usage =
            analysis::analyzeDictionaryUsage(image);
        std::printf("%-10u %8u", budget, usage.totalEntries);
        for (unsigned len = 1; len <= 8; ++len) {
            auto it = usage.entriesByLength.find(len);
            double frac = it == usage.entriesByLength.end()
                              ? 0.0
                              : static_cast<double>(it->second) /
                                    usage.totalEntries;
            std::printf(" %5.1f", frac * 100);
        }
        std::printf("\n");
        double single = usage.entriesByLength.count(1)
                            ? static_cast<double>(
                                  usage.entriesByLength.at(1)) /
                                  usage.totalEntries
                            : 0;
        if (first_single < 0)
            first_single = single;
        last_single = single;
    }
    std::printf("paper shape: 1-instruction entries are 48-80%% of the "
                "dictionary, share grows with size "
                "(ours: %.0f%% -> %.0f%%)\n",
                first_single * 100, last_single * 100);
    return 0;
}
