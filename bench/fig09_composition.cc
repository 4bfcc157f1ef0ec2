/**
 * @file
 * Figure 9: composition of the compressed program under the baseline
 * scheme with the full 8192-codeword budget and 4-instruction entries:
 * uncompressed instructions, codeword index bytes, codeword escape
 * bytes, and the dictionary.
 *
 * Paper: ~40% of the compressed program is codeword bytes, half of
 * which (20% of the total) is pure escape-byte overhead -- the
 * motivation for the nibble-aligned encoding.
 */

#include "compress/compressor.hh"
#include "common.hh"

using namespace codecomp;
using namespace codecomp::bench;

int
main(int argc, char **argv)
{
    initJobs(argc, argv);
    banner("Figure 9",
           "composition of compressed program (baseline, 8192 codewords, "
           "4 insns/entry)");
    std::printf("%-9s %12s %12s %12s %12s\n", "bench", "uncompr.insn",
                "index bytes", "escape bytes", "dictionary");
    double avg_escape = 0;
    auto suite = buildSuite();
    for (const auto &[name, program] : suite) {
        compress::CompressorConfig config;
        config.scheme = compress::Scheme::Baseline;
        config.maxEntries = 8192;
        config.maxEntryLen = 4;
        compress::CompressedImage image =
            compress::compressProgram(program, config);
        const compress::Composition &comp = image.composition;
        double total = static_cast<double>(comp.totalNibbles());
        std::printf("%-9s %12s %12s %12s %12s\n", name.c_str(),
                    pct(comp.insnNibbles / total).c_str(),
                    pct(comp.codewordNibbles / total).c_str(),
                    pct(comp.escapeNibbles / total).c_str(),
                    pct(comp.dictNibbles / total).c_str());
        avg_escape += comp.escapeNibbles / total;
    }
    std::printf("average escape-byte share: %s  (paper: ~20%% of the "
                "compressed program)\n",
                pct(avg_escape / suite.size()).c_str());
    return 0;
}
