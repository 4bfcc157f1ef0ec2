/**
 * @file
 * Figure 10: the nibble-aligned encoding itself (a design figure).
 * Prints the codeword classes and validates the class arithmetic by
 * encoding one codeword of each class and dumping its nibbles, plus
 * the realized class usage on one benchmark.
 */

#include "compress/compressor.hh"
#include "compress/scan.hh"
#include "common.hh"

using namespace codecomp;
using namespace codecomp::bench;

int
main(int argc, char **argv)
{
    initJobs(argc, argv);
    banner("Figure 10", "nibble-aligned encoding (4/8/12/16-bit codewords)");
    std::printf("first nibble 0-7  : 4-bit codeword   (8 codewords)\n");
    std::printf("first nibble 8-11 : 8-bit codeword   (64 codewords)\n");
    std::printf("first nibble 12-13: 12-bit codeword  (512 codewords)\n");
    std::printf("first nibble 14   : 16-bit codeword  (4096 codewords)\n");
    std::printf("first nibble 15   : escape + 32-bit uncompressed insn\n");
    std::printf("total codewords: 4680\n\n");

    for (uint32_t rank : {0u, 7u, 8u, 71u, 72u, 583u, 584u, 4679u}) {
        NibbleWriter writer;
        compress::emitCodeword(writer, compress::Scheme::Nibble, rank);
        std::printf("rank %4u -> %u nibbles:", rank,
                    static_cast<unsigned>(writer.nibbleCount()));
        NibbleReader reader(writer.bytes().data(), writer.nibbleCount());
        while (!reader.atEnd())
            std::printf(" %x", reader.getNibble());
        // Round-trip through the stream scan the processor decodes with.
        uint32_t decoded = 0;
        compress::scanStream(
            compress::decodeTables(compress::Scheme::Nibble), writer.bytes(),
            writer.nibbleCount(), 4680,
            [&decoded](const compress::DecodedItem &item) {
                decoded = item.rank;
                return false;
            });
        std::printf("  (decodes to rank %u)\n", decoded);
    }

    Program program = workloads::buildBenchmark("ijpeg");
    compress::CompressorConfig config;
    config.scheme = compress::Scheme::Nibble;
    config.maxEntries = 4680;
    config.maxEntryLen = 4;
    compress::CompressedImage image =
        compress::compressProgram(program, config);
    unsigned by_class[4] = {0, 0, 0, 0};
    for (uint32_t rank = 0; rank < image.entriesByRank.size(); ++rank)
        ++by_class[compress::codewordNibbles(compress::Scheme::Nibble,
                                             rank) - 1];
    std::printf("\nijpeg realized dictionary: %zu entries -> 4-bit:%u "
                "8-bit:%u 12-bit:%u 16-bit:%u\n",
                image.entriesByRank.size(), by_class[0], by_class[1],
                by_class[2], by_class[3]);
    return 0;
}
