/**
 * @file
 * Extension: the paper's section-5 future-work items, implemented and
 * measured.
 *
 * F1  Standardized prologues/epilogues: compile every benchmark with
 *     uniform frames that save the full callee-saved register set, so
 *     all prologues/epilogues share one byte sequence and compress to
 *     single codewords. The paper predicts a significant size win at
 *     some execution-time cost; we report both sides.
 *
 * F2  On-chip memory partitioning: for a fixed memory budget holding
 *     compressed program + dictionary, sweep the dictionary share and
 *     report the best split (the paper's closing question).
 */

#include "codegen/codegen.hh"
#include "compress/compressor.hh"
#include "decompress/compressed_cpu.hh"
#include "decompress/cpu.hh"
#include "common.hh"

using namespace codecomp;
using namespace codecomp::bench;
using namespace codecomp::compress;

int
main(int argc, char **argv)
{
    initJobs(argc, argv);
    banner("Future work F1",
           "standardized prologues/epilogues (paper section 5)");
    std::printf("%-9s | %7s %7s | %7s %7s | %7s %7s | %8s %8s\n", "bench",
                "insns", "insns*", "len4", "len4*", "len24", "len24*",
                "dyn", "dyn*");
    std::printf("(compressed bytes, nibble scheme, entry length 4 vs 24)\n");
    for (const std::string &name : workloads::benchmarkNames()) {
        std::string source = workloads::benchmarkSource(name);
        codegen::CompileOptions plain;
        codegen::CompileOptions uniform;
        uniform.standardizedFrames = true;

        Program a = codegen::compile(source, plain);
        Program b = codegen::compile(source, uniform);
        ExecResult ra = runProgram(a, 1ull << 27);
        ExecResult rb = runProgram(b, 1ull << 27);

        CompressorConfig config;
        config.scheme = Scheme::Nibble;
        config.maxEntries = 4680;
        config.maxEntryLen = 4;
        CompressedImage ia4 = compressProgram(a, config);
        CompressedImage ib4 = compressProgram(b, config);
        // The standardized 22-instruction prologue only collapses to a
        // couple of codewords when entries may span it.
        config.maxEntryLen = 24;
        CompressedImage ib24 = compressProgram(b, config);
        CompressedImage ia24 = compressProgram(a, config);

        std::printf("%-9s | %7zu %7zu | %7zu %7zu | %7zu %7zu | %8llu %8llu\n",
                    name.c_str(), a.text.size(), b.text.size(),
                    ia4.totalBytes(), ib4.totalBytes(),
                    ia24.totalBytes(), ib24.totalBytes(),
                    static_cast<unsigned long long>(ra.instCount),
                    static_cast<unsigned long long>(rb.instCount));
    }
    std::printf("(* = standardized frames)\n"
                "finding: with 4-instruction entries the idea LOSES (the "
                "22-insn template spans 6 codewords);\nwith 24-instruction "
                "entries whole prologues/epilogues become single codewords "
                "and the idea pays.\n");

    banner("Future work F2",
           "on-chip memory partitioning: program vs dictionary (gcc, "
           "nibble)");
    Program gcc_prog = workloads::buildBenchmark("gcc");
    std::printf("%-10s %10s %10s %12s\n", "entries", "text(B)", "dict(B)",
                "total(B)");
    size_t best_total = SIZE_MAX;
    uint32_t best_entries = 0;
    for (uint32_t entries : {8u, 32u, 72u, 128u, 256u, 584u, 1024u, 2048u,
                             4680u}) {
        CompressorConfig config;
        config.scheme = Scheme::Nibble;
        config.maxEntries = entries;
        CompressedImage image = compressProgram(gcc_prog, config);
        std::printf("%-10u %10zu %10zu %12zu\n", entries,
                    image.compressedTextBytes(), image.dictionaryBytes(),
                    image.totalBytes());
        if (image.totalBytes() < best_total) {
            best_total = image.totalBytes();
            best_entries = entries;
        }
    }
    std::printf("best split: %u dictionary entries -> %zu bytes total "
                "(%.1f%% of the uncompressed program)\n",
                best_entries, best_total,
                100.0 * best_total / gcc_prog.textBytes());
    return 0;
}
