/**
 * @file
 * ccdump -- inspect .ccp programs and .cci images.
 *
 *   ccdump prog.ccp [--disasm [function]]   symbol table / disassembly
 *   ccdump prog.cci [--dict] [--stream N]   header / dictionary / items
 */

#include <cstdio>
#include <string>

#include "compress/objfile.hh"
#include "decompress/engine.hh"
#include "isa/disasm.hh"
#include "support/serialize.hh"
#include "tool_common.hh"

using namespace codecomp;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: ccdump <prog.ccp> [--disasm [function]]\n"
                 "       ccdump <prog.cci> [--dict] [--stream N]\n");
    return tools::exitUserError;
}

bool
hasMagic(const std::vector<uint8_t> &bytes, const char *magic)
{
    return bytes.size() >= 4 && bytes[0] == magic[0] &&
           bytes[1] == magic[1] && bytes[2] == magic[2] &&
           bytes[3] == magic[3];
}

int
dumpProgram(const Program &program, bool disasm,
            const std::string &function)
{
    std::printf(".text: %zu instructions (%u bytes), entry 0x%08x\n",
                program.text.size(), program.textBytes(),
                program.addrOfIndex(program.entryIndex));
    std::printf(".data: %zu bytes at 0x%08x, %zu code relocations\n",
                program.data.size(), program.dataBase,
                program.codeRelocs.size());
    if (!disasm) {
        std::printf("%-28s %10s %8s\n", "function", "address", "insns");
        for (const FunctionSymbol &fn : program.functions)
            std::printf("%-28s 0x%08x %8u\n", fn.name.c_str(),
                        program.addrOfIndex(fn.body.first), fn.body.count);
        return 0;
    }
    for (const FunctionSymbol &fn : program.functions) {
        if (!function.empty() && fn.name != function)
            continue;
        std::printf("\n%s:\n", fn.name.c_str());
        for (uint32_t i = fn.body.first; i < fn.body.first + fn.body.count;
             ++i)
            std::printf("  0x%08x  %s\n", program.addrOfIndex(i),
                        isa::disassembleWord(program.text[i],
                                             program.addrOfIndex(i))
                            .c_str());
    }
    return 0;
}

int
dumpImage(const compress::CompressedImage &image, bool dict,
          size_t stream_items)
{
    std::printf("scheme: %s\n", compress::schemeName(image.scheme));
    std::printf("text: %zu nibbles (%zu bytes), dictionary: %zu entries "
                "(%zu bytes), total %zu bytes\n",
                image.textNibbles, image.compressedTextBytes(),
                image.entriesByRank.size(), image.dictionaryBytes(),
                image.totalBytes());
    std::printf("original: %u bytes -> ratio %.1f%%, far-branch stubs: "
                "%u\n",
                image.originalTextBytes, image.compressionRatio() * 100,
                image.farBranchExpansions);
    if (dict) {
        for (uint32_t rank = 0; rank < image.entriesByRank.size();
             ++rank) {
            std::printf("  #%-5u (%u nibbles):", rank,
                        compress::codewordNibbles(image.scheme, rank));
            for (isa::Word word : image.entriesByRank[rank])
                std::printf("  [%s]",
                            isa::disassembleWord(word).c_str());
            std::printf("\n");
        }
    }
    if (stream_items > 0) {
        DecompressionEngine engine(image);
        size_t shown = 0;
        for (const DecodedItem &item : engine.items()) {
            if (shown++ >= stream_items)
                break;
            if (item.isCodeword)
                std::printf("  +%06x  CODEWORD #%u\n", item.nibbleAddr,
                            item.rank);
            else
                std::printf("  +%06x  %s\n", item.nibbleAddr,
                            isa::disassembleWord(item.word).c_str());
        }
    }
    return 0;
}

int
run(int argc, char **argv)
{
    std::string input;
    std::string function;
    bool disasm = false;
    bool dict = false;
    size_t stream_items = 0;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--disasm") {
            disasm = true;
            if (i + 1 < argc && argv[i + 1][0] != '-')
                function = argv[++i];
        } else if (arg == "--dict") {
            dict = true;
        } else if (arg == "--stream" && i + 1 < argc) {
            stream_items = tools::flagValue<size_t>("--stream", argv[++i]);
        } else if (!arg.empty() && arg[0] != '-') {
            input = arg;
        } else {
            return usage();
        }
    }
    if (input.empty())
        return usage();

    std::vector<uint8_t> bytes = readFile(input);
    if (hasMagic(bytes, "CCPR"))
        return dumpProgram(loadProgram(bytes), disasm, function);
    if (hasMagic(bytes, "CCIM"))
        return dumpImage(loadImage(bytes), dict, stream_items);
    std::fprintf(stderr, "ccdump: unrecognized file format\n");
    return tools::exitUserError;
}

} // namespace

int
main(int argc, char **argv)
{
    return tools::runTool("ccdump", [&] { return run(argc, argv); });
}
