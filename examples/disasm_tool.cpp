/**
 * @file
 * Disassembler / inspector for suite benchmarks. Usage:
 *
 *   disasm_tool [benchmark] [function-name|--list]
 *
 * With --list (default) prints the symbol table; with a function name
 * disassembles it, marking prologue and epilogue ranges -- handy for
 * eyeballing the SDTS templates the compressor exploits.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "isa/disasm.hh"
#include "program/cfg.hh"
#include "workloads/workloads.hh"

using namespace codecomp;

int
main(int argc, char **argv)
{
    std::string name = argc > 1 ? argv[1] : "compress";
    std::string what = argc > 2 ? argv[2] : "--list";

    Program program = workloads::buildBenchmark(name);
    if (what == "--list") {
        std::printf("%s: %zu instructions, %zu functions, entry at "
                    "0x%08x\n",
                    name.c_str(), program.text.size(),
                    program.functions.size(),
                    program.addrOfIndex(program.entryIndex));
        std::printf("%-28s %10s %8s\n", "function", "address", "insns");
        for (const FunctionSymbol &fn : program.functions)
            std::printf("%-28s 0x%08x %8u\n", fn.name.c_str(),
                        program.addrOfIndex(fn.body.first),
                        fn.body.count);
        return 0;
    }

    for (const FunctionSymbol &fn : program.functions) {
        if (fn.name != what)
            continue;
        Cfg cfg = Cfg::build(program);
        std::vector<bool> leader(program.text.size(), false);
        for (const InstRange &block : cfg.blocks())
            leader[block.first] = true;
        std::printf("%s (%u instructions):\n", fn.name.c_str(),
                    fn.body.count);
        for (uint32_t i = fn.body.first;
             i < fn.body.first + fn.body.count; ++i) {
            const char *tag = "";
            if (i >= fn.prologue.first &&
                i < fn.prologue.first + fn.prologue.count)
                tag = " ; prologue";
            for (const InstRange &ep : fn.epilogues)
                if (i >= ep.first && i < ep.first + ep.count)
                    tag = " ; epilogue";
            std::printf("  0x%08x%s  %s%s\n", program.addrOfIndex(i),
                        leader[i] ? ":" : " ",
                        isa::disassembleWord(program.text[i],
                                             program.addrOfIndex(i))
                            .c_str(),
                        tag);
        }
        return 0;
    }
    std::fprintf(stderr, "no function '%s' in %s (try --list)\n",
                 what.c_str(), name.c_str());
    return 2;
}
