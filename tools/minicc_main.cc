/**
 * @file
 * minicc -- compile MiniC source (or generate a suite benchmark) into
 * a linked .ccp program file.
 *
 *   minicc input.mc -o prog.ccp [--standard-frames] [--no-runtime]
 *   minicc --benchmark gcc -o gcc.ccp [--scale N]
 */

#include <climits>
#include <cstdio>
#include <cstring>
#include <string>

#include "codegen/codegen.hh"
#include "compress/objfile.hh"
#include "link/object.hh"
#include "support/serialize.hh"
#include "tool_common.hh"
#include "workloads/workloads.hh"

using namespace codecomp;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: minicc <input.mc> -o <out.ccp> [--standard-frames]"
                 " [--no-runtime]\n"
                 "       minicc -c <input.mc> -o <out.cco>   (separate "
                 "compilation)\n"
                 "       minicc --benchmark <name> -o <out.ccp> "
                 "[--scale N]\n");
    return tools::exitUserError;
}

int
run(int argc, char **argv)
{
    std::string input;
    std::string benchmark;
    std::string output;
    int scale = 1;
    bool compile_only = false;
    codegen::CompileOptions options;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "-o" && i + 1 < argc) {
            output = argv[++i];
        } else if (arg == "--benchmark" && i + 1 < argc) {
            benchmark = argv[++i];
        } else if (arg == "--scale" && i + 1 < argc) {
            scale = static_cast<int>(tools::flagValue<unsigned>(
                "--scale", argv[++i], 1, INT_MAX));
        } else if (arg == "-c") {
            compile_only = true;
        } else if (arg == "--standard-frames") {
            options.standardizedFrames = true;
        } else if (arg == "--no-runtime") {
            options.includeRuntime = false;
        } else if (!arg.empty() && arg[0] != '-') {
            input = arg;
        } else {
            return usage();
        }
    }
    if (output.empty() || (input.empty() == benchmark.empty()))
        return usage();

    std::string source;
    if (!benchmark.empty()) {
        source = workloads::benchmarkSource(benchmark, scale);
    } else {
        std::vector<uint8_t> bytes = readFile(input);
        source.assign(bytes.begin(), bytes.end());
    }
    std::string label = benchmark.empty() ? input : benchmark;
    if (compile_only) {
        link::ObjectModule module =
            codegen::compileModule(source, label, options);
        writeFile(output, link::saveModule(module));
        std::printf("%s: %zu instructions, %zu bytes .data, %zu "
                    "functions, %zu calls to resolve -> %s\n",
                    label.c_str(), module.text.size(),
                    module.data.size(), module.functions.size(),
                    module.calls.size(), output.c_str());
    } else {
        Program program = codegen::compile(source, options);
        writeFile(output, saveProgram(program));
        std::printf("%s: %zu instructions (%u bytes .text), %zu bytes "
                    ".data, %zu functions -> %s\n",
                    label.c_str(), program.text.size(),
                    program.textBytes(), program.data.size(),
                    program.functions.size(), output.c_str());
    }
    return tools::exitOk;
}

} // namespace

int
main(int argc, char **argv)
{
    return tools::runTool("minicc", [&] { return run(argc, argv); });
}
