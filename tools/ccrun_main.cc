/**
 * @file
 * ccrun -- execute a .ccp program (plain processor) or a .cci image
 * (compressed-program processor). Program output goes to stdout; the
 * simulated exit code becomes ccrun's exit code.
 *
 *   ccrun prog.ccp [--max-steps N] [--stats]
 *   ccrun prog.cci [--max-steps N] [--stats]
 *
 * --stats prints a human-readable line and a machine-readable
 * "CCRUN_JSON: {...}" line (same fields) to stderr, keeping stdout
 * byte-identical to the simulated program's output.
 *
 * Exit status: the simulated program's exit code on a clean run;
 * otherwise the contract in tool_common.hh (1 bad input, 2 machine
 * check during execution, 3 internal panic).
 */

#include <cstdio>
#include <string>

#include "compress/objfile.hh"
#include "decompress/compressed_cpu.hh"
#include "decompress/cpu.hh"
#include "support/json.hh"
#include "support/serialize.hh"
#include "tool_common.hh"

using namespace codecomp;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: ccrun <prog.ccp|prog.cci> [--max-steps N] "
                 "[--stats]\n");
    return tools::exitUserError;
}

bool
hasMagic(const std::vector<uint8_t> &bytes, const char *magic)
{
    return bytes.size() >= 4 && bytes[0] == magic[0] &&
           bytes[1] == magic[1] && bytes[2] == magic[2] &&
           bytes[3] == magic[3];
}

/** The --stats fields, machine-readable (support/json). */
std::string
statsJson(const char *kind, const ExecResult &result,
          const FetchStats &fetch)
{
    JsonWriter json;
    json.beginObject()
        .member("kind", kind)
        .member("instructions", result.instCount)
        .member("item_fetches", fetch.itemFetches)
        .member("codeword_fetches", fetch.codewordFetches)
        .member("expanded_insts", fetch.expandedInsts)
        .member("fetched_bytes", fetch.fetchedBytes)
        .member("taken_branches", fetch.takenBranches)
        .member("exit_code", result.exitCode)
        .endObject();
    return json.str();
}

int
run(int argc, char **argv)
{
    std::string input;
    uint64_t max_steps = 1ull << 28;
    bool stats = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--max-steps" && i + 1 < argc) {
            max_steps = tools::flagValue<uint64_t>("--max-steps", argv[++i]);
        } else if (arg == "--stats") {
            stats = true;
        } else if (!arg.empty() && arg[0] != '-') {
            input = arg;
        } else {
            return usage();
        }
    }
    if (input.empty())
        return usage();

    std::vector<uint8_t> bytes = readFile(input);
    if (hasMagic(bytes, "CCPR")) {
        Program program = loadProgram(bytes);
        Cpu cpu(program);
        FetchStats fetch;
        ExecResult result =
            stats ? cpu.run(fetch, max_steps) : cpu.run(max_steps);
        std::fputs(result.output.c_str(), stdout);
        if (stats) {
            std::fprintf(stderr, "ccrun: %llu instructions, exit %d\n",
                         static_cast<unsigned long long>(result.instCount),
                         result.exitCode);
            std::fprintf(stderr, "CCRUN_JSON: %s\n",
                         statsJson("ccp", result, fetch).c_str());
        }
        return result.exitCode & 0xff;
    }
    if (hasMagic(bytes, "CCIM")) {
        compress::CompressedImage image = loadImage(bytes);
        CompressedCpu cpu(image);
        FetchStats fetch;
        ExecResult result =
            stats ? cpu.run(fetch, max_steps) : cpu.run(max_steps);
        std::fputs(result.output.c_str(), stdout);
        if (stats) {
            std::fprintf(
                stderr,
                "ccrun: %llu instructions (%llu fetches, %llu "
                "codewords, %llu expanded), exit %d\n",
                static_cast<unsigned long long>(result.instCount),
                static_cast<unsigned long long>(fetch.itemFetches),
                static_cast<unsigned long long>(fetch.codewordFetches),
                static_cast<unsigned long long>(fetch.expandedInsts),
                result.exitCode);
            std::fprintf(stderr, "CCRUN_JSON: %s\n",
                         statsJson("cci", result, fetch).c_str());
        }
        return result.exitCode & 0xff;
    }
    std::fprintf(stderr, "ccrun: '%s' is neither .ccp nor .cci\n",
                 input.c_str());
    return tools::exitUserError;
}

} // namespace

int
main(int argc, char **argv)
{
    return tools::runTool("ccrun", [&] { return run(argc, argv); });
}
