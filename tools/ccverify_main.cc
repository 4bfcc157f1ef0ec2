/**
 * @file
 * ccverify -- lockstep differential verification of the compressed-
 * program processor against the plain processor, over the same source
 * program. Compresses the program internally (the .cci format does not
 * carry the address map the verifier needs), runs both processors
 * instruction for instruction, and reports any divergence with a
 * disassembled window of recent history from both sides.
 *
 *   ccverify <prog.ccp> [options]
 *   ccverify --benchmark <name> [options]
 *
 * Options:
 *   --scheme <name>|all  scheme(s) to verify (all); names come from
 *                        the codec registry (ccompress --list-schemes)
 *   --strategy greedy|refit   selection strategy (greedy)
 *   --max-steps N        instruction budget per run
 *   --window N           retired instructions of history per side
 *   --max-divergences N  stop after N divergences
 *   --check-interval N   full joint state walk every N instructions
 *   --inject dict|rank|disp|all   fault-injection self-test mode:
 *                        mutate the image and expect a divergence
 *   --corrupt N          corruption-campaign mode: N seeded byte-level
 *                        mutants of the serialized image (plus the
 *                        structural mutant set) per scheme, each of
 *                        which must be load-rejected, machine-check
 *                        trapped, or provably behavior-preserving
 *   --seed N             fault-injection / corruption seed
 *
 * Exit status follows tool_common.hh: 0 all verified (with --inject,
 * every fault detected; with --corrupt, every mutant contained);
 * 1 usage or input error; 2 a verification finding (divergence,
 * undetected fault, or corruption-hardening failure); 3 internal
 * panic.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "compress/compressor.hh"
#include "compress/objfile.hh"
#include "support/serialize.hh"
#include "tool_common.hh"
#include "verify/fault.hh"
#include "verify/lockstep.hh"
#include "workloads/workloads.hh"

using namespace codecomp;

namespace {

int
usage()
{
    std::fprintf(
        stderr,
        "usage: ccverify <prog.ccp> | --benchmark <name>\n"
        "  [--scheme %s|all]\n"
        "  [--strategy greedy|refit] [--max-steps N]\n"
        "  [--window N] [--max-divergences N] [--check-interval N]\n"
        "  [--inject dict|rank|disp|all] [--corrupt N]\n"
        "  [--seed N]\n",
        compress::schemeCliNames().c_str());
    return tools::exitUserError;
}

bool
hasMagic(const std::vector<uint8_t> &bytes, const char *magic)
{
    return bytes.size() >= 4 && bytes[0] == magic[0] &&
           bytes[1] == magic[1] && bytes[2] == magic[2] &&
           bytes[3] == magic[3];
}

/** One clean lockstep run; returns true if it verified. */
bool
verifyScheme(const Program &program, compress::Scheme scheme,
             compress::StrategyKind strategy,
             const verify::LockstepConfig &config)
{
    compress::CompressorConfig cc;
    cc.scheme = scheme;
    cc.strategy = strategy;
    compress::CompressedImage image =
        compress::compressProgram(program, cc);
    verify::LockstepResult result =
        verify::runLockstep(program, image, config);
    std::printf("[%s/%s] %s", compress::schemeName(scheme),
                compress::strategyName(strategy),
                verify::formatReport(result).c_str());
    return result.ok();
}

/** Fault-injection self-test: the run must diverge and say why. */
bool
verifyInjected(const Program &program, compress::Scheme scheme,
               compress::StrategyKind strategy, verify::FaultKind kind,
               uint64_t seed, const verify::LockstepConfig &config)
{
    compress::CompressorConfig cc;
    cc.scheme = scheme;
    cc.strategy = strategy;
    compress::CompressedImage image =
        compress::compressProgram(program, cc);
    verify::FaultInjection fault =
        verify::injectFault(image, kind, seed);
    verify::LockstepResult result =
        verify::runLockstep(program, fault.image, config);
    std::printf("[%s/%s] injected: %s\n", compress::schemeName(scheme),
                verify::faultKindName(kind), fault.description.c_str());
    if (result.ok()) {
        std::printf("FAULT NOT DETECTED after %llu verified "
                    "instructions\n",
                    static_cast<unsigned long long>(result.verifiedInsts));
        return false;
    }
    std::printf("fault detected: %s", verify::formatReport(result).c_str());
    return true;
}

/** Corruption campaign: every mutant must be contained. */
bool
verifyCorrupt(const Program &program, compress::Scheme scheme,
              compress::StrategyKind strategy, uint64_t count,
              uint64_t seed, uint64_t max_steps)
{
    compress::CompressorConfig cc;
    cc.scheme = scheme;
    cc.strategy = strategy;
    compress::CompressedImage image =
        compress::compressProgram(program, cc);
    verify::CorruptionCampaign campaign =
        verify::runCorruptionCampaign(program, image, count, seed,
                                      max_steps);
    std::printf("[%s] corruption: %llu mutants: %llu load-rejected, "
                "%llu trapped, %llu ran identical, %zu FAILURES\n",
                compress::schemeName(scheme),
                static_cast<unsigned long long>(campaign.total),
                static_cast<unsigned long long>(campaign.loadRejected),
                static_cast<unsigned long long>(campaign.trapped),
                static_cast<unsigned long long>(campaign.ranIdentical),
                campaign.failures.size());
    for (const verify::MutantReport &failure : campaign.failures)
        std::printf("  %s: %s\n    %s\n",
                    verify::mutantOutcomeName(failure.outcome),
                    failure.description.c_str(), failure.detail.c_str());
    return campaign.ok();
}

int
run(int argc, char **argv)
{
    std::string input, benchmark, scheme_arg = "all", inject_arg;
    compress::StrategyKind strategy = compress::StrategyKind::Greedy;
    uint64_t seed = 1, corrupt_count = 0;
    verify::LockstepConfig config;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--benchmark" && i + 1 < argc) {
            benchmark = argv[++i];
        } else if (arg == "--scheme" && i + 1 < argc) {
            scheme_arg = argv[++i];
        } else if (arg == "--strategy" && i + 1 < argc) {
            auto kind = compress::parseStrategyName(argv[++i]);
            if (!kind)
                return usage();
            strategy = *kind;
        } else if (arg == "--max-steps" && i + 1 < argc) {
            config.maxSteps =
                tools::flagValue<uint64_t>("--max-steps", argv[++i]);
        } else if (arg == "--window" && i + 1 < argc) {
            config.window =
                tools::flagValue<unsigned>("--window", argv[++i], 1);
        } else if (arg == "--max-divergences" && i + 1 < argc) {
            config.maxDivergences =
                tools::flagValue<unsigned>("--max-divergences", argv[++i], 1);
        } else if (arg == "--check-interval" && i + 1 < argc) {
            config.fullCheckInterval =
                tools::flagValue<uint64_t>("--check-interval", argv[++i]);
        } else if (arg == "--inject" && i + 1 < argc) {
            inject_arg = argv[++i];
        } else if (arg == "--corrupt" && i + 1 < argc) {
            corrupt_count = tools::flagValue<uint64_t>("--corrupt", argv[++i]);
        } else if (arg == "--seed" && i + 1 < argc) {
            seed = tools::flagValue<uint64_t>("--seed", argv[++i]);
        } else if (!arg.empty() && arg[0] != '-') {
            input = arg;
        } else {
            return usage();
        }
    }
    if (input.empty() == benchmark.empty())
        return usage();

    std::vector<compress::Scheme> schemes;
    if (scheme_arg == "all") {
        schemes = compress::allSchemes();
    } else if (auto parsed = compress::parseSchemeName(scheme_arg)) {
        schemes = {*parsed};
    } else {
        return usage();
    }

    std::vector<verify::FaultKind> kinds;
    if (inject_arg == "all") {
        kinds = {verify::FaultKind::DictEntryWord,
                 verify::FaultKind::CodewordRank,
                 verify::FaultKind::BranchDisp};
    } else if (inject_arg == "dict") {
        kinds = {verify::FaultKind::DictEntryWord};
    } else if (inject_arg == "rank") {
        kinds = {verify::FaultKind::CodewordRank};
    } else if (inject_arg == "disp") {
        kinds = {verify::FaultKind::BranchDisp};
    } else if (!inject_arg.empty()) {
        return usage();
    }

    Program program;
    if (!benchmark.empty()) {
        program = workloads::buildBenchmark(benchmark);
    } else {
        std::vector<uint8_t> bytes = readFile(input);
        if (!hasMagic(bytes, "CCPR")) {
            std::fprintf(stderr, "ccverify: %s is not a .ccp program\n",
                         input.c_str());
            return tools::exitUserError;
        }
        program = loadProgram(bytes);
    }

    bool ok = true;
    for (compress::Scheme scheme : schemes) {
        if (corrupt_count > 0) {
            ok = verifyCorrupt(program, scheme, strategy, corrupt_count,
                               seed, config.maxSteps) &&
                 ok;
        } else if (kinds.empty()) {
            ok = verifyScheme(program, scheme, strategy, config) && ok;
        } else {
            for (verify::FaultKind kind : kinds)
                ok = verifyInjected(program, scheme, strategy, kind, seed,
                                    config) &&
                     ok;
        }
    }
    return ok ? tools::exitOk : tools::exitFinding;
}

} // namespace

int
main(int argc, char **argv)
{
    return tools::runTool("ccverify", [&] { return run(argc, argv); });
}
