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
 * --inject and --corrupt build one mutation plan (verify/fault.hh);
 * given together, each scheme runs both. Either mode first runs the
 * pristine image within --max-steps.
 *
 * Exit status follows tool_common.hh: 0 all verified (with --inject,
 * every fault detected; with --corrupt, every mutant contained);
 * 1 usage or input error, including a program that does not halt
 * within --max-steps under --inject/--corrupt and an image with no
 * site for a requested fault; 2 a verification finding (divergence,
 * undetected fault, or corruption-hardening failure); 3 internal
 * panic.
 */

#include <cstdio>
#include <string>
#include <utility>
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

/** Print @p report as ccverify always has: for each lockstep fault its
 *  mutation and verdict, then one tally line over the containment
 *  mutants with every failure below it. */
void
printCampaign(const char *scheme, const verify::CampaignReport &report)
{
    using verify::MutantOutcome;
    size_t contained = 0, failures = 0;
    for (const verify::MutantReport &mutant : report.mutants) {
        if (!verify::isLockstepKind(mutant.kind)) {
            ++contained;
            failures += !mutant.acceptable();
            continue;
        }
        const char *kind = verify::kindName(mutant.kind);
        const char *description = mutant.description.c_str();
        if (mutant.outcome == MutantOutcome::NoSite)
            std::printf("[%s/%s] no site: %s\n", scheme, kind, description);
        else if (mutant.outcome == MutantOutcome::Detected)
            std::printf("[%s/%s] injected: %s\nfault detected: %s", scheme,
                        kind, description, mutant.detail.c_str());
        else
            std::printf("[%s/%s] injected: %s\nFAULT NOT DETECTED %s\n",
                        scheme, kind, description, mutant.detail.c_str());
    }
    if (contained == 0)
        return;
    std::printf("[%s] corruption: %zu mutants: %zu load-rejected, "
                "%zu trapped, %zu ran identical, %zu FAILURES\n",
                scheme, contained, report.count(MutantOutcome::LoadRejected),
                report.count(MutantOutcome::Trapped),
                report.count(MutantOutcome::RanIdentical), failures);
    for (const verify::MutantReport &mutant : report.mutants)
        if (!verify::isLockstepKind(mutant.kind) && !mutant.acceptable())
            std::printf("  %s: %s\n    %s\n",
                        verify::outcomeName(mutant.outcome),
                        mutant.description.c_str(), mutant.detail.c_str());
}

int
run(int argc, char **argv)
{
    std::string input, benchmark, scheme_arg = "all", inject_arg;
    compress::StrategyKind strategy = compress::StrategyKind::Greedy;
    verify::MutationPlan plan;
    verify::LockstepConfig &config = plan.lockstep;

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
            plan.count = tools::flagValue<uint64_t>("--corrupt", argv[++i]);
        } else if (arg == "--seed" && i + 1 < argc) {
            plan.seed = tools::flagValue<uint64_t>("--seed", argv[++i]);
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

    using verify::MutationKind;
    for (auto [name, kind] : {std::pair{"dict", MutationKind::DictEntryWord},
                              {"rank", MutationKind::CodewordRank},
                              {"disp", MutationKind::BranchDisp}})
        if (inject_arg == name || inject_arg == "all")
            plan.kinds.push_back(kind);
    if (!inject_arg.empty() && plan.kinds.empty())
        return usage();
    if (plan.count > 0)
        plan.kinds.insert(plan.kinds.end(),
                          {MutationKind::BitFlip, MutationKind::Truncate,
                           MutationKind::Splice, MutationKind::LengthLie,
                           MutationKind::Structural});

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

    bool finding = false, no_site = false;
    for (compress::Scheme scheme : schemes) {
        compress::CompressorConfig cc;
        cc.scheme = scheme;
        cc.strategy = strategy;
        compress::CompressedImage image =
            compress::compressProgram(program, cc);
        if (plan.kinds.empty()) {
            verify::LockstepResult result =
                verify::runLockstep(program, image, config);
            std::printf("[%s/%s] %s", compress::schemeName(scheme),
                        compress::strategyName(strategy),
                        verify::formatReport(result).c_str());
            finding = finding || !result.ok();
            continue;
        }
        verify::CampaignReport report =
            verify::runCampaign(program, image, plan);
        printCampaign(compress::schemeName(scheme), report);
        finding = finding || !report.ok();
        no_site = no_site || report.count(verify::MutantOutcome::NoSite) > 0;
    }
    if (finding)
        return tools::exitFinding;
    return no_site ? tools::exitUserError : tools::exitOk;
}

} // namespace

int
main(int argc, char **argv)
{
    return tools::runTool("ccverify", [&] { return run(argc, argv); });
}
