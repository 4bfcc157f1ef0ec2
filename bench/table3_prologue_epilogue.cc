/**
 * @file
 * Table 3: static prologue and epilogue instructions as a percentage of
 * each program -- the paper's motivation for a compiler that
 * standardizes prologues so they compress to single codewords.
 *
 * Paper: prologue 3.7-8.1%, epilogue 4.3-9.9%, together ~12% typical.
 */

#include "analysis/analysis.hh"
#include "common.hh"

using namespace codecomp;
using namespace codecomp::bench;

int
main(int argc, char **argv)
{
    initJobs(argc, argv);
    banner("Table 3", "prologue and epilogue code in benchmarks");
    std::printf("%-9s %8s %10s %10s %10s\n", "bench", "insns",
                "prologue", "epilogue", "combined");
    double avg = 0;
    auto suite = buildSuite();
    for (const auto &[name, program] : suite) {
        analysis::PrologueEpilogue stats =
            analysis::analyzePrologueEpilogue(program);
        double combined =
            stats.prologueFraction() + stats.epilogueFraction();
        std::printf("%-9s %8u %10s %10s %10s\n", name.c_str(),
                    stats.totalInsns, pct(stats.prologueFraction()).c_str(),
                    pct(stats.epilogueFraction()).c_str(),
                    pct(combined).c_str());
        avg += combined;
    }
    std::printf("average combined: %s  (paper: ~12%%)\n",
                pct(avg / suite.size()).c_str());
    return 0;
}
