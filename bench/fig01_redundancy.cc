/**
 * @file
 * Figure 1: distinct instruction encodings as a percentage of the
 * entire program -- how much of each benchmark consists of encodings
 * used exactly once vs encodings that repeat.
 *
 * Paper: on average < 20% of instructions have once-used encodings; for
 * go, 1% of the most frequent distinct words cover 30% of the program
 * and 10% cover 66%.
 */

#include "analysis/analysis.hh"
#include "common.hh"

using namespace codecomp;
using namespace codecomp::bench;

int
main(int argc, char **argv)
{
    initJobs(argc, argv);
    banner("Figure 1", "distinct instruction encodings per program");
    std::printf("%-9s %8s %9s %12s %12s %10s %10s\n", "bench", "insns",
                "distinct", "once-used", "repeated", "top1%cov",
                "top10%cov");
    double avg_single = 0;
    auto suite = buildSuite();
    for (const auto &[name, program] : suite) {
        analysis::RedundancyProfile profile =
            analysis::profileRedundancy(program);
        std::printf("%-9s %8u %9u %12s %12s %10s %10s\n", name.c_str(),
                    profile.totalInsns, profile.distinctEncodings,
                    pct(profile.fractionSingleUse()).c_str(),
                    pct(profile.fractionRepeated()).c_str(),
                    pct(profile.topEncodingCoverage(1)).c_str(),
                    pct(profile.topEncodingCoverage(10)).c_str());
        avg_single += profile.fractionSingleUse();
    }
    std::printf("average once-used fraction: %s   (paper: < 20%%)\n",
                pct(avg_single / suite.size()).c_str());
    std::printf("paper (go): top 1%% of words cover 30%%, top 10%% cover "
                "66%% of the program\n");
    return 0;
}
