/**
 * @file
 * Shared helpers for the per-figure/table reproduction harnesses.
 *
 * Each binary under bench/ regenerates one table or figure from the
 * paper and prints it in a comparable layout, along with the paper's
 * reported values where they exist (see EXPERIMENTS.md for the
 * side-by-side record).
 *
 * Every sweep point is an independent compress, so the harnesses fan
 * out in parallel stages: initJobs() reads a --jobs N flag (falling
 * back to hardware_concurrency), the suite is built concurrently,
 * and parallelGrid() evaluates a bench x config matrix with results
 * collected in index order. The compressor is bit-deterministic for
 * any job count, so figures are reproduced exactly regardless of
 * parallelism.
 */

#ifndef CODECOMP_BENCH_COMMON_HH
#define CODECOMP_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "decompress/cpu.hh"
#include "program/program.hh"
#include "support/thread_pool.hh"
#include "tools/tool_common.hh"
#include "workloads/workloads.hh"

namespace codecomp::bench {

/** Handle the common bench flags: --jobs N caps the worker count. A
 *  malformed N exits 1 with the tools' flag message. */
inline void
initJobs(int argc, char **argv)
{
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::string(argv[i]) != "--jobs")
            continue;
        try {
            setGlobalJobs(
                tools::flagValue<unsigned>("--jobs", argv[i + 1], 1));
        } catch (const std::invalid_argument &error) {
            std::fprintf(stderr, "%s: %s\n", argv[0], error.what());
            std::exit(tools::exitUserError);
        }
    }
}

/** Print a banner naming the experiment. */
inline void
banner(const char *id, const char *title)
{
    std::printf("==============================================================\n");
    std::printf("%s: %s\n", id, title);
    std::printf("==============================================================\n");
}

/** Build every benchmark concurrently; returns (name, program) pairs
 *  in the paper's order. */
inline std::vector<std::pair<std::string, Program>>
buildSuite()
{
    const std::vector<std::string> &names = workloads::benchmarkNames();
    std::vector<Program> programs = parallelMap<Program>(
        names.size(),
        [&names](size_t i) { return workloads::buildBenchmark(names[i]); });
    std::vector<std::pair<std::string, Program>> suite;
    suite.reserve(names.size());
    for (size_t i = 0; i < names.size(); ++i)
        suite.emplace_back(names[i], std::move(programs[i]));
    return suite;
}

/**
 * Evaluate fn(row, col) for every point of a rows x cols sweep in one
 * parallel stage; results come back as [row][col], so printing stays
 * in table order no matter how the points were scheduled.
 */
template <typename R, typename Fn>
std::vector<std::vector<R>>
parallelGrid(size_t rows, size_t cols, const Fn &fn)
{
    std::vector<R> flat = parallelMap<R>(
        rows * cols,
        [cols, &fn](size_t i) { return fn(i / cols, i % cols); });
    std::vector<std::vector<R>> grid(rows);
    for (size_t r = 0; r < rows; ++r)
        grid[r].assign(std::make_move_iterator(flat.begin() + r * cols),
                       std::make_move_iterator(flat.begin() + (r + 1) * cols));
    return grid;
}

/** Format a ratio as a percentage string. */
inline std::string
pct(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%5.1f%%", value * 100.0);
    return buf;
}

} // namespace codecomp::bench

#endif // CODECOMP_BENCH_COMMON_HH
