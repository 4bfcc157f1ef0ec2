/**
 * @file
 * Scoped parallel stages plus the process-wide parallelism knob.
 *
 * Every parallel stage in the system (multi-workload compression, farm
 * jobs, autotune pricing, benchmark suite construction) is one
 * parallelFor call. Work is always *deterministically decomposed*:
 * callers split their problem into an index space, the stage only
 * decides which thread evaluates which index, and callers combine
 * results by index. Each single compression is serial, so this is what
 * makes compressed output byte-identical for any job count.
 *
 * A stage owns its threads: it starts them when it begins and joins
 * them before it returns, so no thread outlives the call. The width
 * is setGlobalJobs() (e.g. a --jobs flag), else
 * std::thread::hardware_concurrency().
 */

#ifndef CODECOMP_SUPPORT_THREAD_POOL_HH
#define CODECOMP_SUPPORT_THREAD_POOL_HH

#include <cstddef>
#include <functional>
#include <vector>

namespace codecomp {

/** Set the process-wide job count (0 = the hardware thread count).
 *  A stage already running keeps the width it started with. */
void setGlobalJobs(unsigned jobs);

/** The process-wide job count used by every parallel stage. */
unsigned globalJobs();

/**
 * Evaluate body(i) for every i in [0, n). The stage reads globalJobs()
 * once, starts that many threads less one, and runs bodies on the
 * calling thread too; every thread claims the next unclaimed run of
 * contiguous indices from one atomic counter. All threads are joined
 * before the call returns. Every index runs even if some throw; the
 * first exception caught is rethrown after the last index. A stage
 * started from inside a stage, or with width 1 or n <= 1, runs inline
 * on the current thread and starts no thread.
 */
void parallelFor(size_t n, const std::function<void(size_t)> &body);

/**
 * Evaluate fn(i) for i in [0, n) as one parallelFor and return the
 * results in index order, so output is independent of scheduling.
 */
template <typename R, typename Fn>
std::vector<R>
parallelMap(size_t n, const Fn &fn)
{
    std::vector<R> results(n);
    parallelFor(n, [&results, &fn](size_t i) { results[i] = fn(i); });
    return results;
}

} // namespace codecomp

#endif // CODECOMP_SUPPORT_THREAD_POOL_HH
