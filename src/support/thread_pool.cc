#include "support/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

namespace codecomp {

namespace {

std::atomic<unsigned> overriddenJobs{0}; //!< 0 = no override

/** True while this thread runs a stage's bodies. A body that starts a
 *  parallel stage of its own (parallelFor or parallelMap inside a
 *  fan-out) runs that inner stage inline on the already-parallel
 *  thread instead of starting threads of its own. */
thread_local bool insideStage = false;

} // namespace

void
setGlobalJobs(unsigned jobs)
{
    overriddenJobs = std::min(jobs, 256u);
}

unsigned
globalJobs()
{
    if (unsigned jobs = overriddenJobs)
        return jobs;
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

void
parallelFor(size_t n, const std::function<void(size_t)> &body)
{
    if (n == 0)
        return;
    size_t width = insideStage ? 1 : std::min<size_t>(globalJobs(), n);
    // Threads claim runs of contiguous indices, a few runs per thread
    // so uneven indices still balance. Neighbouring indices tend to
    // share work (a farm queue lists each program's jobs together), so
    // a run keeps them on one thread instead of racing for one product.
    size_t runs = std::min(n, width * 4);
    size_t run = (n + runs - 1) / runs;
    std::atomic<size_t> next{0};
    std::mutex errorMutex;
    std::exception_ptr error;
    auto drain = [&] {
        bool outer = insideStage;
        insideStage = true;
        for (size_t begin; (begin = next.fetch_add(run)) < n;) {
            for (size_t i = begin; i < std::min(n, begin + run); ++i) {
                try {
                    body(i);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(errorMutex);
                    if (!error)
                        error = std::current_exception();
                }
            }
        }
        insideStage = outer;
    };

    std::vector<std::thread> threads;
    try {
        for (size_t t = 1; t < width; ++t)
            threads.emplace_back(drain);
    } catch (const std::exception &) {
        // Out of threads or memory: the threads already started and
        // this one still claim every index between them.
    }
    drain();
    for (std::thread &thread : threads)
        thread.join();
    if (error)
        std::rethrow_exception(error);
}

} // namespace codecomp
