#include "support/thread_pool.hh"

#include <algorithm>
#include <cstdlib>
#include <memory>

#include "support/logging.hh"

namespace codecomp {

namespace {

/** True while this thread is executing a pool task. A task that
 *  starts a parallel stage of its own (parallelFor or parallelMap
 *  inside a fan-out) runs that inner stage inline on the
 *  already-parallel thread instead of re-entering the pool. */
thread_local bool insidePoolTask = false;

} // namespace

ThreadPool::ThreadPool(unsigned threads)
{
    CC_ASSERT(threads >= 1, "pool needs at least one thread");
    workerCount_ = threads - 1;
    workers_.reserve(workerCount_);
    for (unsigned i = 0; i < workerCount_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

void
ThreadPool::drain(Batch &batch, std::unique_lock<std::mutex> &lock)
{
    while (batch.next < batch.tasks.size()) {
        std::function<void()> task =
            std::move(batch.tasks[batch.next]);
        ++batch.next;
        lock.unlock();
        std::exception_ptr error;
        insidePoolTask = true;
        try {
            task();
        } catch (...) {
            error = std::current_exception();
        }
        insidePoolTask = false;
        lock.lock();
        if (error && !batch.error)
            batch.error = error;
        if (--batch.unfinished == 0)
            done_.notify_all();
    }
}

void
ThreadPool::workerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        wake_.wait(lock, [this] {
            return stopping_ ||
                   (current_ && current_->next < current_->tasks.size());
        });
        if (stopping_)
            return;
        drain(*current_, lock);
    }
}

void
ThreadPool::runBatch(std::vector<std::function<void()>> tasks)
{
    if (tasks.empty())
        return;
    if (insidePoolTask) {
        // Nested batch from inside a task: the pool is already busy
        // running the outer stage, so execute inline on this thread.
        // Same completion semantics as the pooled path: every task
        // runs, the first exception is rethrown once all are done.
        std::exception_ptr error;
        for (std::function<void()> &task : tasks) {
            try {
                task();
            } catch (...) {
                if (!error)
                    error = std::current_exception();
            }
        }
        if (error)
            std::rethrow_exception(error);
        return;
    }
    Batch batch;
    batch.tasks = std::move(tasks);
    batch.unfinished = batch.tasks.size();

    std::unique_lock<std::mutex> lock(mutex_);
    CC_ASSERT(current_ == nullptr, "nested runBatch on one pool");
    current_ = &batch;
    wake_.notify_all();
    drain(batch, lock);
    done_.wait(lock, [&batch] { return batch.unfinished == 0; });
    current_ = nullptr;
    if (batch.error)
        std::rethrow_exception(batch.error);
}

void
ThreadPool::parallelFor(size_t n, const std::function<void(size_t)> &body)
{
    if (n == 0)
        return;
    if (threadCount() == 1 || n == 1) {
        for (size_t i = 0; i < n; ++i)
            body(i);
        return;
    }
    // A few chunks per thread so uneven indices still balance.
    size_t chunks = std::min<size_t>(n, threadCount() * 4u);
    size_t per = (n + chunks - 1) / chunks;
    std::vector<std::function<void()>> tasks;
    tasks.reserve(chunks);
    for (size_t begin = 0; begin < n; begin += per) {
        size_t end = std::min(n, begin + per);
        tasks.push_back([&body, begin, end] {
            for (size_t i = begin; i < end; ++i)
                body(i);
        });
    }
    runBatch(std::move(tasks));
}

namespace {

unsigned overriddenJobs = 0; //!< 0 = no override

} // namespace

unsigned
defaultJobs()
{
    if (const char *env = std::getenv("CODECOMP_JOBS")) {
        char *end = nullptr;
        long value = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && value >= 1)
            return static_cast<unsigned>(std::min(value, 256l));
        CC_WARN("ignoring invalid CODECOMP_JOBS='", env, "'");
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

void
setGlobalJobs(unsigned jobs)
{
    overriddenJobs = std::min(jobs, 256u);
}

unsigned
globalJobs()
{
    return overriddenJobs ? overriddenJobs : defaultJobs();
}

ThreadPool &
globalPool()
{
    // The farm (and any future concurrent orchestrator) reaches the
    // global pool from several threads at once; the unique_ptr swap
    // below would otherwise be a data race and a use-after-free for
    // threads still draining the old pool.
    static std::mutex pool_mutex;
    static std::unique_ptr<ThreadPool> pool;
    std::lock_guard<std::mutex> lock(pool_mutex);
    if (!pool || pool->threadCount() != globalJobs()) {
        if (pool && pool->busy())
            CC_FATAL("cannot resize the global pool from ",
                     pool->threadCount(), " to ", globalJobs(),
                     " threads while a batch is in flight");
        pool = std::make_unique<ThreadPool>(globalJobs());
    }
    return *pool;
}

} // namespace codecomp
