#include "common/thread_pool.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>

#ifdef __linux__
#include <pthread.h>
#endif

#include "obs/obs.hpp"

namespace geyser {

namespace {

/**
 * The pool (if any) whose workerLoop owns the current thread. Lets
 * parallelFor detect re-entrant calls from its own workers and run them
 * inline instead of enqueueing work the blocked worker can never drain.
 */
thread_local ThreadPool *t_workerPool = nullptr;

}  // namespace

ThreadPool::ThreadPool(int n)
{
    int count = n > 0 ? n : static_cast<int>(std::thread::hardware_concurrency());
    count = std::max(1, count);
    workers_.reserve(static_cast<size_t>(count));
    for (int i = 0; i < count; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cvTask_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    submitted_.fetch_add(1, std::memory_order_relaxed);
    size_t depth;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        tasks_.push({std::move(task),
                     obs::enabled() ? obs::nowMicros() : uint64_t{0}});
        ++inFlight_;
        depth = tasks_.size();
    }
    obs::counterEvent("pool.queue_depth", static_cast<double>(depth));
    cvTask_.notify_one();
}

void
ThreadPool::waitIdle()
{
    std::unique_lock<std::mutex> lock(mutex_);
    cvIdle_.wait(lock, [this] { return inFlight_ == 0; });
}

PoolStats
ThreadPool::snapshot() const
{
    PoolStats stats;
    stats.submitted = submitted_.load(std::memory_order_relaxed);
    stats.completed = completed_.load(std::memory_order_relaxed);
    stats.workers = static_cast<int>(workers_.size());
    stats.busyMicros = busyMicros_.load(std::memory_order_relaxed);
    stats.exceptions = exceptions_.load(std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stats.inFlight = inFlight_;
        stats.queued = static_cast<int>(tasks_.size());
    }
    return stats;
}

void
ThreadPool::parallelFor(int n, const std::function<void(int)> &fn)
{
    if (n <= 0)
        return;
    // Re-entrant call from one of our own workers: the caller already
    // occupies a worker slot, so queueing and blocking could starve a
    // small pool into deadlock. Run the nested batch inline; exceptions
    // propagate naturally.
    if (t_workerPool == this) {
        for (int i = 0; i < n; ++i)
            fn(i);
        return;
    }
    // Each batch completes on its own latch so concurrent parallelFor
    // callers (block composition vs. trajectory chunks) never wait on
    // each other's tasks the way a global waitIdle() would.
    auto batch = std::make_shared<Batch>();
    batch->remaining = n;
    for (int i = 0; i < n; ++i) {
        submit([batch, &fn, i] {
            std::exception_ptr error;
            try {
                fn(i);
            } catch (...) {
                error = std::current_exception();
            }
            std::lock_guard<std::mutex> lock(batch->mutex);
            if (error && !batch->error)
                batch->error = error;
            if (--batch->remaining == 0)
                batch->cv.notify_all();
        });
    }
    std::unique_lock<std::mutex> lock(batch->mutex);
    batch->cv.wait(lock, [&] { return batch->remaining == 0; });
    // The whole batch has drained (so `fn` is safely dead); surface the
    // first failure on the calling thread instead of std::terminate.
    if (batch->error)
        std::rethrow_exception(batch->error);
}

void
ThreadPool::workerLoop(int index)
{
    char name[16];
    std::snprintf(name, sizeof(name), "geyser-wk%d", index);
#ifdef __linux__
    pthread_setname_np(pthread_self(), name);
#endif
    obs::setThreadName(name);
    t_workerPool = this;

    for (;;) {
        Task task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cvTask_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
            if (stop_ && tasks_.empty())
                return;
            task = std::move(tasks_.front());
            tasks_.pop();
        }
        const uint64_t start = obs::nowMicros();
        {
            obs::Span span("pool.task", "pool");
            if (span.active() && task.submitMicros != 0) {
                const double waitUs =
                    static_cast<double>(start - task.submitMicros);
                span.arg("wait_us", waitUs);
                obs::histogram("pool.task_wait_us").record(waitUs);
            }
            // A throwing task must never unwind into the worker loop:
            // that would std::terminate the process and skip the
            // in-flight bookkeeping below, hanging every waitIdle()
            // caller. parallelFor wraps its tasks to propagate the
            // exception; anything escaping a bare submit() is swallowed
            // and counted here.
            try {
                task.fn();
            } catch (...) {
                exceptions_.fetch_add(1, std::memory_order_relaxed);
                obs::counter("pool.task_exception").add();
            }
        }
        const uint64_t stop = obs::nowMicros();
        busyMicros_.fetch_add(static_cast<long>(stop - start),
                              std::memory_order_relaxed);
        completed_.fetch_add(1, std::memory_order_relaxed);
        if (obs::enabled())
            obs::histogram("pool.task_run_us")
                .record(static_cast<double>(stop - start));
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --inFlight_;
            if (inFlight_ == 0)
                cvIdle_.notify_all();
        }
    }
}

ThreadPool &
globalPool()
{
    static ThreadPool pool;
    return pool;
}

}  // namespace geyser
