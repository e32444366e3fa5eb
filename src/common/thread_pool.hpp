/**
 * @file
 * A minimal fixed-size thread pool used to compose circuit blocks and run
 * noise trajectories in parallel (the paper composes blocks concurrently
 * with Python multiprocessing; this is the C++ equivalent).
 *
 * The pool keeps lightweight lifetime counters (submitted / completed /
 * busy time) unconditionally and, when obs tracing is enabled, emits a
 * span per task plus queue-depth samples and wait/run-time histograms.
 * Workers are named ("geyser-wk0", ...) for trace readability and
 * debugger ergonomics.
 *
 * Exception safety: a task that throws never reaches std::terminate.
 * parallelFor() captures the first exception thrown by any of its tasks
 * and rethrows it on the calling thread after the whole batch has
 * drained; exceptions from bare submit() tasks are swallowed and counted
 * (PoolStats::exceptions, pool.task_exception). Each parallelFor() batch
 * completes on its own latch, so concurrent batches from different
 * threads do not wait on each other's tasks, and a task that re-enters
 * parallelFor() on its own pool runs the nested batch inline instead of
 * deadlocking on a starved queue.
 */
#ifndef GEYSER_COMMON_THREAD_POOL_HPP
#define GEYSER_COMMON_THREAD_POOL_HPP

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace geyser {

/** Point-in-time view of a pool's activity. */
struct PoolStats
{
    long submitted = 0;    ///< Tasks ever submitted.
    long completed = 0;    ///< Tasks finished.
    int inFlight = 0;      ///< Submitted but unfinished (queued + running).
    int queued = 0;        ///< Waiting in the queue (subset of inFlight).
    int workers = 0;       ///< Worker-thread count.
    long busyMicros = 0;   ///< Total wall time spent inside tasks.
    long exceptions = 0;   ///< Swallowed throws from bare submit() tasks.
};

/**
 * Fixed-size worker pool. Tasks are void() callables; waitIdle() blocks
 * until every submitted task has finished.
 */
class ThreadPool
{
  public:
    /** Create a pool with n workers (n <= 0 selects hardware concurrency). */
    explicit ThreadPool(int n = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue a task for execution. */
    void submit(std::function<void()> task);

    /** Block until all submitted tasks have completed. */
    void waitIdle();

    /** Number of worker threads. */
    int size() const { return static_cast<int>(workers_.size()); }

    /** Activity counters (thread-safe; queued/inFlight are a snapshot). */
    PoolStats snapshot() const;

    /**
     * Convenience: run fn(i) for i in [0, n) across the pool and wait
     * for exactly this batch (not for unrelated in-flight tasks). fn
     * must be safe to invoke concurrently for distinct i. If any
     * invocation throws, the remaining tasks of the batch still run to
     * completion and the first exception is rethrown on the calling
     * thread. Called from one of this pool's own workers, the batch
     * runs inline on the caller (a worker blocking on its own queue
     * would deadlock a 1-worker pool).
     */
    void parallelFor(int n, const std::function<void(int)> &fn);

  private:
    struct Task
    {
        std::function<void()> fn;
        uint64_t submitMicros = 0;
    };

    /** Completion state shared by one parallelFor batch. */
    struct Batch
    {
        std::mutex mutex;
        std::condition_variable cv;
        int remaining = 0;
        std::exception_ptr error;
    };

    void workerLoop(int index);

    std::vector<std::thread> workers_;
    std::queue<Task> tasks_;
    mutable std::mutex mutex_;
    std::condition_variable cvTask_;
    std::condition_variable cvIdle_;
    int inFlight_ = 0;
    bool stop_ = false;
    std::atomic<long> submitted_{0};
    std::atomic<long> completed_{0};
    std::atomic<long> busyMicros_{0};
    std::atomic<long> exceptions_{0};
};

/** Global pool shared by the library (lazily constructed). */
ThreadPool &globalPool();

}  // namespace geyser

#endif  // GEYSER_COMMON_THREAD_POOL_HPP
