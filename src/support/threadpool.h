/**
 * @file
 * A minimal fixed-size thread pool for data-parallel corpus work.
 *
 * The paper's evaluation machine runs 72 threads with bounded per-thread
 * memory (section 5.1); the corpus-indexing phase here is embarrassingly
 * parallel (one executable per task, no shared state until the merge), so
 * a plain worker pool with a shared queue suffices.
 *
 * A task that throws does not terminate the process: the first exception
 * is captured and rethrown from wait_idle() (and therefore from
 * parallel_for) on the submitting thread; the pool is marked cancelled so
 * cooperative loops can stop early. An exception never retrieved before
 * destruction is dropped — destructors must not throw.
 */
#pragma once

#include <atomic>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace firmup {

/** Fixed-size worker pool; destruction joins after draining the queue. */
class ThreadPool
{
  public:
    /** Spawn @p num_threads workers (minimum 1). */
    explicit ThreadPool(unsigned num_threads);

    /** Drains outstanding work, then joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue a task. */
    void submit(std::function<void()> task);

    /**
     * Block until every submitted task has finished. If any task threw,
     * rethrows the first captured exception (once).
     */
    void wait_idle();

    /** True once a task has thrown; long-running tasks should yield. */
    bool cancelled() const { return cancelled_.load(); }

    /**
     * Run @p fn(i) for i in [0, count) across min(@p num_threads,
     * @p count) workers (minimum 1) and wait.
     * @p fn must be safe to call concurrently for distinct i. If any
     * invocation throws, remaining indices are abandoned and the first
     * exception is rethrown on the calling thread.
     */
    static void parallel_for(unsigned num_threads, std::size_t count,
                             const std::function<void(std::size_t)> &fn);

  private:
    void worker();

    std::vector<std::thread> threads_;
    std::mutex mutex_;
    std::condition_variable work_available_;
    std::condition_variable idle_;
    std::queue<std::function<void()>> queue_;
    std::size_t in_flight_ = 0;
    bool stopping_ = false;
    std::exception_ptr first_error_;
    std::atomic<bool> cancelled_{false};
};

/**
 * Work-stealing range scheduler for heterogeneous per-item work.
 *
 * parallel_for above hands out indices one at a time through a shared
 * atomic — fine when each task is a whole executable to lift, but a
 * batched multi-CVE hunt fans out (query, target) *game* items that are
 * individually tiny once the index caches are warm, and a per-item
 * shared counter (let alone per-item task submission) drowns them in
 * scheduling overhead. Here the index range is pre-split into contiguous
 * chunks dealt round-robin across per-worker deques: each worker pops
 * its own deque LIFO (newest chunk, warmest data) and, when empty,
 * steals the *oldest* chunk from a victim FIFO — the classic
 * owner-LIFO/thief-FIFO discipline that keeps stolen work as far as
 * possible from what the owner is about to touch. Contiguous chunks are
 * what lets the driver order items target-major: every query's game
 * against one target runs back-to-back on one worker while that
 * target's index is hot.
 *
 * Exception semantics match parallel_for: the first thrown exception
 * cancels the sweep (remaining items are abandoned, in-chunk items
 * included) and is rethrown on the calling thread. fn must be safe to
 * call concurrently for distinct indices. Which worker runs which index
 * is non-deterministic; callers get determinism by writing disjoint
 * per-index slots and merging single-threaded, exactly as with
 * parallel_for.
 */
class WorkStealingScheduler
{
  public:
    /**
     * Chunk size for @p count items on @p threads workers:
     * count / (threads * 8), clamped to [1, 64] — about eight chunks
     * per worker so stealing can rebalance a skewed tail, capped so one
     * stolen chunk never holds a core's whole share hostage.
     */
    static std::size_t chunk_for(std::size_t count, unsigned threads);

    /**
     * Run @p fn(i) for i in [0, count) across @p threads workers
     * (minimum 1; the calling thread participates) and wait. If any
     * invocation throws, the first exception is rethrown here.
     */
    static void run(unsigned threads, std::size_t count,
                    const std::function<void(std::size_t)> &fn);
};

}  // namespace firmup
