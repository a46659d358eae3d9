#include "support/threadpool.h"

#include <algorithm>
#include <deque>
#include <utility>

#include "support/trace.h"

namespace firmup {

namespace {

const trace::Counter c_tasks_queued("threadpool.tasks_queued");
const trace::Counter c_tasks_run("threadpool.tasks_run");
const trace::Counter c_pools("threadpool.pools_created");
const trace::Histogram h_idle_ns("threadpool.worker_idle_ns");

const trace::Counter c_ws_runs("worksteal.runs");
const trace::Counter c_ws_chunks("worksteal.chunks_dealt");
const trace::Counter c_ws_steals("worksteal.steals");

}  // namespace

ThreadPool::ThreadPool(unsigned num_threads)
{
    c_pools.add();
    const unsigned n = std::max(1u, num_threads);
    threads_.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
        threads_.emplace_back([this] { worker(); });
    }
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    work_available_.notify_all();
    for (std::thread &t : threads_) {
        t.join();
    }
}

void
ThreadPool::submit(std::function<void()> task)
{
    c_tasks_queued.add();
    {
        std::unique_lock<std::mutex> lock(mutex_);
        queue_.push(std::move(task));
    }
    work_available_.notify_one();
}

void
ThreadPool::wait_idle()
{
    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        idle_.wait(lock,
                   [this] { return queue_.empty() && in_flight_ == 0; });
        error = std::exchange(first_error_, nullptr);
    }
    if (error) {
        std::rethrow_exception(error);
    }
}

void
ThreadPool::worker()
{
    while (true) {
        std::function<void()> task;
        // Idle accounting: wall time from "ready for work" to "got a
        // task" (or shutdown), observed per wait when metrics are on.
        const bool metered = trace::level() != trace::Level::Off;
        const std::uint64_t idle_start = metered ? trace::wall_ns() : 0;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            work_available_.wait(
                lock, [this] { return stopping_ || !queue_.empty(); });
            if (metered) {
                h_idle_ns.observe(trace::wall_ns() - idle_start);
            }
            if (queue_.empty()) {
                return;  // stopping and drained
            }
            task = std::move(queue_.front());
            queue_.pop();
            ++in_flight_;
        }
        try {
            task();
            c_tasks_run.add();
        } catch (...) {
            cancelled_.store(true);
            std::unique_lock<std::mutex> lock(mutex_);
            if (!first_error_) {
                first_error_ = std::current_exception();
            }
        }
        {
            std::unique_lock<std::mutex> lock(mutex_);
            --in_flight_;
            if (queue_.empty() && in_flight_ == 0) {
                idle_.notify_all();
            }
        }
    }
}

void
ThreadPool::parallel_for(unsigned num_threads, std::size_t count,
                         const std::function<void(std::size_t)> &fn)
{
    if (count == 0) {
        return;
    }
    // A worker beyond the count would only idle.
    const auto workers = static_cast<unsigned>(
        std::min<std::size_t>(count, std::max(1u, num_threads)));
    ThreadPool pool(workers);
    std::atomic<std::size_t> next{0};
    for (unsigned t = 0; t < workers; ++t) {
        pool.submit([&pool, &next, count, &fn] {
            // After a sibling throws, abandon the remaining indices so
            // the caller sees the failure promptly instead of paying for
            // the rest of the sweep.
            while (!pool.cancelled()) {
                const std::size_t i = next.fetch_add(1);
                if (i >= count) {
                    return;
                }
                fn(i);
            }
        });
    }
    pool.wait_idle();
}

std::size_t
WorkStealingScheduler::chunk_for(std::size_t count, unsigned threads)
{
    const std::size_t n = std::max(1u, threads);
    return std::clamp<std::size_t>(count / (n * 8), 1, 64);
}

void
WorkStealingScheduler::run(unsigned threads, std::size_t count,
                           const std::function<void(std::size_t)> &fn)
{
    if (count == 0) {
        return;
    }
    const unsigned n =
        static_cast<unsigned>(std::min<std::size_t>(
            std::max(1u, threads), count));
    if (n == 1) {
        // Exact serial semantics, no thread machinery: this is the path
        // the 1-worker determinism runs compare everything against.
        for (std::size_t i = 0; i < count; ++i) {
            fn(i);
        }
        return;
    }
    c_ws_runs.add();

    struct Range
    {
        std::size_t begin = 0;
        std::size_t end = 0;
    };
    struct WorkerDeque
    {
        std::mutex mutex;
        std::deque<Range> ranges;
    };
    // Constructed in place and never reallocated (mutex is immovable).
    std::vector<WorkerDeque> deques(n);

    // Deal contiguous chunks round-robin. Contiguity is load-bearing for
    // callers that order items target-major; round-robin spreads the
    // initial ranges so stealing is the exception, not the steady state.
    const std::size_t chunk = chunk_for(count, n);
    std::size_t begin = 0;
    unsigned next_worker = 0;
    std::size_t dealt = 0;
    while (begin < count) {
        const std::size_t end = std::min(begin + chunk, count);
        deques[next_worker].ranges.push_back({begin, end});
        begin = end;
        next_worker = (next_worker + 1) % n;
        ++dealt;
    }
    c_ws_chunks.add(dealt);

    std::atomic<bool> cancelled{false};
    std::mutex error_mutex;
    std::exception_ptr first_error;

    auto worker = [&](unsigned self) {
        try {
            while (!cancelled.load(std::memory_order_relaxed)) {
                Range range;
                bool got = false;
                {
                    std::lock_guard<std::mutex> lock(deques[self].mutex);
                    if (!deques[self].ranges.empty()) {
                        range = deques[self].ranges.back();
                        deques[self].ranges.pop_back();
                        got = true;
                    }
                }
                for (unsigned step = 1; !got && step < n; ++step) {
                    WorkerDeque &victim = deques[(self + step) % n];
                    std::lock_guard<std::mutex> lock(victim.mutex);
                    if (!victim.ranges.empty()) {
                        range = victim.ranges.front();
                        victim.ranges.pop_front();
                        got = true;
                        c_ws_steals.add();
                    }
                }
                if (!got) {
                    return;  // every deque drained; in-flight chunks
                             // spawn no new work, so this is final
                }
                for (std::size_t i = range.begin; i < range.end; ++i) {
                    if (cancelled.load(std::memory_order_relaxed)) {
                        return;
                    }
                    fn(i);
                }
            }
        } catch (...) {
            cancelled.store(true);
            std::lock_guard<std::mutex> lock(error_mutex);
            if (!first_error) {
                first_error = std::current_exception();
            }
        }
    };

    std::vector<std::thread> workers;
    workers.reserve(n - 1);
    for (unsigned i = 1; i < n; ++i) {
        workers.emplace_back(worker, i);
    }
    worker(0);  // the calling thread is worker 0
    for (std::thread &t : workers) {
        t.join();
    }
    if (first_error) {
        std::rethrow_exception(first_error);
    }
}

}  // namespace firmup
