#include "support/threadpool.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <thread>
#include <vector>

#include "support/trace.h"

namespace firmup {

namespace {

const trace::Histogram h_idle_ns("threadpool.worker_idle_ns");

}  // namespace

unsigned
resolve_worker_threads(unsigned threads)
{
    if (threads != 0) {
        return threads;
    }
    // FIRMUP_THREADS overrides hardware concurrency for threads == 0;
    // the determinism tests use it to pin the worker count externally.
    if (const char *env = std::getenv("FIRMUP_THREADS")) {
        const long parsed = std::strtol(env, nullptr, 10);
        if (parsed > 0) {
            return static_cast<unsigned>(parsed);
        }
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw != 0 ? hw : 1;
}

std::size_t
chunk_for(std::size_t count, unsigned threads)
{
    const std::size_t n = std::max(1u, threads);
    return std::clamp<std::size_t>(count / (n * 8), 1, 64);
}

void
parallel_for(unsigned threads, std::size_t count, std::size_t chunk,
             const std::function<void(std::size_t, std::size_t)> &fn)
{
    chunk = std::max<std::size_t>(chunk, 1);
    const std::size_t ranges = (count + chunk - 1) / chunk;
    const auto run_range = [&](std::size_t k) {
        const std::size_t begin = k * chunk;
        fn(begin, std::min(begin + chunk, count));
    };
    // A worker beyond the range count would only idle.
    const auto workers = static_cast<unsigned>(
        std::min<std::size_t>(std::max(1u, threads), ranges));
    if (workers <= 1) {
        for (std::size_t k = 0; k < ranges; ++k) {
            run_range(k);
        }
        return;
    }

    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;  // written once, by the first to fail
    const bool metered = trace::level() != trace::Level::Off;
    std::vector<std::uint64_t> finished(workers, 0);
    const auto worker = [&](unsigned self) {
        try {
            for (std::size_t k = next.fetch_add(1);
                 k < ranges && !failed.load();
                 k = next.fetch_add(1)) {
                run_range(k);
            }
        } catch (...) {
            if (!failed.exchange(true)) {
                error = std::current_exception();
            }
        }
        if (metered) {
            finished[self] = trace::wall_ns();
        }
    };
    {
        // jthreads join on scope exit, also when starting one throws.
        std::vector<std::jthread> helpers;
        helpers.reserve(workers - 1);
        for (unsigned w = 1; w < workers; ++w) {
            helpers.emplace_back(worker, w);
        }
        worker(0);
    }
    if (metered) {
        const std::uint64_t last =
            *std::max_element(finished.begin(), finished.end());
        for (const std::uint64_t at : finished) {
            h_idle_ns.observe(last - at);
        }
    }
    if (error) {
        std::rethrow_exception(error);
    }
}

}  // namespace firmup
