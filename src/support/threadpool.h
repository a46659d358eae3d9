/**
 * @file
 * One chunked parallel loop for data-parallel corpus work.
 *
 * The paper's evaluation machine runs 72 threads (section 5.1), and
 * every parallel phase here is embarrassingly parallel: corpus devices,
 * query sources, target executables, the procedures of one executable
 * and the (query, target) game grid. Each writes only its own
 * pre-sized slots and merges single-threaded, so one loop serves them
 * all: contiguous ranges of the index space, handed out in index order
 * from one shared counter to a few workers, the caller among them.
 *
 * A range that throws does not terminate the process: the first
 * exception abandons the ranges not yet started and is rethrown on the
 * calling thread once every worker has stopped.
 */
#pragma once

#include <cstddef>
#include <functional>

namespace firmup {

/**
 * Resolve a worker-thread count: non-zero @p threads is returned as-is;
 * 0 means the FIRMUP_THREADS environment override when set, otherwise
 * hardware concurrency (minimum 1). The determinism tests and CI use
 * FIRMUP_THREADS to pin parallelism externally on machines whose core
 * count would otherwise serialize the work.
 */
unsigned resolve_worker_threads(unsigned threads);

/**
 * Chunk size for @p count items on @p threads workers:
 * count / (threads * 8), clamped to [1, 64] — about eight ranges per
 * worker, so a free worker can even out a skewed tail, and capped so
 * that one range never holds a core's whole share.
 */
std::size_t chunk_for(std::size_t count, unsigned threads);

/**
 * Cover [0, count) with the ranges [k * chunk, min((k + 1) * chunk,
 * count)) and run @p fn(begin, end) once per range on min(@p threads,
 * ranges) workers (minimum 1), the calling thread among them; return
 * when all are done. A free worker takes the next range in index
 * order. One worker runs the ranges in order on the calling thread and
 * starts no thread. @p fn must be safe to call concurrently for
 * disjoint ranges. If an invocation throws, ranges not yet started are
 * abandoned and the first exception is rethrown here. With metrics on,
 * a run of two or more workers observes `threadpool.worker_idle_ns`
 * once per worker: the time from the end of its last range to the end
 * of the last range of all.
 */
void parallel_for(unsigned threads, std::size_t count, std::size_t chunk,
                  const std::function<void(std::size_t, std::size_t)> &fn);

/** Per-index form: @p fn(i) for every i in [0, count), one per range. */
inline void
parallel_for(unsigned threads, std::size_t count,
             const std::function<void(std::size_t)> &fn)
{
    parallel_for(threads, count, 1,
                 [&fn](std::size_t i, std::size_t) { fn(i); });
}

}  // namespace firmup
