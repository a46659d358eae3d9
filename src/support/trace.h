/**
 * @file
 * Pipeline-wide tracing & metrics.
 *
 * FirmUp's evaluation story (Tables 1-2, Fig. 9) is a claim about where
 * work goes; this module makes that claim machine-checkable. It provides
 * three always-compiled-in, runtime-gated facilities:
 *
 *  - a process-wide MetricsRegistry of *named* monotonic counters,
 *    gauges and log2-bucketed histograms. Counter/histogram updates go
 *    to lock-free per-thread shards (plain relaxed atomics, one writer
 *    per shard) that are summed on snapshot(), so hot-path increments
 *    never contend;
 *  - scoped TraceSpan RAII timers recording wall *and* thread-CPU time
 *    into per-thread event rings, exportable as Chrome `trace_event`
 *    JSON (load the file in chrome://tracing / Perfetto);
 *  - flat stats-JSON and snapshot rendering for experiment footers.
 *
 * Cost contract: every hook is gated on one relaxed atomic load of the
 * global level. At Level::Off an instrumented build does no clock reads,
 * no allocation, no shard access; perfbench (`--trace 1`) reports the
 * traced wall over the untraced one as `trace.overhead`.
 */
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace firmup::trace {

/** How much instrumentation is live. */
enum class Level : int {
    Off = 0,      ///< hooks are a relaxed load + branch, nothing else
    Metrics = 1,  ///< counters/gauges/histograms count; no span events
    Full = 2,     ///< metrics + TraceSpan events in the ring buffers
};

namespace detail {
/** The one global gate every hook loads (relaxed). */
inline std::atomic<int> g_level{0};
}  // namespace detail

/** Current instrumentation level (relaxed load; safe anywhere). */
inline Level
level()
{
    return static_cast<Level>(
        detail::g_level.load(std::memory_order_relaxed));
}

/** Set the process-wide instrumentation level. */
void set_level(Level level);

/** Nanoseconds on the steady clock since the process epoch. */
std::uint64_t wall_ns();
/** Nanoseconds of CPU time consumed by the calling thread. */
std::uint64_t thread_cpu_ns();
/** Nanoseconds of CPU time consumed by the whole process. */
std::uint64_t process_cpu_ns();

/** One completed span, as stored in the per-thread event rings. */
struct TraceEvent
{
    const char *name = "";  ///< static span name ("game", "lift", ...)
    std::string tag;        ///< dynamic tag (target name), may be empty
    int tid = 0;            ///< registry-assigned stable thread number
    std::uint64_t start_ns = 0;  ///< wall_ns() at construction
    std::uint64_t dur_ns = 0;    ///< wall duration (end - start >= 0)
    std::uint64_t cpu_ns = 0;    ///< thread-CPU duration of the span
};

/** Merged view of one histogram at snapshot time. */
struct HistogramSnapshot
{
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t max = 0;
    /** buckets[i] = observations with bit_width(value) == i. */
    std::array<std::uint64_t, 64> buckets{};
};

/** Point-in-time merge of every shard of a registry. */
struct Snapshot
{
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, std::int64_t> gauges;
    std::map<std::string, HistogramSnapshot> histograms;
    std::uint64_t events_recorded = 0;
    std::uint64_t events_dropped = 0;

    /** Counter value by name; 0 when never registered/incremented. */
    std::uint64_t counter(const std::string &name) const;
};

/**
 * A registry of named metrics plus the span event rings.
 *
 * The process-wide instance is global(); tests may construct private
 * registries and drive them through the id-based interface. Shards are
 * created lazily per (registry, thread) and owned by the registry, so
 * counts survive thread exit; a registry must outlive every thread that
 * touched it.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry();
    ~MetricsRegistry();

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** The process-wide registry (leaked singleton, never destroyed). */
    static MetricsRegistry &global();

    /**
     * Register a metric; idempotent per name, returns a dense id.
     * Aborts when a fixed per-kind capacity is exhausted (the metric
     * namespace is a small, hand-curated set).
     */
    int register_counter(const std::string &name);
    int register_gauge(const std::string &name);
    int register_histogram(const std::string &name);

    /** Hot-path updates (callers gate on level() themselves). */
    void counter_add(int id, std::uint64_t delta);
    void gauge_set(int id, std::int64_t value);
    void histogram_observe(int id, std::uint64_t value);

    /** Append a completed span to the calling thread's event ring. */
    void record_event(TraceEvent event);

    /** Stable small integer identifying the calling thread's shard. */
    int thread_id();

    /** Merge every shard into a consistent-enough point-in-time view. */
    Snapshot snapshot() const;

    /** All ring events, oldest first per thread. */
    std::vector<TraceEvent> events() const;

    /** Zero all counters/gauges/histograms and drop all events. */
    void reset();

    /**
     * Ring capacity per thread (default 16384 events). Takes effect for
     * shards created afterwards; call before enabling tracing.
     */
    void set_ring_capacity(std::size_t events_per_thread);

    struct Impl;  ///< public so the shard helpers in trace.cc see it

  private:
    Impl *impl_;  ///< leaked by global(), owned otherwise
};

/**
 * A named monotonic counter bound to the global registry. Construct as
 * a file-scope/static object next to the code it instruments; add() is
 * a no-op below Level::Metrics.
 */
class Counter
{
  public:
    explicit Counter(const std::string &name)
        : id_(MetricsRegistry::global().register_counter(name))
    {
    }

    void
    add(std::uint64_t delta = 1) const
    {
        if (level() == Level::Off) {
            return;
        }
        MetricsRegistry::global().counter_add(id_, delta);
    }

  private:
    int id_;
};

/** A named gauge (last value wins) bound to the global registry. */
class Gauge
{
  public:
    explicit Gauge(const std::string &name)
        : id_(MetricsRegistry::global().register_gauge(name))
    {
    }

    void
    set(std::int64_t value) const
    {
        if (level() == Level::Off) {
            return;
        }
        MetricsRegistry::global().gauge_set(id_, value);
    }

  private:
    int id_;
};

/** A named log2-bucket histogram bound to the global registry. */
class Histogram
{
  public:
    explicit Histogram(const std::string &name)
        : id_(MetricsRegistry::global().register_histogram(name))
    {
    }

    void
    observe(std::uint64_t value) const
    {
        if (level() == Level::Off) {
            return;
        }
        MetricsRegistry::global().histogram_observe(id_, value);
    }

  private:
    int id_;
};

/**
 * RAII span: records one TraceEvent (wall + thread-CPU duration) into
 * the global registry on destruction. @p name must be a static string;
 * @p tag is only copied when tracing is at Level::Full, so passing
 * `exe.name` costs nothing when disabled.
 */
class TraceSpan
{
  public:
    explicit TraceSpan(const char *name, std::string_view tag = {})
    {
        if (level() != Level::Full) {
            return;
        }
        active_ = true;
        name_ = name;
        tag_ = tag;
        start_ns_ = wall_ns();
        cpu_start_ns_ = thread_cpu_ns();
    }

    ~TraceSpan()
    {
        if (!active_) {
            return;
        }
        TraceEvent event;
        event.name = name_;
        event.tag = std::move(tag_);
        event.start_ns = start_ns_;
        event.dur_ns = wall_ns() - start_ns_;
        event.cpu_ns = thread_cpu_ns() - cpu_start_ns_;
        MetricsRegistry::global().record_event(std::move(event));
    }

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

  private:
    bool active_ = false;
    const char *name_ = "";
    std::string tag_;
    std::uint64_t start_ns_ = 0;
    std::uint64_t cpu_start_ns_ = 0;
};

/**
 * Chrome `trace_event` JSON of @p events: one complete ("ph":"X") event
 * per span, microsecond timestamps, pid 1, tid = shard id. Loads in
 * chrome://tracing and Perfetto.
 */
std::string chrome_trace_json(const std::vector<TraceEvent> &events);

/** chrome_trace_json over the global registry's rings. */
std::string chrome_trace_json();

/** Flat, sorted stats JSON of @p snapshot (counters/gauges/histograms). */
std::string stats_json(const Snapshot &snapshot);

/** stats_json over a fresh snapshot of the global registry. */
std::string stats_json();

}  // namespace firmup::trace
