/**
 * @file
 * Property tests for the tracing/metrics layer:
 *
 *  - N threads hammering counters and histograms on a private registry
 *    never lose an increment — the snapshot equals the per-thread sums;
 *  - nested TraceSpans emit well-formed events (duration >= 0, children
 *    contained in their parents, per thread);
 *  - the Chrome trace JSON and the flat stats JSON parse with a strict
 *    little JSON validator;
 *  - an end-to-end pack → unpack → search run at Level::Full leaves
 *    spans for every pipeline stage in the ring.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "eval/driver.h"
#include "firmware/corpus.h"
#include "firmware/image.h"
#include "support/rng.h"
#include "support/trace.h"

namespace firmup::trace {
namespace {

/** Restore Level::Off (and a clean global ring) however a test exits. */
struct LevelGuard
{
    explicit LevelGuard(Level level)
    {
        MetricsRegistry::global().reset();
        set_level(level);
    }
    ~LevelGuard()
    {
        set_level(Level::Off);
        MetricsRegistry::global().reset();
    }
};

TEST(TraceProperty, ConcurrentCountersLoseNothing)
{
    MetricsRegistry registry;
    const int c_even = registry.register_counter("prop.even");
    const int c_odd = registry.register_counter("prop.odd");
    const int h_vals = registry.register_histogram("prop.values");

    constexpr int kThreads = 8;
    constexpr int kIters = 20000;
    // Per-thread expected totals, computed independently of the
    // registry; deltas come from a deterministic per-thread RNG.
    std::vector<std::uint64_t> even_sum(kThreads), odd_sum(kThreads);
    std::vector<std::uint64_t> hist_sum(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            Rng rng(0x7ace + static_cast<std::uint64_t>(t));
            for (int i = 0; i < kIters; ++i) {
                const std::uint64_t delta = rng.next() % 7;
                if (i % 2 == 0) {
                    registry.counter_add(c_even, delta);
                    even_sum[static_cast<std::size_t>(t)] += delta;
                } else {
                    registry.counter_add(c_odd, delta);
                    odd_sum[static_cast<std::size_t>(t)] += delta;
                }
                registry.histogram_observe(h_vals, delta);
                hist_sum[static_cast<std::size_t>(t)] += delta;
            }
        });
    }
    for (std::thread &t : threads) {
        t.join();
    }

    std::uint64_t even = 0, odd = 0, hsum = 0;
    for (int t = 0; t < kThreads; ++t) {
        even += even_sum[static_cast<std::size_t>(t)];
        odd += odd_sum[static_cast<std::size_t>(t)];
        hsum += hist_sum[static_cast<std::size_t>(t)];
    }
    const Snapshot snapshot = registry.snapshot();
    EXPECT_EQ(snapshot.counter("prop.even"), even);
    EXPECT_EQ(snapshot.counter("prop.odd"), odd);
    const auto hist = snapshot.histograms.at("prop.values");
    EXPECT_EQ(hist.count,
              static_cast<std::uint64_t>(kThreads) * kIters);
    EXPECT_EQ(hist.sum, hsum);
    EXPECT_LE(hist.max, 6u);
    std::uint64_t bucketed = 0;
    for (const std::uint64_t b : hist.buckets) {
        bucketed += b;
    }
    EXPECT_EQ(bucketed, hist.count);
}

TEST(TraceProperty, RegistrationIsIdempotent)
{
    MetricsRegistry registry;
    const int a = registry.register_counter("prop.same");
    const int b = registry.register_counter("prop.same");
    EXPECT_EQ(a, b);
    registry.counter_add(a, 3);
    registry.counter_add(b, 4);
    EXPECT_EQ(registry.snapshot().counter("prop.same"), 7u);
}

TEST(TraceProperty, ResetZeroesButKeepsRegistrations)
{
    MetricsRegistry registry;
    const int id = registry.register_counter("prop.reset");
    registry.counter_add(id, 5);
    registry.reset();
    EXPECT_EQ(registry.snapshot().counter("prop.reset"), 0u);
    registry.counter_add(id, 2);
    EXPECT_EQ(registry.snapshot().counter("prop.reset"), 2u);
}

TEST(TraceProperty, NestedSpansAreWellFormedAndContained)
{
    const LevelGuard guard(Level::Full);
    {
        const TraceSpan outer("outer");
        {
            const TraceSpan middle("middle", "tagged");
            const TraceSpan inner("inner");
        }
        const TraceSpan sibling("sibling");
    }
    const std::vector<TraceEvent> events =
        MetricsRegistry::global().events();
    ASSERT_EQ(events.size(), 4u);

    auto find = [&](const std::string &name) -> const TraceEvent & {
        for (const TraceEvent &event : events) {
            if (name == event.name) {
                return event;
            }
        }
        ADD_FAILURE() << "no span named " << name;
        return events.front();
    };
    const TraceEvent &outer = find("outer");
    const TraceEvent &middle = find("middle");
    const TraceEvent &inner = find("inner");
    const TraceEvent &sibling = find("sibling");
    EXPECT_EQ(middle.tag, "tagged");

    // Same thread, and every span ends no earlier than it starts.
    for (const TraceEvent &event : events) {
        EXPECT_EQ(event.tid, outer.tid);
        EXPECT_GE(event.start_ns + event.dur_ns, event.start_ns);
        EXPECT_LE(event.cpu_ns, event.dur_ns + event.cpu_ns);  // no wrap
    }
    // RAII nesting: children are contained in their parents, siblings
    // are disjoint in construction order.
    auto contains = [](const TraceEvent &parent,
                       const TraceEvent &child) {
        return parent.start_ns <= child.start_ns &&
               child.start_ns + child.dur_ns <=
                   parent.start_ns + parent.dur_ns;
    };
    EXPECT_TRUE(contains(outer, middle));
    EXPECT_TRUE(contains(outer, inner));
    EXPECT_TRUE(contains(middle, inner));
    EXPECT_TRUE(contains(outer, sibling));
    EXPECT_GE(sibling.start_ns, middle.start_ns + middle.dur_ns);
}

TEST(TraceProperty, SpansRecordNothingBelowFull)
{
    const LevelGuard guard(Level::Metrics);
    {
        const TraceSpan span("invisible");
    }
    EXPECT_TRUE(MetricsRegistry::global().events().empty());
}

TEST(TraceProperty, RingOverflowDropsOldestAndCounts)
{
    MetricsRegistry registry;
    registry.set_ring_capacity(4);
    for (int i = 0; i < 10; ++i) {
        TraceEvent event;
        event.name = "e";
        event.start_ns = static_cast<std::uint64_t>(i);
        registry.record_event(std::move(event));
    }
    const std::vector<TraceEvent> events = registry.events();
    ASSERT_EQ(events.size(), 4u);
    // Oldest first, and only the newest four survive.
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(events[static_cast<std::size_t>(i)].start_ns,
                  static_cast<std::uint64_t>(6 + i));
    }
    const Snapshot snapshot = registry.snapshot();
    EXPECT_EQ(snapshot.events_recorded, 10u);
    EXPECT_EQ(snapshot.events_dropped, 6u);
}

/**
 * A strict validator for the JSON subset our exporters emit (no
 * scientific notation is required of it, but it accepts one). Returns
 * true iff the whole input is one well-formed JSON value.
 */
class JsonValidator
{
  public:
    explicit JsonValidator(const std::string &text) : text_(text) {}

    bool
    valid()
    {
        pos_ = 0;
        if (!value()) {
            return false;
        }
        skip_ws();
        return pos_ == text_.size();
    }

  private:
    const std::string &text_;
    std::size_t pos_ = 0;

    void
    skip_ws()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
    }
    bool
    eat(char c)
    {
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }
    bool
    value()
    {
        skip_ws();
        if (pos_ >= text_.size()) {
            return false;
        }
        const char c = text_[pos_];
        if (c == '{') {
            return object();
        }
        if (c == '[') {
            return array();
        }
        if (c == '"') {
            return string();
        }
        if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
            return number();
        }
        return literal("true") || literal("false") || literal("null");
    }
    bool
    literal(const char *word)
    {
        const std::string_view w(word);
        if (text_.compare(pos_, w.size(), w) == 0) {
            pos_ += w.size();
            return true;
        }
        return false;
    }
    bool
    object()
    {
        if (!eat('{')) {
            return false;
        }
        if (eat('}')) {
            return true;
        }
        do {
            skip_ws();
            if (!string() || !eat(':') || !value()) {
                return false;
            }
        } while (eat(','));
        return eat('}');
    }
    bool
    array()
    {
        if (!eat('[')) {
            return false;
        }
        if (eat(']')) {
            return true;
        }
        do {
            if (!value()) {
                return false;
            }
        } while (eat(','));
        return eat(']');
    }
    bool
    string()
    {
        if (pos_ >= text_.size() || text_[pos_] != '"') {
            return false;
        }
        ++pos_;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20) {
                return false;  // control characters must be escaped
            }
            if (c == '\\') {
                ++pos_;
                if (pos_ >= text_.size()) {
                    return false;
                }
                const char e = text_[pos_];
                if (e == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        ++pos_;
                        if (pos_ >= text_.size() ||
                            !std::isxdigit(static_cast<unsigned char>(
                                text_[pos_]))) {
                            return false;
                        }
                    }
                } else if (std::string_view("\"\\/bfnrt").find(e) ==
                           std::string_view::npos) {
                    return false;
                }
            }
            ++pos_;
        }
        return false;
    }
    bool
    number()
    {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-') {
            ++pos_;
        }
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-')) {
            ++pos_;
        }
        return pos_ > start;
    }
};

TEST(TraceProperty, ExportedJsonIsWellFormed)
{
    const LevelGuard guard(Level::Full);
    const Counter counter("prop.json_counter");
    counter.add(41);
    const Gauge gauge("prop.json_gauge");
    gauge.set(-7);
    const Histogram hist("prop.json_hist");
    hist.observe(123);
    {
        // Tag with every character class the escaper must handle.
        const TraceSpan span("json_span", "quote\" slash\\ tab\t");
    }
    const std::string trace_json = chrome_trace_json();
    const std::string flat_json = stats_json();
    EXPECT_TRUE(JsonValidator(trace_json).valid()) << trace_json;
    EXPECT_TRUE(JsonValidator(flat_json).valid()) << flat_json;
    EXPECT_NE(trace_json.find("\"json_span\""), std::string::npos);
    EXPECT_NE(flat_json.find("\"prop.json_counter\": 41"),
              std::string::npos)
        << flat_json;
}

TEST(TraceProperty, EndToEndPipelineLeavesAllStageSpans)
{
    const LevelGuard guard(Level::Full);

    // pack → unpack → lift+index → game → confirm, all traced.
    firmware::CorpusOptions corpus_options;
    corpus_options.num_devices = 1;
    const firmware::Corpus corpus =
        firmware::build_corpus(corpus_options);
    ASSERT_FALSE(corpus.images.empty());
    Rng rng(0x7e57);
    const ByteBuffer blob =
        firmware::pack_firmware(corpus.images.front(), rng);
    auto unpacked = firmware::unpack_firmware(blob);
    ASSERT_TRUE(unpacked.ok());

    eval::Driver driver;
    std::vector<eval::CorpusTarget> targets;
    for (const loader::Executable &exe :
         unpacked.value().image.executables) {
        targets.push_back({&exe, 0});
    }
    ASSERT_FALSE(targets.empty());
    driver.search_corpus(firmware::cve_database().front(), targets);

    // A self-search always detects, so the confirm stage is guaranteed
    // to run (corpus hits depend on which packages the device ships).
    const eval::Query query = driver.build_query(
        "wget", "ftp_retrieve_glob", "1.15", isa::Arch::Mips32);
    ASSERT_TRUE(driver.search(query, query.index).detected);

    const std::vector<TraceEvent> events =
        MetricsRegistry::global().events();
    std::set<std::string> names;
    for (const TraceEvent &event : events) {
        names.insert(event.name);
    }
    for (const char *required :
         {"unpack", "lift", "index", "game", "confirm", "search_target",
          "query_build", "generate", "compile_to_mir", "backend_link",
          "backend", "link"}) {
        EXPECT_TRUE(names.contains(required))
            << "no span named " << required;
    }
    // A query build's backend_link splits into its backend and link.
    auto nested_in = [&events](const TraceEvent &parent,
                               std::string_view child) {
        return std::any_of(
            events.begin(), events.end(), [&](const TraceEvent &e) {
                return e.name == child && e.tid == parent.tid &&
                       e.start_ns >= parent.start_ns &&
                       e.start_ns + e.dur_ns <=
                           parent.start_ns + parent.dur_ns;
            });
    };
    for (const TraceEvent &event : events) {
        if (std::string_view(event.name) == "backend_link") {
            EXPECT_TRUE(nested_in(event, "backend"));
            EXPECT_TRUE(nested_in(event, "link"));
        }
    }
    EXPECT_TRUE(JsonValidator(chrome_trace_json()).valid());

    // The same run fed the metrics side too.
    const Snapshot snapshot = MetricsRegistry::global().snapshot();
    EXPECT_GT(snapshot.counter("lift.procedures"), 0u);
    EXPECT_GT(snapshot.counter("game.games"), 0u);
}

}  // namespace
}  // namespace firmup::trace
