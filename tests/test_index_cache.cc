/**
 * @file
 * Persistent index cache tests: store round-trips, corrupt-entry
 * degradation, the pin contract (a mapped load outlives its store and
 * its file), the warm-start property — a driver scanning through a
 * populated cache must reproduce the cold scan bit-identically (same
 * outcomes, same work metrics, same coverage accounting) while lifting
 * nothing — and the identity matrix: lifted, mapped and read (--no-mmap)
 * indexes give the same findings at 1, 2 and 8 threads.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "eval/driver.h"
#include "firmware/corpus.h"
#include "sim/index_cache.h"
#include "sim/persist.h"
#include "support/trace.h"

namespace firmup::eval {
namespace {

namespace fs = std::filesystem;

/** A fresh per-test cache directory under the gtest temp root. */
std::string
fresh_cache_dir(const std::string &tag)
{
    const fs::path dir =
        fs::path(testing::TempDir()) / ("firmup-cache-" + tag);
    fs::remove_all(dir);
    return dir.string();
}

sim::ExecutableIndex
tiny_corpus_index(const firmware::Corpus &corpus)
{
    Driver driver;
    const loader::Executable &exe =
        corpus.images.front().executables.front();
    const sim::ExecutableIndex *index = driver.index_target(exe);
    EXPECT_NE(index, nullptr);
    return *index;
}

TEST(IndexCacheStore, MissThenRoundTrip)
{
    firmware::CorpusOptions options;
    options.num_devices = 1;
    const firmware::Corpus corpus = firmware::build_corpus(options);
    const sim::ExecutableIndex index = tiny_corpus_index(corpus);

    sim::IndexCacheStore store(fresh_cache_dir("roundtrip"));
    const std::uint64_t key = 0x1234abcd;
    auto miss = store.load(key, true);
    ASSERT_FALSE(miss.ok());
    EXPECT_EQ(miss.error_code(), ErrorCode::IoError);

    auto written = store.store(key, index);
    ASSERT_TRUE(written.ok()) << written.error_message();
    EXPECT_EQ(written.value(), index.blob.size());

    // Mapped or read, the loaded index views the very bytes the store
    // wrote: the blob, and with it every posting array and strand set.
    for (const bool use_mmap : {false, true}) {
        sim::IndexCacheStore::LoadStats stats;
        auto loaded = store.load(key, use_mmap, &stats);
        ASSERT_TRUE(loaded.ok()) << loaded.error_message();
        EXPECT_EQ(stats.mapped, use_mmap);
        const sim::ExecutableIndex &out = loaded.value();
        EXPECT_TRUE(std::ranges::equal(out.blob, index.blob));
        EXPECT_TRUE(
            std::ranges::equal(out.posting_hashes, index.posting_hashes));
        EXPECT_TRUE(std::ranges::equal(out.posting_offsets,
                                       index.posting_offsets));
        EXPECT_TRUE(
            std::ranges::equal(out.posting_procs, index.posting_procs));
        ASSERT_EQ(out.procs.size(), index.procs.size());
        for (std::size_t i = 0; i < index.procs.size(); ++i) {
            EXPECT_EQ(out.procs[i].entry, index.procs[i].entry);
            EXPECT_TRUE(std::ranges::equal(out.procs[i].strands,
                                           index.procs[i].strands));
            if (!index.procs[i].name.empty()) {
                EXPECT_EQ(out.find_by_name(index.procs[i].name),
                          static_cast<int>(i));
            }
        }
    }
}

TEST(IndexCacheStore, MappedLoadOutlivesItsStoreAndDirectory)
{
    // The pin contract: an index's spans point into the mapped entry,
    // and its `backing` keeps the mapping alive after the store that
    // loaded it is destroyed and the file is unlinked.
    firmware::CorpusOptions options;
    options.num_devices = 1;
    const firmware::Corpus corpus = firmware::build_corpus(options);
    const sim::ExecutableIndex reference = tiny_corpus_index(corpus);
    const std::string dir = fresh_cache_dir("pin");
    sim::ExecutableIndex mapped;
    {
        const sim::IndexCacheStore store(dir);
        ASSERT_TRUE(store.store(7, reference).ok());
        sim::IndexCacheStore::LoadStats stats;
        auto loaded = store.load(7, /*use_mmap=*/true, &stats);
        ASSERT_TRUE(loaded.ok()) << loaded.error_message();
        ASSERT_TRUE(stats.mapped);
        mapped = std::move(loaded).take();
    }
    fs::remove_all(dir);
    ASSERT_FALSE(fs::exists(dir));

    EXPECT_TRUE(std::ranges::equal(mapped.blob, reference.blob));
    ASSERT_EQ(mapped.procs.size(), reference.procs.size());
    for (std::size_t p = 0; p < reference.procs.size(); ++p) {
        EXPECT_TRUE(std::ranges::equal(mapped.procs[p].strands,
                                       reference.procs[p].strands));
    }
    ASSERT_GT(mapped.posting_hashes.size(), 0u);
    EXPECT_TRUE(std::ranges::equal(mapped.posting_hashes,
                                   reference.posting_hashes));
    EXPECT_TRUE(std::ranges::equal(mapped.posting_offsets,
                                   reference.posting_offsets));
    EXPECT_TRUE(std::ranges::equal(mapped.posting_procs,
                                   reference.posting_procs));
}

TEST(IndexCacheStore, CorruptAndStaleEntriesAreMisses)
{
    firmware::CorpusOptions options;
    options.num_devices = 1;
    const firmware::Corpus corpus = firmware::build_corpus(options);
    const sim::ExecutableIndex index = tiny_corpus_index(corpus);
    sim::IndexCacheStore store(fresh_cache_dir("corrupt"));
    ASSERT_TRUE(store.store(1, index).ok());

    // Truncate the entry on disk: load degrades to a clean error.
    const std::string path = store.path_for(1);
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << "FWIX";
    }
    EXPECT_FALSE(store.load(1, true).ok());

    // A stale (v1) entry is reported as such.
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        const char v1[] = {'F', 'W', 'I', 'X', 1, 0, 0, 0, 0, 0};
        out.write(v1, sizeof v1);
    }
    auto stale = store.load(1, false);
    ASSERT_FALSE(stale.ok());
    EXPECT_EQ(stale.error_code(), ErrorCode::StaleFormat);
}

/** One full corpus scan with its outcome + work-metric fingerprint. */
struct ScanRun
{
    std::vector<CorpusOutcome> outcomes;
    std::map<std::string, std::uint64_t> counters;
    ScanHealth health;
};

const char *const kWorkCounters[] = {
    "game.games",        "game.steps",       "game.pairs_scored",
    "game.pairs_pruned", "game.matched",     "game.unresolved",
    "cache.hits",        "cache.misses",
};

/** @p mmap_index false is --no-mmap; @p threads the scan's workers. */
ScanRun
scan(const firmware::CveRecord &cve,
     const std::vector<CorpusTarget> &targets,
     const std::string &cache_dir, bool mmap_index = true,
     unsigned threads = 4)
{
    trace::MetricsRegistry::global().reset();
    ScanRun run;
    SearchOptions options;
    options.index_cache_dir = cache_dir;
    options.mmap_index = mmap_index;
    Driver driver(options);
    run.outcomes = driver.search_corpus(cve, targets, threads);
    const trace::Snapshot snapshot =
        trace::MetricsRegistry::global().snapshot();
    for (const char *name : kWorkCounters) {
        run.counters[name] = snapshot.counter(name);
    }
    run.health = driver.health();
    return run;
}

void
expect_same_scan(const ScanRun &cold, const ScanRun &warm)
{
    ASSERT_EQ(warm.outcomes.size(), cold.outcomes.size());
    for (std::size_t i = 0; i < cold.outcomes.size(); ++i) {
        const SearchOutcome &a = cold.outcomes[i].outcome;
        const SearchOutcome &b = warm.outcomes[i].outcome;
        EXPECT_EQ(warm.outcomes[i].indexed, cold.outcomes[i].indexed)
            << "target " << i;
        EXPECT_EQ(b.detected, a.detected) << "target " << i;
        EXPECT_EQ(b.matched_entry, a.matched_entry) << "target " << i;
        EXPECT_EQ(b.sim, a.sim) << "target " << i;
        EXPECT_EQ(b.steps, a.steps) << "target " << i;
        EXPECT_EQ(b.unresolved, a.unresolved) << "target " << i;
    }
    // The game did exactly the same work from the warm index: the
    // scoring counters are bit-identical, not merely close.
    for (const char *name :
         {"game.games", "game.steps", "game.pairs_scored",
          "game.pairs_pruned", "game.matched", "game.unresolved"}) {
        EXPECT_EQ(warm.counters.at(name), cold.counters.at(name))
            << name;
    }
    EXPECT_EQ(warm.health.games_played, cold.health.games_played);
    EXPECT_EQ(warm.health.games_unresolved,
              cold.health.games_unresolved);
    EXPECT_EQ(warm.health.executables_seen,
              cold.health.executables_seen);
    EXPECT_EQ(warm.health.lifted_ok, cold.health.lifted_ok);
    EXPECT_EQ(warm.health.quarantined, cold.health.quarantined);
    EXPECT_TRUE(warm.health.sane());
}

TEST(IndexCacheWarmStart, WarmScanIsBitIdenticalToCold)
{
    trace::set_level(trace::Level::Metrics);
    firmware::CorpusOptions corpus_options;
    corpus_options.num_devices = 3;
    const firmware::Corpus corpus =
        firmware::build_corpus(corpus_options);
    const std::vector<CorpusTarget> targets = corpus_targets(corpus);
    ASSERT_FALSE(targets.empty());
    const firmware::CveRecord &cve = firmware::cve_database().front();
    const std::string cache_dir = fresh_cache_dir("warm");

    const ScanRun cold = scan(cve, targets, cache_dir);
    EXPECT_GT(cold.counters.at("game.games"), 0u);
    // The cold run saw an empty store: every distinct executable missed
    // and was written back.
    EXPECT_EQ(cold.health.cache_hits, 0u);
    EXPECT_GT(cold.health.cache_misses, 0u);
    EXPECT_GT(cold.health.cache_write_bytes, 0u);
    EXPECT_EQ(cold.counters.at("cache.misses"),
              cold.health.cache_misses);

    const ScanRun warm = scan(cve, targets, cache_dir);
    expect_same_scan(cold, warm);
    // The warm run lifted nothing: every index came from disk.
    EXPECT_EQ(warm.health.cache_misses, 0u);
    EXPECT_EQ(warm.health.cache_hits, cold.health.cache_misses);
    EXPECT_EQ(warm.counters.at("cache.hits"), warm.health.cache_hits);
    EXPECT_EQ(warm.counters.at("cache.misses"), 0u);

    // Corrupt one cache entry: the scan degrades to exactly one miss —
    // re-lifting that executable — with identical results.
    std::string victim;
    for (const auto &entry : fs::directory_iterator(cache_dir)) {
        if (entry.path().extension() == ".fwix") {
            victim = entry.path().string();
            break;
        }
    }
    ASSERT_FALSE(victim.empty());
    {
        std::ofstream out(victim, std::ios::binary | std::ios::trunc);
        out << "garbage, not FWIX";
    }
    const ScanRun degraded = scan(cve, targets, cache_dir);
    expect_same_scan(cold, degraded);
    EXPECT_EQ(degraded.health.cache_misses, 1u);
    EXPECT_EQ(degraded.health.cache_hits,
              cold.health.cache_misses - 1);
    // The miss was re-published: the store is whole again.
    const ScanRun healed = scan(cve, targets, cache_dir);
    expect_same_scan(cold, healed);
    EXPECT_EQ(healed.health.cache_misses, 0u);

    trace::set_level(trace::Level::Off);
    trace::MetricsRegistry::global().reset();
}

// An index reaches a game from one of three tiers: lifted in process
// (no store), mapped from the store, or read from it (--no-mmap).

TEST(ResidentCacheIdentity, FindingsIdenticalAcrossTiersAndThreads)
{
    trace::set_level(trace::Level::Metrics);
    firmware::CorpusOptions corpus_options;
    corpus_options.num_devices = 2;
    const firmware::Corpus corpus =
        firmware::build_corpus(corpus_options);
    const std::vector<CorpusTarget> targets = corpus_targets(corpus);
    ASSERT_FALSE(targets.empty());
    const firmware::CveRecord &cve = firmware::cve_database().front();
    const std::string cache_dir = fresh_cache_dir("identity");

    // Reference: the cold scan that also fills the store.
    const ScanRun reference = scan(cve, targets, cache_dir);
    EXPECT_GT(reference.health.cache_misses, 0u);

    for (const unsigned threads : {1u, 2u, 8u}) {
        SCOPED_TRACE(testing::Message() << "threads " << threads);
        // No store: every index is lifted.
        const ScanRun lifted = scan(cve, targets, "", true, threads);
        expect_same_scan(reference, lifted);
        EXPECT_EQ(lifted.health.cache_hits, 0u);
        EXPECT_EQ(lifted.health.cache_misses, 0u);
        for (const bool mmap_index : {true, false}) {
            SCOPED_TRACE(testing::Message() << "mmap " << mmap_index);
            const ScanRun warm =
                scan(cve, targets, cache_dir, mmap_index, threads);
            expect_same_scan(reference, warm);
            EXPECT_EQ(warm.health.cache_misses, 0u);
            EXPECT_EQ(warm.health.cache_hits,
                      reference.health.cache_misses);
        }
    }

    trace::set_level(trace::Level::Off);
    trace::MetricsRegistry::global().reset();
}

TEST(ResidentCacheIdentity, WarmMmapScanUsesTheViewPath)
{
    firmware::CorpusOptions corpus_options;
    corpus_options.num_devices = 1;
    const firmware::Corpus corpus =
        firmware::build_corpus(corpus_options);
    const std::vector<CorpusTarget> targets = corpus_targets(corpus);
    const firmware::CveRecord &cve = firmware::cve_database().front();
    const std::string cache_dir = fresh_cache_dir("viewpath");
    scan(cve, targets, cache_dir, true, 2);  // store fill

    const ScanRun mapped = scan(cve, targets, cache_dir, true, 2);
    EXPECT_GT(mapped.health.cache_hits, 0u);
    // Every target hit is mapped, plus the query-recipe loads too.
    EXPECT_GE(mapped.health.cache_mmap_loads, mapped.health.cache_hits);

    const ScanRun copied = scan(cve, targets, cache_dir, false, 2);
    EXPECT_GT(copied.health.cache_hits, 0u);
    EXPECT_EQ(copied.health.cache_mmap_loads, 0u);
}

}  // namespace
}  // namespace firmup::eval
