/**
 * @file
 * Resident in-process index cache tests: LRU semantics under a byte
 * budget, the budget-0 ablation, eviction accounting, the
 * shared-ownership pin contract (an index evicted mid-use stays valid —
 * including its mmap-backed views), and the bit-identity matrix — warm
 * and cold scans, mmap and copying loads, resident budgets from zero to
 * unbounded, at 1/2/8 worker threads, all producing identical findings.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "eval/driver.h"
#include "firmware/corpus.h"
#include "sim/index_cache.h"
#include "sim/persist.h"
#include "support/str.h"

namespace firmup::eval {
namespace {

namespace fs = std::filesystem;

std::string
fresh_dir(const std::string &tag)
{
    const fs::path dir =
        fs::path(testing::TempDir()) / ("firmup-resident-" + tag);
    fs::remove_all(dir);
    return dir.string();
}

std::shared_ptr<const sim::ExecutableIndex>
corpus_index()
{
    firmware::CorpusOptions options;
    options.num_devices = 1;
    const firmware::Corpus corpus = firmware::build_corpus(options);
    Driver driver;
    const loader::Executable &exe =
        corpus.images.front().executables.front();
    const sim::ExecutableIndex *index = driver.index_target(exe);
    EXPECT_NE(index, nullptr);
    return std::make_shared<const sim::ExecutableIndex>(*index);
}

TEST(ResidentIndexCache, LruEvictsLeastRecentlyTouched)
{
    const auto index = corpus_index();
    const std::size_t bytes = index->memory_bytes();
    ASSERT_GT(bytes, 0u);
    // Room for two same-sized entries, not three.
    sim::ResidentIndexCache cache(2 * bytes + bytes / 2);
    cache.put(1, index);
    cache.put(2, index);
    EXPECT_EQ(cache.stats().entries, 2u);
    // Touch key 1 so key 2 becomes the LRU victim.
    EXPECT_NE(cache.get(1), nullptr);
    cache.put(3, index);
    EXPECT_EQ(cache.stats().entries, 2u);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.get(2), nullptr);
    EXPECT_NE(cache.get(1), nullptr);
    EXPECT_NE(cache.get(3), nullptr);
    // Stats: 3 hits (1 twice, 3 once), 1 miss (2), resident bytes
    // track the two live entries.
    const sim::ResidentIndexCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.hits, 3u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.resident_bytes, 2 * bytes);
}

TEST(ResidentIndexCache, ZeroBudgetNeverRetains)
{
    const auto index = corpus_index();
    sim::ResidentIndexCache cache(0);
    cache.put(1, index);
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(cache.stats().resident_bytes, 0u);
    // An unkeepable put is not an eviction: nothing was displaced.
    EXPECT_EQ(cache.stats().evictions, 0u);
    EXPECT_EQ(cache.get(1), nullptr);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ResidentIndexCache, ShrinkingBudgetEvictsToFit)
{
    const auto index = corpus_index();
    const std::size_t bytes = index->memory_bytes();
    sim::ResidentIndexCache cache(8 * bytes);
    for (std::uint64_t key = 1; key <= 4; ++key) {
        cache.put(key, index);
    }
    EXPECT_EQ(cache.stats().entries, 4u);
    cache.set_budget_bytes(bytes);
    EXPECT_EQ(cache.stats().entries, 1u);
    EXPECT_EQ(cache.stats().evictions, 3u);
    // The survivor is the most recently inserted entry.
    EXPECT_NE(cache.get(4), nullptr);
}

TEST(ResidentIndexCache, EvictedMappedIndexStaysValidWhilePinned)
{
    // The pin contract behind eviction-mid-batch: a scan holds a
    // shared_ptr to an index whose hash and posting arrays point into an
    // mmap'd store entry; evicting it from the resident cache (and even
    // destroying the cache) must drop only the cache's reference — the
    // mapped file lives until the last pin goes.
    const auto reference = corpus_index();
    sim::IndexCacheStore store(fresh_dir("pin"));
    ASSERT_TRUE(store.store(7, *reference).ok());
    sim::IndexCacheStore::LoadStats stats;
    auto loaded = store.load(7, /*use_mmap=*/true, &stats);
    ASSERT_TRUE(loaded.ok()) << loaded.error_message();
    ASSERT_TRUE(stats.mapped);
    auto mapped = std::make_shared<const sim::ExecutableIndex>(
        std::move(loaded).take());

    auto cache =
        std::make_unique<sim::ResidentIndexCache>(std::size_t{1} << 30);
    cache->put(7, mapped);
    std::shared_ptr<const sim::ExecutableIndex> pinned = cache->get(7);
    ASSERT_NE(pinned, nullptr);
    // Evict it (budget to zero drains the cache), then destroy the
    // cache outright for good measure.
    cache->set_budget_bytes(0);
    EXPECT_EQ(cache->stats().entries, 0u);
    cache.reset();

    // The pinned spans still read the mapped arenas correctly.
    ASSERT_EQ(pinned->procs.size(), reference->procs.size());
    for (std::size_t p = 0; p < reference->procs.size(); ++p) {
        ASSERT_TRUE(std::ranges::equal(pinned->procs[p].strands,
                                       reference->procs[p].strands));
    }
    ASSERT_GT(pinned->posting_hashes.size(), 0u);
    EXPECT_TRUE(std::ranges::equal(pinned->posting_hashes,
                                   reference->posting_hashes));
}

/** Outcome fingerprint of one warm scan under the given knobs. */
std::vector<CorpusOutcome>
scan_once(const firmware::CveRecord &cve,
          const std::vector<CorpusTarget> &targets,
          const std::string &cache_dir, bool mmap_index,
          sim::ResidentIndexCache *resident, unsigned threads,
          ScanHealth *health_out = nullptr)
{
    SearchOptions options;
    options.index_cache_dir = cache_dir;
    options.mmap_index = mmap_index;
    options.resident_cache = resident;
    Driver driver(options);
    auto outcomes = driver.search_corpus(cve, targets, threads);
    EXPECT_TRUE(driver.health().sane());
    if (health_out != nullptr) {
        *health_out = driver.health();
    }
    return outcomes;
}

void
expect_same_outcomes(const std::vector<CorpusOutcome> &a,
                     const std::vector<CorpusOutcome> &b,
                     const std::string &label)
{
    ASSERT_EQ(a.size(), b.size()) << label;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].indexed, b[i].indexed) << label << " #" << i;
        EXPECT_EQ(a[i].outcome.detected, b[i].outcome.detected)
            << label << " #" << i;
        EXPECT_EQ(a[i].outcome.matched_entry, b[i].outcome.matched_entry)
            << label << " #" << i;
        EXPECT_EQ(a[i].outcome.sim, b[i].outcome.sim)
            << label << " #" << i;
        EXPECT_EQ(a[i].outcome.steps, b[i].outcome.steps)
            << label << " #" << i;
        EXPECT_EQ(a[i].outcome.unresolved, b[i].outcome.unresolved)
            << label << " #" << i;
    }
}

TEST(ResidentCacheIdentity, FindingsIdenticalAcrossTiersAndThreads)
{
    firmware::CorpusOptions corpus_options;
    corpus_options.num_devices = 2;
    const firmware::Corpus corpus =
        firmware::build_corpus(corpus_options);
    const std::vector<CorpusTarget> targets = corpus_targets(corpus);
    ASSERT_FALSE(targets.empty());
    const firmware::CveRecord &cve = firmware::cve_database().front();
    const std::string cache_dir = fresh_dir("identity");

    // Reference: the cold scan that also fills the store.
    const auto reference =
        scan_once(cve, targets, cache_dir, true, nullptr, 4);

    for (const unsigned threads : {1u, 2u, 8u}) {
        for (const bool mmap_index : {true, false}) {
            // No resident tier.
            expect_same_outcomes(
                reference,
                scan_once(cve, targets, cache_dir, mmap_index, nullptr,
                          threads),
                strprintf("mmap=%d threads=%u", mmap_index, threads));
            // Budget-0 resident tier: wired but retains nothing.
            sim::ResidentIndexCache empty(0);
            ScanHealth zero_health;
            expect_same_outcomes(
                reference,
                scan_once(cve, targets, cache_dir, mmap_index, &empty,
                          threads, &zero_health),
                strprintf("mmap=%d threads=%u budget=0", mmap_index,
                          threads));
            EXPECT_EQ(zero_health.resident_hits, 0u);
            EXPECT_GT(zero_health.resident_misses, 0u);
            // Unbounded resident tier, scanned twice through one cache:
            // the second scan runs entirely hot.
            sim::ResidentIndexCache resident(std::size_t{1} << 30);
            expect_same_outcomes(
                reference,
                scan_once(cve, targets, cache_dir, mmap_index, &resident,
                          threads),
                strprintf("mmap=%d threads=%u fill", mmap_index,
                          threads));
            ScanHealth hot_health;
            expect_same_outcomes(
                reference,
                scan_once(cve, targets, cache_dir, mmap_index, &resident,
                          threads, &hot_health),
                strprintf("mmap=%d threads=%u hot", mmap_index,
                          threads));
            EXPECT_GT(hot_health.resident_hits, 0u);
            EXPECT_EQ(hot_health.resident_misses, 0u);
            EXPECT_EQ(hot_health.cache_hits, 0u);
            EXPECT_EQ(hot_health.cache_misses, 0u);
        }
    }
}

TEST(ResidentCacheIdentity, WarmMmapScanUsesTheViewPath)
{
    firmware::CorpusOptions corpus_options;
    corpus_options.num_devices = 1;
    const firmware::Corpus corpus =
        firmware::build_corpus(corpus_options);
    const std::vector<CorpusTarget> targets = corpus_targets(corpus);
    const firmware::CveRecord &cve = firmware::cve_database().front();
    const std::string cache_dir = fresh_dir("viewpath");
    scan_once(cve, targets, cache_dir, true, nullptr, 2);  // store fill

    ScanHealth mmap_health;
    scan_once(cve, targets, cache_dir, true, nullptr, 2, &mmap_health);
    EXPECT_GT(mmap_health.cache_hits, 0u);
    // Every target hit is mapped, plus the query-recipe loads too.
    EXPECT_GE(mmap_health.cache_mmap_loads, mmap_health.cache_hits);

    ScanHealth copy_health;
    scan_once(cve, targets, cache_dir, false, nullptr, 2, &copy_health);
    EXPECT_GT(copy_health.cache_hits, 0u);
    EXPECT_EQ(copy_health.cache_mmap_loads, 0u);
}

}  // namespace
}  // namespace firmup::eval
