/**
 * @file
 * The two speed floors of the scan engine, each on its own workload,
 * thread and worker counts, bound and enforcement condition:
 *
 *  - multi_hunt: 18-device scale-1 corpus over a pre-filled store. One
 *    batch driver at 2 threads hunts the whole CVE database >= 1.0x
 *    faster than one fresh single-CVE driver per CVE at 1 thread, with
 *    identical (query, target) grids.
 *  - shard_scan: scale-10 blobs over a store pre-warmed by preindex, one
 *    CVE, 1 thread per worker. Findings are identical at 1 and 3
 *    workers; the --state rescan searches 0 targets and does no lift,
 *    canon or store work; and 3 workers are >= 1.6x faster in wall
 *    clock on a host with >= 3 cores (on fewer, only that assertion is
 *    skipped).
 *
 * These tests time real work, so ctest runs them alone (RUN_SERIAL,
 * label `speed`). Each prints its measured ratio, enforced or not.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "eval/driver.h"
#include "eval/shard.h"
#include "firmware/catalog.h"
#include "firmware/corpus.h"
#include "support/fsio.h"

namespace firmup::eval {
namespace {

/** Worker threads of the in-process floors. */
constexpr unsigned kThreads = 2;

using Clock = std::chrono::steady_clock;

double
seconds_since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Per-target outcome identity: everything a finding is made of. */
bool
rows_identical(const std::vector<CorpusOutcome> &a,
               const std::vector<CorpusOutcome> &b)
{
    return std::ranges::equal(
        a, b, [](const CorpusOutcome &x, const CorpusOutcome &y) {
            return x.indexed == y.indexed &&
                   x.outcome.detected == y.outcome.detected &&
                   x.outcome.matched_entry == y.outcome.matched_entry &&
                   x.outcome.sim == y.outcome.sim &&
                   x.outcome.steps == y.outcome.steps &&
                   x.outcome.unresolved == y.outcome.unresolved;
        });
}

TEST(SpeedFloors, MultiHuntBeatsSerialSingleCveScans)
{
    const firmware::Corpus corpus = firmware::build_corpus({});
    const std::vector<CorpusTarget> targets = corpus_targets(corpus);
    const std::vector<firmware::CveRecord> &cves = firmware::cve_database();
    const ScopedTempDir store("firmup-floor-hunt");
    SearchOptions options;
    options.index_cache_dir = store.path();
    {
        // Untimed store fill: target indexes plus every query's recipe
        // entry, so neither timed side pays codegen or lifting.
        Driver warmer(options);
        warmer.preindex(corpus, kThreads);
        warmer.search_corpus_batch(cves, targets, kThreads);
    }

    // Each single-CVE driver pays its own store loads: the pre-batch
    // cost model.
    const Clock::time_point serial_start = Clock::now();
    std::vector<std::vector<CorpusOutcome>> serial;
    for (const firmware::CveRecord &cve : cves) {
        Driver single(options);
        serial.push_back(single.search_corpus(cve, targets, 1));
    }
    const double serial_seconds = seconds_since(serial_start);
    Driver batch(options);
    const Clock::time_point batch_start = Clock::now();
    const std::vector<std::vector<CorpusOutcome>> grid =
        batch.search_corpus_batch(cves, targets, kThreads);
    const double batch_seconds = seconds_since(batch_start);

    const double speedup = serial_seconds / batch_seconds;
    std::printf("multi_hunt: %zu CVEs x %zu targets, serial %.3f s, "
                "batch %.3f s at %u threads, %.2fx (floor 1.0x)\n",
                cves.size(), targets.size(), serial_seconds,
                batch_seconds, kThreads, speedup);
    ASSERT_EQ(grid.size(), serial.size());
    for (std::size_t q = 0; q < grid.size(); ++q) {
        EXPECT_TRUE(rows_identical(serial[q], grid[q])) << cves[q].cve_id;
    }
    EXPECT_GE(speedup, 1.0);
}

TEST(SpeedFloors, ShardScanScalesAndRescansIncrementally)
{
    firmware::CorpusOptions scaled;
    scaled.scale = 10;
    const firmware::Corpus corpus = firmware::build_corpus(scaled);
    const ScopedTempDir base("firmup-floor-shard");
    const std::string store_dir = base.path() + "/store";
    const std::string state_dir = base.path() + "/state";
    auto written =
        firmware::write_corpus_blobs(corpus, scaled.seed, base.path());
    ASSERT_TRUE(written.ok()) << written.error_message();
    const std::vector<std::string> blob_paths = std::move(written).take();
    SearchOptions warm;
    warm.index_cache_dir = store_dir;
    Driver(warm).preindex(corpus, resolve_worker_threads(0));  // untimed

    const auto fleet = [&](std::size_t workers, const std::string &state) {
        ShardScanOptions options;
        options.cve_ids = {firmware::cve_database().front().cve_id};
        options.blob_paths = blob_paths;
        options.workers = workers;
        options.worker_threads = 1;
        options.index_cache_dir = store_dir;
        options.state_dir = state;
        options.quiet = true;
        return run_shard_scan(FIRMUP_TOOL_PATH, options);
    };
    const FleetReport one = fleet(1, "");
    const FleetReport three = fleet(3, state_dir);
    const FleetReport rescan = fleet(3, state_dir);
    ASSERT_TRUE(one.ok) << one.error;
    ASSERT_TRUE(three.ok) << three.error;
    ASSERT_TRUE(rescan.ok) << rescan.error;

    const double speedup = one.wall_seconds / three.wall_seconds;
    const unsigned cores = std::thread::hardware_concurrency();
    const bool enforced = cores >= 3;
    std::printf("shard_scan: %zu blobs, 1 worker %.3f s, 3 workers "
                "%.3f s, %.2fx (floor 1.6x %s on %u core(s)); rescan "
                "searched %zu, replayed %zu\n",
                blob_paths.size(), one.wall_seconds, three.wall_seconds,
                speedup, enforced ? "enforced" : "not enforced", cores,
                rescan.targets_searched, rescan.incremental_skips);
    EXPECT_FALSE(one.findings.empty());
    EXPECT_EQ(three.findings, one.findings);
    EXPECT_EQ(rescan.findings, one.findings);
    // The rescan is pure replay: nothing searched, no query built, no
    // store traffic (with a store, every lifted target is a miss).
    EXPECT_TRUE(rescan.state_reused);
    EXPECT_EQ(rescan.targets_searched, 0u);
    EXPECT_GT(rescan.incremental_skips, 0u);
    EXPECT_EQ(rescan.health.query_cache_misses, 0u);
    EXPECT_EQ(rescan.health.cache_hits, 0u);
    EXPECT_EQ(rescan.health.cache_misses, 0u);
    if (enforced) {
        EXPECT_GE(speedup, 1.6);
    }
}

}  // namespace
}  // namespace firmup::eval
