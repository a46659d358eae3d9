/**
 * @file
 * Determinism and crash-recovery properties of the batched multi-CVE
 * hunt (Driver::search_corpus_batch).
 *
 * The batch hunt fans a (query, target) grid out in contiguous chunks
 * over parallel workers and plays every game against a target while
 * its index is live. None of that may show in the findings: the
 * per-(q, t) outcome grid must be bit-identical to N independent
 * single-CVE scans, at any worker count and for any split of the CVE
 * list into sub-batches. The journal property extends the single-scan
 * one: a batch hunt killed mid-flight must resume into exactly the
 * uninterrupted grid.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "eval/driver.h"
#include "eval/flags.h"
#include "firmware/catalog.h"
#include "firmware/corpus.h"
#include "support/cancel.h"
#include "support/fsio.h"
#include "support/hash.h"
#include "support/threadpool.h"
#include "support/trace.h"

namespace firmup::eval {
namespace {

namespace fs = std::filesystem;

std::string
fresh_journal_path(const std::string &tag)
{
    const fs::path path = fs::path(testing::TempDir()) /
                          ("firmup-batch-" + tag + ".fwsj");
    fs::remove(path);
    return path.string();
}

/** The hunted CVE subset: enough for a 3+-query grid, fast to build. */
std::vector<firmware::CveRecord>
hunt_cves()
{
    const std::vector<firmware::CveRecord> &all =
        firmware::cve_database();
    return {all.begin(), all.begin() + 3};
}

/** Value of counter @p name over @p run, at trace::Level::Metrics. */
template <typename Run>
std::uint64_t
counted(const char *name, Run &&run)
{
    trace::MetricsRegistry::global().reset();
    trace::set_level(trace::Level::Metrics);
    run();
    const std::uint64_t count =
        trace::MetricsRegistry::global().snapshot().counter(name);
    trace::set_level(trace::Level::Off);
    trace::MetricsRegistry::global().reset();
    return count;
}

/** Every count and flag of @p health: none depends on timing. */
std::vector<std::uint64_t>
discrete_health(const ScanHealth &h)
{
    std::vector<std::uint64_t> counts = {
        h.images_seen,        h.images_rejected,
        h.members_damaged,    h.executables_seen,
        h.lifted_ok,          h.quarantined,
        h.games_played,       h.games_unresolved,
        h.cancelled,          h.targets_cancelled,
        h.resumed_targets,    h.retries,
        h.watchdog_expired,   h.journal_truncated_bytes,
        h.cache_hits,         h.cache_misses,
        h.cache_write_bytes,  h.cache_mmap_loads,
        h.query_cache_hits,   h.query_cache_misses,
        h.resume_rejected};
    counts.insert(counts.end(), h.errors.begin(), h.errors.end());
    return counts;
}

/** ISAs of the indexable @p targets, in first-occurrence order. */
std::vector<isa::Arch>
target_isas(const std::vector<CorpusTarget> &targets)
{
    Driver driver((SearchOptions()));
    std::vector<isa::Arch> isas;
    for (const CorpusTarget &target : targets) {
        const sim::ExecutableIndex *index = driver.index_target(*target.exe);
        if (index != nullptr && std::ranges::find(isas, index->arch) ==
                                    isas.end()) {
            isas.push_back(index->arch);
        }
    }
    return isas;
}

/** File names of the entries in store directory @p dir. */
std::set<std::string>
store_entries(const std::string &dir)
{
    std::set<std::string> names;
    for (const fs::directory_entry &entry : fs::directory_iterator(dir)) {
        names.insert(entry.path().filename().string());
    }
    return names;
}

void
expect_rows_equal(const std::vector<CorpusOutcome> &want,
                  const std::vector<CorpusOutcome> &got,
                  const std::string &context)
{
    ASSERT_EQ(got.size(), want.size()) << context;
    for (std::size_t t = 0; t < want.size(); ++t) {
        const SearchOutcome &a = want[t].outcome;
        const SearchOutcome &b = got[t].outcome;
        EXPECT_EQ(got[t].indexed, want[t].indexed)
            << context << " target " << t;
        EXPECT_EQ(b.detected, a.detected) << context << " target " << t;
        EXPECT_EQ(b.matched_entry, a.matched_entry)
            << context << " target " << t;
        EXPECT_EQ(b.sim, a.sim) << context << " target " << t;
        EXPECT_EQ(b.steps, a.steps) << context << " target " << t;
        EXPECT_EQ(b.unresolved, a.unresolved)
            << context << " target " << t;
    }
}

void
expect_grids_equal(
    const std::vector<std::vector<CorpusOutcome>> &want,
    const std::vector<std::vector<CorpusOutcome>> &got,
    const std::string &context)
{
    ASSERT_EQ(got.size(), want.size()) << context;
    for (std::size_t q = 0; q < want.size(); ++q) {
        expect_rows_equal(want[q], got[q],
                          context + " query " + std::to_string(q));
    }
}

TEST(BatchHunt, GridMatchesIndependentSingleCveScans)
{
    firmware::CorpusOptions corpus_options;
    corpus_options.num_devices = 3;
    const firmware::Corpus corpus =
        firmware::build_corpus(corpus_options);
    const std::vector<CorpusTarget> targets = corpus_targets(corpus);
    ASSERT_GT(targets.size(), 4u);
    const std::vector<firmware::CveRecord> cves = hunt_cves();

    // Reference: one fresh driver per CVE, serial — the pre-batch shape.
    std::vector<std::vector<CorpusOutcome>> reference;
    for (const firmware::CveRecord &cve : cves) {
        Driver single((SearchOptions()));
        reference.push_back(single.search_corpus(cve, targets, 1));
    }

    for (const unsigned threads : {1u, 2u, 8u}) {
        Driver batch((SearchOptions()));
        const std::vector<std::vector<CorpusOutcome>> grid =
            batch.search_corpus_batch(cves, targets, threads);
        expect_grids_equal(reference, grid,
                           "threads=" + std::to_string(threads));
        EXPECT_TRUE(batch.health().sane());
    }
}

TEST(BatchHunt, AnyBatchSplitYieldsTheSameGrid)
{
    firmware::CorpusOptions corpus_options;
    corpus_options.num_devices = 2;
    const firmware::Corpus corpus =
        firmware::build_corpus(corpus_options);
    const std::vector<CorpusTarget> targets = corpus_targets(corpus);
    ASSERT_FALSE(targets.empty());
    const std::vector<firmware::CveRecord> cves = hunt_cves();

    std::vector<std::vector<CorpusOutcome>> whole;
    {
        Driver driver((SearchOptions()));
        whole = driver.search_corpus_batch(cves, targets, 2);
    }

    // Split the CVE list into sub-batches of every size; concatenated
    // sub-grids must equal the one-shot grid row for row.
    for (const std::size_t split : {std::size_t{1}, std::size_t{2}}) {
        std::vector<std::vector<CorpusOutcome>> stitched;
        for (std::size_t at = 0; at < cves.size(); at += split) {
            const std::size_t end = std::min(at + split, cves.size());
            const std::vector<firmware::CveRecord> part{
                cves.begin() + static_cast<std::ptrdiff_t>(at),
                cves.begin() + static_cast<std::ptrdiff_t>(end)};
            Driver driver((SearchOptions()));
            for (auto &row : driver.search_corpus_batch(part, targets, 2)) {
                stitched.push_back(std::move(row));
            }
        }
        expect_grids_equal(whole, stitched,
                           "split=" + std::to_string(split));
    }
}

TEST(BatchHunt, KilledBatchHuntResumesBitIdentically)
{
    firmware::CorpusOptions corpus_options;
    corpus_options.num_devices = 3;
    const firmware::Corpus corpus =
        firmware::build_corpus(corpus_options);
    const std::vector<CorpusTarget> targets = corpus_targets(corpus);
    ASSERT_GT(targets.size(), 4u);
    const std::vector<firmware::CveRecord> cves = hunt_cves();

    std::vector<std::vector<CorpusOutcome>> fresh;
    {
        Driver driver((SearchOptions()));
        fresh = driver.search_corpus_batch(cves, targets, 2);
    }

    for (const unsigned threads : {1u, 2u}) {
        const std::string path =
            fresh_journal_path("kill-" + std::to_string(threads));
        // Phase 1: hunt until a few grid records are journaled, then
        // take the cooperative-cancellation path a SIGTERM would.
        CancelToken token;
        SearchOptions interrupted;
        interrupted.journal_path = path;
        interrupted.cancel = &token;
        interrupted.cancel_after_appends = 2;
        {
            Driver driver(interrupted);
            driver.search_corpus_batch(cves, targets, threads);
            EXPECT_TRUE(token.requested());
            EXPECT_TRUE(driver.health().cancelled);
            EXPECT_TRUE(driver.health().sane());
        }

        // Phase 2: resume. Replayed (q, t) records and freshly hunted
        // ones must merge into exactly the uninterrupted grid.
        SearchOptions resume_options;
        resume_options.journal_path = path;
        resume_options.resume = true;
        Driver resumed(resume_options);
        const std::vector<std::vector<CorpusOutcome>> grid =
            resumed.search_corpus_batch(cves, targets, threads);
        expect_grids_equal(fresh, grid,
                           "resume threads=" + std::to_string(threads));
        EXPECT_FALSE(resumed.health().cancelled);
        EXPECT_GT(resumed.health().resumed_targets, 0u)
            << "threads=" << threads;
        EXPECT_TRUE(resumed.health().sane());
    }
}

/** What one traced batch hunt left behind. */
struct TracedHunt
{
    std::vector<std::vector<CorpusOutcome>> grid;
    ScanHealth health;
    trace::Snapshot metrics;
    std::size_t commit_spans = 0;
    std::size_t generate_spans = 0;
};

/** Run one batch hunt at trace::Level::Full. */
TracedHunt
traced_hunt(const SearchOptions &options,
            const std::vector<firmware::CveRecord> &cves,
            const std::vector<CorpusTarget> &targets, unsigned threads)
{
    TracedHunt hunt;
    trace::MetricsRegistry &registry = trace::MetricsRegistry::global();
    registry.reset();
    trace::set_level(trace::Level::Full);
    {
        Driver driver(options);
        hunt.grid = driver.search_corpus_batch(cves, targets, threads);
        hunt.health = driver.health();
    }
    trace::set_level(trace::Level::Off);
    hunt.metrics = registry.snapshot();
    for (const trace::TraceEvent &event : registry.events()) {
        hunt.commit_spans +=
            std::string_view(event.name) == "journal_commit" ? 1 : 0;
        hunt.generate_spans +=
            std::string_view(event.name) == "generate" ? 1 : 0;
    }
    registry.reset();
    return hunt;
}

/** The (content key, query fingerprint) of every record at @p path. */
std::vector<std::pair<std::uint64_t, std::uint64_t>>
journal_pairs(const std::string &path)
{
    const Result<ByteBuffer> bytes = read_file_bytes(path);
    EXPECT_TRUE(bytes.ok()) << path;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> pairs;
    if (!bytes.ok()) {
        return pairs;
    }
    const Result<JournalLoad> load = ScanJournal::parse(
        bytes.value().data(), bytes.value().size(), 0);
    EXPECT_TRUE(load.ok()) << load.error_message();
    if (load.ok()) {
        for (const JournalEntry &entry : load.value().entries) {
            pairs.emplace_back(entry.content_key, entry.query_fp);
        }
    }
    return pairs;
}

TEST(BatchHunt, JournalCommitsOneGroupPerChunk)
{
    // A journaled hunt commits its records in shared groups of up to 64:
    // at least one commit, at most one per chunk (scan.chunks counts
    // the ceil(pairs / chunk_for(pairs, threads)) chunks), one record
    // per decided pair, one journal_commit span per commit, and nothing
    // else about the hunt moves. At one thread the chunks walk the grid
    // in order, so the records land in grid order: target-major, query
    // by query.
    firmware::CorpusOptions corpus_options;
    corpus_options.num_devices = 2;
    const firmware::Corpus corpus =
        firmware::build_corpus(corpus_options);
    const std::vector<CorpusTarget> targets = corpus_targets(corpus);
    ASSERT_FALSE(targets.empty());
    const std::vector<firmware::CveRecord> &cves =
        firmware::cve_database();
    const ScopedTempDir store("firmup-batch-group");
    SearchOptions plain;
    plain.index_cache_dir = store.path();
    Driver(plain).search_corpus_batch(cves, targets, 2);  // warm store

    for (const unsigned threads : {1u, 2u, 8u}) {
        const std::string context = "threads=" + std::to_string(threads);
        const TracedHunt want = traced_hunt(plain, cves, targets, threads);
        SearchOptions journaled = plain;
        journaled.journal_path =
            fresh_journal_path("group-" + std::to_string(threads));
        const TracedHunt got =
            traced_hunt(journaled, cves, targets, threads);

        const std::uint64_t commits =
            got.metrics.counter("journal.commits");
        EXPECT_GT(commits, 0u) << context;
        const std::size_t pairs = cves.size() * targets.size();
        const std::size_t chunk = chunk_for(pairs, threads);
        const std::uint64_t chunks = got.metrics.counter("scan.chunks");
        EXPECT_EQ(chunks, (pairs + chunk - 1) / chunk) << context;
        EXPECT_LE(commits, chunks) << context;
        EXPECT_EQ(got.metrics.counter("journal.appends"),
                  got.metrics.counter("scan.outcomes"))
            << context;
        EXPECT_EQ(got.commit_spans, commits) << context;
        EXPECT_EQ(got.metrics.events_dropped, 0u) << context;
        EXPECT_GT(got.health.journal_seconds, 0.0) << context;
        EXPECT_EQ(want.health.journal_seconds, 0.0) << context;
        EXPECT_EQ(want.metrics.counter("journal.commits"), 0u) << context;
        expect_grids_equal(want.grid, got.grid, context);
        EXPECT_EQ(discrete_health(got.health), discrete_health(want.health))
            << context;

        if (threads == 1) {
            std::vector<std::pair<std::uint64_t, std::uint64_t>> order;
            for (const CorpusTarget &target : targets) {
                for (const firmware::CveRecord &cve : cves) {
                    order.emplace_back(
                        content_key(*target.exe),
                        fnv1a64("fwsj-query:" + cve_scan_label(cve)));
                }
            }
            EXPECT_EQ(journal_pairs(journaled.journal_path), order);
        }
    }
}

TEST(BatchHunt, SmallJournaledHuntCommitsAboutOnce)
{
    // Journal groups do not shrink with the grid's chunks: a 48-pair
    // hunt at 4 threads deals 1-pair chunks, yet it commits its records
    // in at most threads + 1 groups instead of one per pair.
    firmware::CorpusOptions corpus_options;
    corpus_options.num_devices = 6;
    const firmware::Corpus corpus =
        firmware::build_corpus(corpus_options);
    const std::vector<CorpusTarget> targets = corpus_targets(corpus);
    const std::vector<firmware::CveRecord> cves =
        resolve_cves({"CVE-2011-0762"}).take();
    const unsigned threads = 4;
    const std::size_t pairs = cves.size() * targets.size();
    ASSERT_LT(pairs, 8u * threads * 2);  // 1-pair chunks
    SearchOptions options;
    options.journal_path = fresh_journal_path("small-hunt");
    const TracedHunt hunt = traced_hunt(options, cves, targets, threads);
    const std::uint64_t commits = hunt.metrics.counter("journal.commits");
    EXPECT_GT(commits, 0u);
    EXPECT_LE(commits, threads + 1u);
    EXPECT_EQ(hunt.metrics.counter("journal.appends"),
              hunt.metrics.counter("scan.outcomes"));
    EXPECT_EQ(hunt.metrics.counter("scan.chunks"), pairs);
}

TEST(BatchHunt, QueryPhaseRendersEachSourceOnce)
{
    // One job per query source renders it once for both its recipe-key
    // digest and its build: a cold hunt with a store records one
    // `generate` span per distinct (package, version) source, and so
    // does the warm rerun that only loads.
    firmware::CorpusOptions corpus_options;
    corpus_options.num_devices = 2;
    const firmware::Corpus corpus =
        firmware::build_corpus(corpus_options);
    const std::vector<CorpusTarget> targets = corpus_targets(corpus);
    const std::vector<firmware::CveRecord> &cves =
        firmware::cve_database();
    std::set<std::pair<std::string, std::string>> sources;
    for (const firmware::CveRecord &cve : cves) {
        sources.insert({cve.package, latest_vulnerable_version(cve)});
    }
    const ScopedTempDir store("firmup-batch-render-once");
    SearchOptions options;
    options.index_cache_dir = store.path();
    for (const char *run : {"cold", "warm"}) {
        const TracedHunt hunt = traced_hunt(options, cves, targets, 2);
        EXPECT_EQ(hunt.generate_spans, sources.size()) << run;
        EXPECT_EQ(hunt.health.query_cache_misses == 0,
                  std::string_view(run) == "warm")
            << run;
    }
}

TEST(BatchHunt, TornGroupResumesToTheFreshGrid)
{
    // A kill -9 mid-commit cuts a group anywhere: at a record boundary
    // or inside a record. Resume keeps the whole records before the cut
    // and replays them pair by pair, so the grid is the fresh one and
    // resumed_targets counts exactly the records kept.
    firmware::CorpusOptions corpus_options;
    corpus_options.num_devices = 2;
    const firmware::Corpus corpus =
        firmware::build_corpus(corpus_options);
    // One target per content key, so each record answers one pair.
    std::vector<CorpusTarget> targets;
    std::set<std::uint64_t> keys;
    for (const CorpusTarget &target : corpus_targets(corpus)) {
        if (keys.insert(content_key(*target.exe)).second) {
            targets.push_back(target);
        }
    }
    const std::vector<firmware::CveRecord> cves = hunt_cves();
    const ScopedTempDir store("firmup-batch-torn");
    SearchOptions options;
    options.index_cache_dir = store.path();
    options.journal_path = fresh_journal_path("torn-origin");
    std::vector<std::vector<CorpusOutcome>> fresh;
    {
        Driver driver(options);
        fresh = driver.search_corpus_batch(cves, targets, 1);
    }
    const ByteBuffer origin = read_file_bytes(options.journal_path).take();
    const Result<JournalLoad> load =
        ScanJournal::parse(origin.data(), origin.size(), 0);
    ASSERT_TRUE(load.ok()) << load.error_message();
    const std::vector<JournalEntry> &records = load.value().entries;
    ASSERT_EQ(records.size(), cves.size() * targets.size());

    // At one thread group g holds records [g * chunk, (g + 1) * chunk).
    // Cut the second group, so the first stays whole before it.
    const std::size_t chunk = chunk_for(records.size(), 1);
    ASSERT_GE(chunk, 2u);
    ASSERT_GE(records.size(), 2 * chunk);
    std::vector<std::size_t> offset = {
        ScanJournal::encode_header(0).size()};
    for (const JournalEntry &record : records) {
        offset.push_back(offset.back() +
                         ScanJournal::encode_record(record).size());
    }
    ASSERT_EQ(offset.back(), origin.size());

    options.resume = true;
    for (std::size_t kept = chunk; kept <= 2 * chunk; ++kept) {
        std::vector<std::size_t> cuts = {offset[kept]};
        if (kept < 2 * chunk) {
            cuts.push_back((offset[kept] + offset[kept + 1]) / 2);
        }
        for (const std::size_t cut : cuts) {
            const std::string context = "cut at byte " +
                                        std::to_string(cut) + ", " +
                                        std::to_string(kept) + " kept";
            options.journal_path = fresh_journal_path("torn");
            {
                std::ofstream out(options.journal_path, std::ios::binary);
                out.write(reinterpret_cast<const char *>(origin.data()),
                          static_cast<std::streamsize>(cut));
            }
            Driver resumed(options);
            const std::vector<std::vector<CorpusOutcome>> grid =
                resumed.search_corpus_batch(cves, targets, 1);
            expect_grids_equal(fresh, grid, context);
            EXPECT_EQ(resumed.health().resumed_targets, kept) << context;
            EXPECT_TRUE(resumed.health().sane()) << context;
        }
    }
}

TEST(BatchHunt, WatchdogExpiredGamesAreRetriedTwice)
{
    // A 1e-12 s budget has passed by the game's first deadline sample,
    // so every game with a candidate expires at step 0 however often it
    // is replayed: it uses both retries and stays unresolved, with no
    // finding. The same hunt without a budget retries nothing.
    firmware::CorpusOptions corpus_options;
    corpus_options.num_devices = 2;
    const firmware::Corpus corpus =
        firmware::build_corpus(corpus_options);
    const std::vector<CorpusTarget> targets = corpus_targets(corpus);
    const firmware::CveRecord &cve = firmware::cve_database().front();

    SearchOptions budgeted;
    budgeted.target_budget_seconds = 1e-12;
    Driver driver(budgeted);
    const std::vector<CorpusOutcome> rows =
        driver.search_corpus(cve, targets, 4);
    std::size_t expired = 0;
    std::size_t retries = 0;
    for (const CorpusOutcome &row : rows) {
        retries += static_cast<std::size_t>(row.outcome.retries);
        if (!row.outcome.deadline_expired) {
            continue;
        }
        ++expired;
        EXPECT_EQ(row.outcome.retries, 2) << row.target.exe->name;
        EXPECT_TRUE(row.outcome.unresolved) << row.target.exe->name;
        EXPECT_FALSE(row.outcome.detected) << row.target.exe->name;
    }
    EXPECT_GT(expired, 0u);
    EXPECT_EQ(driver.health().watchdog_expired, expired);
    EXPECT_EQ(driver.health().retries, retries);

    Driver unbudgeted{SearchOptions{}};
    for (const CorpusOutcome &row : unbudgeted.search_corpus(cve, targets, 4)) {
        EXPECT_EQ(row.outcome.retries, 0) << row.target.exe->name;
    }
    EXPECT_EQ(unbudgeted.health().retries, 0u);
}

TEST(BatchHunt, ReplayedPairsCountAsGamesButAddNoTimings)
{
    // A resumed pair is the game the journaling scan played: it counts
    // in games_played, but its recorded wall/CPU seconds are that
    // scan's work, not this one's.
    firmware::CorpusOptions corpus_options;
    corpus_options.num_devices = 2;
    const firmware::Corpus corpus =
        firmware::build_corpus(corpus_options);
    const std::vector<CorpusTarget> targets = corpus_targets(corpus);
    const std::vector<firmware::CveRecord> cves = hunt_cves();
    SearchOptions options;
    options.journal_path = fresh_journal_path("replay-timings");
    std::size_t games = 0;
    {
        Driver fresh(options);
        fresh.search_corpus_batch(cves, targets, 2);
        games = fresh.health().games_played;
        ASSERT_GT(games, 0u);
        ASSERT_GT(fresh.health().game_seconds, 0.0);
    }
    options.resume = true;
    Driver resumed(options);
    resumed.search_corpus_batch(cves, targets, 2);
    const ScanHealth &health = resumed.health();
    EXPECT_EQ(health.resumed_targets, cves.size() * targets.size());
    EXPECT_EQ(health.games_played, games);
    EXPECT_EQ(health.game_seconds, 0.0);
    EXPECT_EQ(health.game_cpu_seconds, 0.0);
    EXPECT_EQ(health.confirm_seconds, 0.0);
    EXPECT_EQ(health.confirm_cpu_seconds, 0.0);
    EXPECT_TRUE(health.sane());
}

TEST(BatchHunt, ScanKeysEachTargetOnce)
{
    // content_key hashes a target's whole text, so a scan call keys
    // each target once and passes the keys down to every stage — at
    // any thread count, and when the journal serves every pair.
    firmware::CorpusOptions corpus_options;
    corpus_options.num_devices = 2;
    const firmware::Corpus corpus =
        firmware::build_corpus(corpus_options);
    const std::vector<CorpusTarget> targets = corpus_targets(corpus);
    ASSERT_FALSE(targets.empty());
    const std::vector<firmware::CveRecord> &cves =
        firmware::cve_database();
    const auto keys_counted = [&](const SearchOptions &options,
                                  unsigned threads) {
        return counted("scan.content_keys", [&] {
            Driver(options).search_corpus_batch(cves, targets, threads);
        });
    };
    // One store, so only the first scan compiles the queries.
    SearchOptions options;
    options.index_cache_dir =
        (fs::path(testing::TempDir()) / "firmup-batch-keys-store")
            .string();
    fs::remove_all(options.index_cache_dir);
    for (const unsigned threads : {1u, 2u, 8u}) {
        EXPECT_EQ(keys_counted(options, threads), targets.size())
            << "threads=" << threads;
    }
    options.journal_path = fresh_journal_path("keys");
    EXPECT_EQ(keys_counted(options, 2), targets.size());
    options.resume = true;
    EXPECT_EQ(keys_counted(options, 2), targets.size()) << "resumed";
}

TEST(BatchHunt, QueryPhaseCompilesEachSourceOnceAtAnyThreadCount)
{
    // A cold hunt builds every (CVE, ISA) query in one parallel phase
    // that lowers and optimizes each distinct (package, version) source
    // once and shares the MIR across ISAs. At any worker count, each
    // query's store entry holds the bytes a store-less one-at-a-time
    // build_query produces, and no count in health moves.
    firmware::CorpusOptions corpus_options;
    corpus_options.num_devices = 3;
    const firmware::Corpus corpus =
        firmware::build_corpus(corpus_options);
    const std::vector<CorpusTarget> targets = corpus_targets(corpus);
    const std::vector<firmware::CveRecord> &cves =
        firmware::cve_database();
    const std::vector<isa::Arch> isas = target_isas(targets);
    ASSERT_GE(isas.size(), 2u);
    std::set<std::pair<std::string, std::string>> sources;
    for (const firmware::CveRecord &cve : cves) {
        sources.insert({cve.package, latest_vulnerable_version(cve)});
    }

    std::vector<Query> reference;  // CVE-major, then isas order
    {
        Driver serial((SearchOptions()));
        for (const firmware::CveRecord &cve : cves) {
            for (const isa::Arch arch : isas) {
                reference.push_back(serial.build_query(cve, arch));
            }
        }
    }

    std::vector<std::uint64_t> first_health;
    std::vector<std::vector<CorpusOutcome>> first_grid;
    for (const unsigned threads : {1u, 2u, 8u}) {
        const std::string context = "threads=" + std::to_string(threads);
        const ScopedTempDir store("firmup-batch-query-phase");
        SearchOptions options;
        options.index_cache_dir = store.path();
        ScanHealth health;
        std::vector<std::vector<CorpusOutcome>> grid;
        const std::uint64_t compiles =
            counted("codegen.compile_to_mir", [&] {
                Driver batch(options);
                grid = batch.search_corpus_batch(cves, targets, threads);
                health = batch.health();
            });
        EXPECT_EQ(compiles, sources.size()) << context;
        EXPECT_EQ(health.query_cache_hits, 0u) << context;
        EXPECT_EQ(health.query_cache_misses, reference.size()) << context;
        EXPECT_GT(health.query_seconds, 0.0) << context;
        EXPECT_TRUE(health.sane()) << context;

        Driver reader(options);
        std::size_t i = 0;
        for (const firmware::CveRecord &cve : cves) {
            for (const isa::Arch arch : isas) {
                const Query loaded = reader.build_query(cve, arch);
                EXPECT_TRUE(std::ranges::equal(loaded.index.blob,
                                               reference[i].index.blob))
                    << context << " " << cve.cve_id << " "
                    << isa::arch_name(arch);
                EXPECT_EQ(loaded.qv, reference[i].qv)
                    << context << " " << cve.cve_id;
                ++i;
            }
        }
        EXPECT_EQ(reader.health().query_cache_misses, 0u) << context;

        if (first_grid.empty()) {
            first_health = discrete_health(health);
            first_grid = std::move(grid);
            continue;
        }
        EXPECT_EQ(discrete_health(health), first_health) << context;
        expect_grids_equal(first_grid, grid, context);
    }
}

TEST(BatchHunt, HalfWarmStoreRebuildsOnlyItsMissingQueries)
{
    // A store missing some recipe entries serves the rest and rebuilds
    // exactly the missing ones, byte for byte, with the same grid.
    firmware::CorpusOptions corpus_options;
    corpus_options.num_devices = 3;
    const firmware::Corpus corpus =
        firmware::build_corpus(corpus_options);
    const std::vector<CorpusTarget> targets = corpus_targets(corpus);
    const std::vector<firmware::CveRecord> &cves =
        firmware::cve_database();
    const ScopedTempDir store("firmup-batch-half-warm");
    SearchOptions options;
    options.index_cache_dir = store.path();
    // Target entries first, so the hunt adds only recipe entries.
    Driver(options).preindex(corpus, 2);
    const std::set<std::string> target_entries =
        store_entries(store.path());

    std::vector<std::vector<CorpusOutcome>> cold_grid;
    std::size_t pairs = 0;
    {
        Driver cold(options);
        cold_grid = cold.search_corpus_batch(cves, targets, 2);
        pairs = cold.health().query_cache_misses;
    }
    std::map<std::string, ByteBuffer> recipes;
    for (const std::string &name : store_entries(store.path())) {
        if (!target_entries.contains(name)) {
            recipes[name] =
                read_file_bytes(store.path() + "/" + name).take();
        }
    }
    ASSERT_EQ(recipes.size(), pairs);
    ASSERT_GE(pairs, 3u);

    std::size_t deleted = 0;
    std::size_t n = 0;
    for (const auto &[name, bytes] : recipes) {
        if (n++ % 3 == 0) {
            fs::remove(store.path() + "/" + name);
            ++deleted;
        }
    }
    Driver half(options);
    const std::vector<std::vector<CorpusOutcome>> grid =
        half.search_corpus_batch(cves, targets, 2);
    expect_grids_equal(cold_grid, grid, "half-warm");
    const ScanHealth &health = half.health();
    EXPECT_EQ(health.query_cache_misses, deleted);
    EXPECT_EQ(health.query_cache_hits + health.query_cache_misses, pairs);
    EXPECT_EQ(health.cache_misses, 0u);
    EXPECT_TRUE(health.sane());

    std::set<std::string> want = target_entries;
    for (const auto &[name, bytes] : recipes) {
        want.insert(name);
        auto now = read_file_bytes(store.path() + "/" + name);
        ASSERT_TRUE(now.ok()) << name << " was not rebuilt";
        EXPECT_EQ(now.value(), bytes) << name;
    }
    EXPECT_EQ(store_entries(store.path()), want);
}

TEST(BatchHunt, RecipeStoreNamesArePinned)
{
    // A store primed by an earlier build keeps serving its recipe
    // entries warm only while every recipe key, hence every entry's
    // file name, stays put. These are the first CVE's four entries as
    // earlier builds wrote them.
    const firmware::CveRecord &cve = firmware::cve_database().front();
    const ScopedTempDir store("firmup-batch-recipe-pin");
    SearchOptions options;
    options.index_cache_dir = store.path();
    Driver driver(options);
    for (const isa::Arch arch : isa::kAllArches) {
        driver.build_query(cve, arch);
    }
    EXPECT_EQ(store_entries(store.path()),
              (std::set<std::string>{
                  "0a6981d021e0ed11.fwix", "21e88f4eb5b1928a.fwix",
                  "fc6555b69a6825f2.fwix", "fd41a461c6ddf72e.fwix"}));
}

TEST(BatchHunt, RepeatedCveSharesOneBuildPerQuery)
{
    // A CVE listed twice has one recipe per ISA: the phase compiles its
    // source once and builds each query once. The repeat is served the
    // way a serial build would serve it, from the store entry the first
    // build wrote (or a copy of its index without a store), so both
    // rows are equal.
    firmware::CorpusOptions corpus_options;
    corpus_options.num_devices = 2;
    const firmware::Corpus corpus =
        firmware::build_corpus(corpus_options);
    const std::vector<CorpusTarget> targets = corpus_targets(corpus);
    const std::vector<isa::Arch> isas = target_isas(targets);
    ASSERT_FALSE(isas.empty());
    const firmware::CveRecord &cve = firmware::cve_database().front();
    const ScopedTempDir store("firmup-batch-repeat");
    for (const bool with_store : {false, true}) {
        const std::string context =
            with_store ? "with store" : "without store";
        SearchOptions options;
        if (with_store) {
            options.index_cache_dir = store.path();
        }
        ScanHealth health;
        std::vector<std::vector<CorpusOutcome>> grid;
        const std::uint64_t compiles =
            counted("codegen.compile_to_mir", [&] {
                Driver driver(options);
                grid = driver.search_corpus_batch({cve, cve}, targets, 2);
                health = driver.health();
            });
        EXPECT_EQ(compiles, 1u) << context;
        ASSERT_EQ(grid.size(), 2u) << context;
        expect_rows_equal(grid[0], grid[1], context);
        EXPECT_EQ(health.query_cache_misses, with_store ? isas.size() : 0u)
            << context;
        EXPECT_EQ(health.query_cache_hits, with_store ? isas.size() : 0u)
            << context;
    }
}

TEST(BatchHunt, ResumeUnderOtherConfirmRatioIsRejected)
{
    // The scan fingerprint folds in every deterministic matching knob,
    // so a journal written under one confirm threshold cannot be
    // silently continued under another — half the grid confirmed one
    // way, half the other. The mismatch must surface as a hard
    // rejection with an empty (pre-shaped) grid, not a degrade-and-
    // restart like a corrupt journal does.
    firmware::CorpusOptions corpus_options;
    corpus_options.num_devices = 2;
    const firmware::Corpus corpus =
        firmware::build_corpus(corpus_options);
    const std::vector<CorpusTarget> targets = corpus_targets(corpus);
    ASSERT_FALSE(targets.empty());
    const std::vector<firmware::CveRecord> cves = hunt_cves();

    // Write a partial journal under the defaults (cancel mid-hunt so a
    // resume would actually have records to replay).
    const std::string path = fresh_journal_path("cross-ratio");
    CancelToken token;
    SearchOptions original;
    original.journal_path = path;
    original.cancel = &token;
    original.cancel_after_appends = 1;
    {
        Driver driver(original);
        driver.search_corpus_batch(cves, targets, 2);
        EXPECT_TRUE(driver.health().cancelled);
    }

    // Resuming it under another confirm ratio must be refused outright.
    SearchOptions cross;
    cross.min_confirm_ratio = 0.4;
    cross.journal_path = path;
    cross.resume = true;
    Driver rejected(cross);
    const std::vector<std::vector<CorpusOutcome>> grid =
        rejected.search_corpus_batch(cves, targets, 2);
    EXPECT_TRUE(rejected.health().resume_rejected);
    EXPECT_FALSE(rejected.health().resume_reject_reason.empty());
    ASSERT_EQ(grid.size(), cves.size());
    for (const auto &row : grid) {
        ASSERT_EQ(row.size(), targets.size());
        for (const CorpusOutcome &out : row) {
            EXPECT_FALSE(out.indexed);
            EXPECT_FALSE(out.outcome.detected);
        }
    }

    // The original configuration still resumes the journal it wrote.
    SearchOptions good;
    good.journal_path = path;
    good.resume = true;
    Driver accepted(good);
    accepted.search_corpus_batch(cves, targets, 2);
    EXPECT_FALSE(accepted.health().resume_rejected);
    EXPECT_GT(accepted.health().resumed_targets, 0u);
    EXPECT_TRUE(accepted.health().sane());
}

TEST(BatchHunt, DefaultScanFingerprintIsPinned)
{
    // Journals and --state manifests written by earlier builds carry
    // these values; a change to what the default options hash would
    // refuse every one of them on resume, so they must never move.
    EXPECT_EQ(scan_fingerprint(SearchOptions{}, "cve:pin", true),
              0xbfad562b95e33f76ull);
    EXPECT_EQ(scan_fingerprint(SearchOptions{},
                               batch_scan_label(hunt_cves()), true),
              0xc4dfae61af449e0cull);
    EXPECT_EQ(scan_fingerprint(SearchOptions{},
                               batch_scan_label(hunt_cves()), false),
              0x916fdbc7d68d7e94ull);
}

}  // namespace
}  // namespace firmup::eval
