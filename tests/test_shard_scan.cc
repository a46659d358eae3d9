/**
 * @file
 * Sharded fleet scans (eval/shard.h): determinism, crash tolerance and
 * incremental-rescan properties of the coordinator/worker scale-out.
 *
 * The bar mirrors the thread-count determinism the batch hunt already
 * meets, one level up: the merged fleet findings must be bit-identical
 * at any (worker count, threads-per-worker) combination, survive a
 * worker killed or stalled mid-scan via journal-backed reassignment,
 * and a rescan of an unchanged corpus against the persisted state
 * manifest must re-search nothing at all. The worker binary is the real
 * `firmup` CLI (FIRMUP_TOOL_PATH), so these tests exercise the actual
 * fork/exec + frame-protocol path, not a mock.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "eval/shard.h"
#include "firmware/catalog.h"
#include "firmware/corpus.h"
#include "firmware/image.h"
#include "lifter/cfg.h"
#include "support/fsio.h"
#include "support/trace.h"

namespace firmup::eval {
namespace {

namespace fs = std::filesystem;

/** A small corpus packed to real blobs, shared by every fleet test. */
struct PackedCorpus
{
    std::string blob_dir;
    std::string store_dir;  ///< shared FWIX store (kept warm across runs)
    std::vector<std::string> paths;
    std::string cve_id;
};

const PackedCorpus &
packed_corpus()
{
    static const PackedCorpus *corpus = [] {
        auto *out = new PackedCorpus;
        // gtest_discover_tests runs every TEST as its own ctest entry
        // (own process), possibly in parallel — the fixture dir must be
        // per-process or concurrent tests clobber each other's store.
        const fs::path base =
            fs::path(testing::TempDir()) /
            ("firmup-shard-tests-" + std::to_string(::getpid()));
        fs::remove_all(base);
        fs::create_directories(base / "blobs");
        fs::create_directories(base / "store");
        out->blob_dir = (base / "blobs").string();
        out->store_dir = (base / "store").string();
        firmware::CorpusOptions copt;
        copt.num_devices = 6;
        auto written = firmware::write_corpus_blobs(
            firmware::build_corpus(copt), copt.seed, out->blob_dir);
        EXPECT_TRUE(written.ok()) << written.error_message();
        if (written.ok()) {
            out->paths = std::move(written).take();
        }
        out->cve_id = firmware::cve_database().front().cve_id;
        return out;
    }();
    return *corpus;
}

FleetReport
fleet(std::size_t workers, unsigned threads,
      const std::string &state_dir = "",
      std::size_t kill_after = 0, bool stall = false,
      double heartbeat = 30.0)
{
    const PackedCorpus &corpus = packed_corpus();
    ShardScanOptions options;
    options.cve_ids = {corpus.cve_id};
    options.blob_paths = corpus.paths;
    options.workers = workers;
    options.worker_threads = threads;
    options.index_cache_dir = corpus.store_dir;
    options.state_dir = state_dir;
    options.quiet = true;
    options.kill_first_worker_after = kill_after;
    options.stall_first_worker = stall;
    options.heartbeat_seconds = heartbeat;
    return run_shard_scan(FIRMUP_TOOL_PATH, options);
}

void
expect_findings_equal(const FleetReport &want, const FleetReport &got,
                      const std::string &context)
{
    ASSERT_TRUE(want.ok) << context << ": " << want.error;
    ASSERT_TRUE(got.ok) << context << ": " << got.error;
    ASSERT_EQ(got.findings.size(), want.findings.size()) << context;
    for (std::size_t i = 0; i < want.findings.size(); ++i) {
        const FleetFinding &a = want.findings[i];
        const FleetFinding &b = got.findings[i];
        EXPECT_EQ(b.cve, a.cve) << context << " finding " << i;
        EXPECT_EQ(b.blob, a.blob) << context << " finding " << i;
        EXPECT_EQ(b.ord, a.ord) << context << " finding " << i;
        EXPECT_EQ(b.exe_name, a.exe_name) << context << " finding " << i;
        EXPECT_EQ(b.matched_entry, a.matched_entry)
            << context << " finding " << i;
        EXPECT_EQ(b.sim, a.sim) << context << " finding " << i;
        EXPECT_EQ(b.steps, a.steps) << context << " finding " << i;
    }
}

std::vector<std::uint8_t>
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

TEST(ShardFunction, DeterministicAndInRange)
{
    for (std::size_t count : {std::size_t{1}, std::size_t{2},
                              std::size_t{3}, std::size_t{7}}) {
        for (int i = 0; i < 100; ++i) {
            const std::string path =
                "corpus/blob-" + std::to_string(i) + ".fw";
            const std::size_t shard = shard_of_path(path, count);
            EXPECT_LT(shard, count);
            EXPECT_EQ(shard_of_path(path, count), shard)
                << "unstable for " << path;
        }
    }
    // Count 0 degrades to a single shard instead of dividing by zero.
    EXPECT_EQ(shard_of_path("anything", 0), 0u);
    // The hash actually spreads: 100 synthetic paths at 4 shards must
    // not all collapse onto one (the function is fixed, so this either
    // always passes or the hash is broken).
    std::set<std::size_t> used;
    for (int i = 0; i < 100; ++i) {
        used.insert(
            shard_of_path("corpus/blob-" + std::to_string(i) + ".fw", 4));
    }
    EXPECT_GE(used.size(), 2u);
}

TEST(ShardFrames, CodecRoundTripsHostileStrings)
{
    const FrameFields fields = {
        {"type", "finding"},
        {"quote", "say \"hi\""},
        {"backslash", "a\\b"},
        {"newline", "line1\nline2\ttabbed\rcr"},
        {"control", std::string("\x01\x02\x1f", 3)},
        {"empty", ""},
        {"utf8", "caf\xc3\xa9"},
    };
    FrameFields decoded;
    ASSERT_TRUE(decode_frame(encode_frame(fields), &decoded));
    EXPECT_EQ(decoded, fields);

    FrameFields empty_decoded;
    ASSERT_TRUE(decode_frame(encode_frame({}), &empty_decoded));
    EXPECT_TRUE(empty_decoded.empty());

    for (const std::string &bad :
         {std::string(""), std::string("{"), std::string("{\"a\":1}"),
          std::string("{\"a\":\"b\""), std::string("[\"a\"]"),
          std::string("{\"a\" \"b\"}")}) {
        FrameFields out;
        EXPECT_FALSE(decode_frame(bad, &out)) << bad;
    }
}

TEST(ShardFrames, HealthFieldsRoundTrip)
{
    ScanHealth health;
    health.images_seen = 3;
    health.images_rejected = 1;
    health.members_damaged = 2;
    health.executables_seen = 40;
    health.lifted_ok = 38;
    health.quarantined = 2;
    health.games_played = 17;
    health.games_unresolved = 4;
    health.cancelled = true;
    health.targets_cancelled = 5;
    health.resumed_targets = 6;
    health.retries = 7;
    health.watchdog_expired = 8;
    health.journal_truncated_bytes = 9;
    health.cache_hits = 10;
    health.cache_misses = 11;
    health.cache_write_bytes = 12;
    health.cache_load_seconds = 1.25;
    health.cache_open_seconds = 0.5;
    health.cache_checksum_seconds = 0.125;
    health.cache_parse_seconds = 0.0625;
    health.cache_mmap_loads = 13;
    health.query_cache_hits = 17;
    health.query_cache_misses = 18;
    health.resume_rejected = true;
    health.resume_reject_reason = "fingerprint \"mismatch\"\n";
    health.load_seconds = 0.625;
    health.load_cpu_seconds = 1.75;
    health.index_seconds = 2.5;
    health.index_cpu_seconds = 2.0;
    health.query_seconds = 0.75;
    health.query_cpu_seconds = 2.25;
    health.game_seconds = 1.5;
    health.game_cpu_seconds = 1.0;
    health.confirm_seconds = 0.25;
    health.confirm_cpu_seconds = 0.125;
    health.match_wall_seconds = 3.5;
    health.journal_seconds = 0.375;
    health.journal_cpu_seconds = 0.1875;
    for (std::size_t c = 0; c < kErrorCodeCount; ++c) {
        health.errors[c] = c + 1;
    }

    FrameFields fields;
    health_to_fields(health, fields);
    ScanHealth back;
    health_from_fields(fields, back);

    EXPECT_EQ(back.images_seen, health.images_seen);
    EXPECT_EQ(back.images_rejected, health.images_rejected);
    EXPECT_EQ(back.members_damaged, health.members_damaged);
    EXPECT_EQ(back.executables_seen, health.executables_seen);
    EXPECT_EQ(back.lifted_ok, health.lifted_ok);
    EXPECT_EQ(back.quarantined, health.quarantined);
    EXPECT_EQ(back.games_played, health.games_played);
    EXPECT_EQ(back.games_unresolved, health.games_unresolved);
    EXPECT_EQ(back.cancelled, health.cancelled);
    EXPECT_EQ(back.targets_cancelled, health.targets_cancelled);
    EXPECT_EQ(back.resumed_targets, health.resumed_targets);
    EXPECT_EQ(back.retries, health.retries);
    EXPECT_EQ(back.watchdog_expired, health.watchdog_expired);
    EXPECT_EQ(back.journal_truncated_bytes,
              health.journal_truncated_bytes);
    EXPECT_EQ(back.cache_hits, health.cache_hits);
    EXPECT_EQ(back.cache_misses, health.cache_misses);
    EXPECT_EQ(back.cache_write_bytes, health.cache_write_bytes);
    EXPECT_EQ(back.cache_load_seconds, health.cache_load_seconds);
    EXPECT_EQ(back.cache_open_seconds, health.cache_open_seconds);
    EXPECT_EQ(back.cache_checksum_seconds,
              health.cache_checksum_seconds);
    EXPECT_EQ(back.cache_parse_seconds, health.cache_parse_seconds);
    EXPECT_EQ(back.cache_mmap_loads, health.cache_mmap_loads);
    EXPECT_EQ(back.query_cache_hits, health.query_cache_hits);
    EXPECT_EQ(back.query_cache_misses, health.query_cache_misses);
    EXPECT_EQ(back.resume_rejected, health.resume_rejected);
    EXPECT_EQ(back.resume_reject_reason, health.resume_reject_reason);
    EXPECT_EQ(back.load_seconds, health.load_seconds);
    EXPECT_EQ(back.load_cpu_seconds, health.load_cpu_seconds);
    EXPECT_EQ(back.index_seconds, health.index_seconds);
    EXPECT_EQ(back.index_cpu_seconds, health.index_cpu_seconds);
    EXPECT_EQ(back.query_seconds, health.query_seconds);
    EXPECT_EQ(back.query_cpu_seconds, health.query_cpu_seconds);
    EXPECT_EQ(back.game_seconds, health.game_seconds);
    EXPECT_EQ(back.game_cpu_seconds, health.game_cpu_seconds);
    EXPECT_EQ(back.confirm_seconds, health.confirm_seconds);
    EXPECT_EQ(back.confirm_cpu_seconds, health.confirm_cpu_seconds);
    EXPECT_EQ(back.match_wall_seconds, health.match_wall_seconds);
    EXPECT_EQ(back.journal_seconds, health.journal_seconds);
    EXPECT_EQ(back.journal_cpu_seconds, health.journal_cpu_seconds);
    EXPECT_EQ(back.errors, health.errors);
}

TEST(ShardScan, FindingsInvariantAcrossWorkerAndThreadCounts)
{
    const FleetReport baseline = fleet(1, 1);
    ASSERT_TRUE(baseline.ok) << baseline.error;
    ASSERT_FALSE(baseline.findings.empty());
    for (std::size_t workers : {std::size_t{1}, std::size_t{2},
                                std::size_t{3}}) {
        for (unsigned threads : {1u, 2u, 8u}) {
            if (workers == 1 && threads == 1) {
                continue;  // that is the baseline itself
            }
            const FleetReport got = fleet(workers, threads);
            const std::string context =
                std::to_string(workers) + " workers x " +
                std::to_string(threads) + " threads";
            expect_findings_equal(baseline, got, context);
            // (query, target) pairs partition exactly across shards,
            // so the merged game count is invariant too. (Per-worker
            // dedup counters like executables_seen are NOT — duplicate
            // content spanning shards is counted once per worker.)
            EXPECT_EQ(got.health.games_played,
                      baseline.health.games_played)
                << context;
            // One spawn per non-empty shard, no churn.
            EXPECT_EQ(got.workers_spawned, got.shards.size()) << context;
            EXPECT_EQ(got.reassignments, 0u) << context;
        }
    }
}

TEST(ShardScan, KilledWorkerIsReassignedAndMergesIdentically)
{
    const FleetReport baseline = fleet(1, 1);
    ASSERT_TRUE(baseline.ok) << baseline.error;
    const FleetReport killed =
        fleet(2, 1, "", /*kill_after=*/3, /*stall=*/false);
    ASSERT_TRUE(killed.ok) << killed.error;
    EXPECT_GE(killed.reassignments, 1u);
    EXPECT_GE(killed.workers_spawned, 3u);
    // The respawn resumed the dead worker's journal: at least the pairs
    // it appended before dying replay instead of re-running.
    EXPECT_GE(killed.incremental_skips, 1u);
    expect_findings_equal(baseline, killed, "killed worker");
}

TEST(ShardScan, StalledWorkerTripsHeartbeatAndIsReassigned)
{
    const FleetReport baseline = fleet(1, 1);
    ASSERT_TRUE(baseline.ok) << baseline.error;
    const FleetReport stalled =
        fleet(2, 1, "", /*kill_after=*/3, /*stall=*/true,
              /*heartbeat=*/1.5);
    ASSERT_TRUE(stalled.ok) << stalled.error;
    EXPECT_GE(stalled.reassignments, 1u);
    expect_findings_equal(baseline, stalled, "stalled worker");
}

TEST(ShardScan, UnchangedCorpusRescansIncrementally)
{
    const fs::path state_dir =
        fs::path(testing::TempDir()) / "firmup-shard-state";
    fs::remove_all(state_dir);
    // The coordinator writes each shard seed and the rebuilt state as
    // whole files: none of their records is a durable append (the
    // workers, separate processes, do the appends).
    trace::MetricsRegistry::global().reset();
    trace::set_level(trace::Level::Metrics);
    const FleetReport first = fleet(3, 1, state_dir.string());
    const FleetReport second = fleet(3, 1, state_dir.string());
    const std::uint64_t coordinator_appends =
        trace::MetricsRegistry::global().snapshot().counter(
            "journal.appends");
    trace::set_level(trace::Level::Off);
    trace::MetricsRegistry::global().reset();
    EXPECT_EQ(coordinator_appends, 0u);

    ASSERT_TRUE(first.ok) << first.error;
    EXPECT_FALSE(first.state_reused);
    EXPECT_GT(first.targets_searched, 0u);
    ASSERT_TRUE(fs::exists(state_dir / "state.fwsj"));

    ASSERT_TRUE(second.ok) << second.error;
    EXPECT_TRUE(second.state_reused);
    // Pure replay: nothing searched, no query built, no index-store
    // traffic (with a store, every lifted target is a cache miss) — the
    // acceptance bar for incremental.
    EXPECT_EQ(second.targets_searched, 0u);
    EXPECT_GT(second.incremental_skips, 0u);
    EXPECT_EQ(second.health.query_cache_misses, 0u);
    EXPECT_EQ(second.health.cache_hits, 0u);
    EXPECT_EQ(second.health.cache_misses, 0u);
    expect_findings_equal(first, second, "incremental rescan");

    // A different worker count reuses the same state just as well: the
    // manifest is the key-sorted union, not a per-worker layout.
    const FleetReport other = fleet(2, 1, state_dir.string());
    ASSERT_TRUE(other.ok) << other.error;
    EXPECT_TRUE(other.state_reused);
    EXPECT_EQ(other.targets_searched, 0u);
    expect_findings_equal(first, other, "rescan at other worker count");
    fs::remove_all(state_dir);
}

TEST(ShardWorkerArgs, DecodeInvertsEveryWorkerVisibleField)
{
    ShardScanOptions options;
    options.cve_ids = {"CVE-2011-0762", "CVE-2014-4877"};
    options.blob_paths = {"/corpus/with space.fw", "plain.fw",
                          "dir with spaces/v1.0 (old).fw"};
    options.workers = 3;
    options.worker_threads = 5;
    options.heartbeat_seconds = 0.1;  // must survive the trip through text
    options.index_cache_dir = "/store dir/fwix";
    options.mmap_index = false;
    options.kill_first_worker_after = 7;
    options.stall_first_worker = true;
    const std::string journal = "/state dir/shard-2.fwsj";

    const std::vector<std::string> args =
        worker_args(options, 2, journal, /*with_seams=*/true);
    ASSERT_FALSE(args.empty());
    EXPECT_EQ(args.front(), "--worker");
    // The inverse emits each shared flag once.
    for (const char *flag : {"--cve-list", "--index-cache", "--no-mmap"}) {
        EXPECT_EQ(std::count(args.begin(), args.end(), flag), 1) << flag;
    }
    ShardWorkerOptions decoded;
    ASSERT_TRUE(parse_worker_args({args.begin() + 1, args.end()}, decoded));
    EXPECT_EQ(decoded.shard_index, 2u);
    EXPECT_EQ(decoded.shard_count, options.workers);
    EXPECT_EQ(decoded.threads, options.worker_threads);
    EXPECT_EQ(decoded.heartbeat_seconds, options.heartbeat_seconds);
    EXPECT_EQ(decoded.journal_path, journal);
    EXPECT_EQ(decoded.cve_ids, options.cve_ids);
    EXPECT_EQ(decoded.blob_paths, options.blob_paths);
    EXPECT_EQ(decoded.index_cache_dir, options.index_cache_dir);
    EXPECT_EQ(decoded.mmap_index, options.mmap_index);
    EXPECT_EQ(decoded.exit_after_appends, options.kill_first_worker_after);
    EXPECT_EQ(decoded.stall_after_appends, options.stall_first_worker);

    // Defaults survive too, and the seams stay off a non-seamed spawn.
    ShardScanOptions plain;
    plain.cve_ids = {"CVE-2011-0762"};
    plain.blob_paths = {"a.fw"};
    plain.kill_first_worker_after = 3;
    ShardWorkerOptions back;
    const std::vector<std::string> plain_args =
        worker_args(plain, 0, "j.fwsj", /*with_seams=*/false);
    ASSERT_TRUE(
        parse_worker_args({plain_args.begin() + 1, plain_args.end()}, back));
    EXPECT_EQ(back.cve_ids, plain.cve_ids);
    EXPECT_EQ(back.blob_paths, plain.blob_paths);
    EXPECT_EQ(back.index_cache_dir, "");
    EXPECT_TRUE(back.mmap_index);
    EXPECT_EQ(back.heartbeat_seconds, plain.heartbeat_seconds);
    EXPECT_EQ(back.exit_after_appends, 0u);
    EXPECT_FALSE(back.stall_after_appends);
}

TEST(ShardScan, ScanFlagsReachEveryWorker)
{
    // The shared store flags must change what the workers do, not just
    // what the coordinator parsed: on a warm store the merged health
    // shows mapped loads by default and none under --no-mmap.
    const PackedCorpus &corpus = packed_corpus();
    ShardScanOptions options;
    options.cve_ids = {corpus.cve_id};
    options.blob_paths = corpus.paths;
    options.workers = 2;
    options.index_cache_dir = corpus.store_dir;
    options.quiet = true;
    const FleetReport warmup = run_shard_scan(FIRMUP_TOOL_PATH, options);
    ASSERT_TRUE(warmup.ok) << warmup.error;

    const FleetReport mapped = run_shard_scan(FIRMUP_TOOL_PATH, options);
    ASSERT_TRUE(mapped.ok) << mapped.error;
    EXPECT_GT(mapped.health.cache_mmap_loads, 0u);

    ShardScanOptions read = options;
    read.mmap_index = false;
    const FleetReport unmapped = run_shard_scan(FIRMUP_TOOL_PATH, read);
    ASSERT_TRUE(unmapped.ok) << unmapped.error;
    EXPECT_EQ(unmapped.health.cache_mmap_loads, 0u);
    EXPECT_GT(unmapped.health.cache_hits, 0u);
    expect_findings_equal(mapped, unmapped, "--no-mmap");
}

/** Run the real CLI via the shell, stdout to @p out_path. */
int
run_cli(const std::string &args, const std::string &out_path)
{
    const std::string command = std::string(FIRMUP_TOOL_PATH) + " " +
                                args + " > " + out_path + " 2>/dev/null";
    const int status = std::system(command.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::vector<std::string>
vulnerable_lines(const std::string &out_path)
{
    std::vector<std::string> lines;
    std::ifstream in(out_path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.find("VULNERABLE") != std::string::npos) {
            lines.push_back(line);
        }
    }
    return lines;
}

TEST(ShardScanCli, SearchShardSlicesUnionToFullScan)
{
    const PackedCorpus &corpus = packed_corpus();
    const fs::path base =
        fs::path(testing::TempDir()) / "firmup-shard-cli";
    fs::remove_all(base);
    fs::create_directories(base);
    std::string blobs;
    for (const std::string &path : corpus.paths) {
        blobs += " " + path;
    }
    const std::string common = "search " + corpus.cve_id +
                               " --index-cache " + corpus.store_dir;
    const std::string full_out = (base / "full.txt").string();
    const int full_exit = run_cli(common + blobs, full_out);
    EXPECT_TRUE(full_exit == 0 || full_exit == 3) << full_exit;
    std::vector<std::string> full = vulnerable_lines(full_out);
    ASSERT_FALSE(full.empty());

    std::vector<std::string> merged;
    for (int shard = 0; shard < 3; ++shard) {
        const std::string out =
            (base / ("shard" + std::to_string(shard) + ".txt")).string();
        const int exit_code = run_cli(
            common + " --shard-index " + std::to_string(shard) +
                " --shard-count 3" + blobs,
            out);
        EXPECT_TRUE(exit_code == 0 || exit_code == 3) << exit_code;
        const std::vector<std::string> lines = vulnerable_lines(out);
        merged.insert(merged.end(), lines.begin(), lines.end());
    }
    // The three shard slices are disjoint and exhaustive: their merged
    // findings are a permutation of the full scan's.
    std::sort(full.begin(), full.end());
    std::sort(merged.begin(), merged.end());
    EXPECT_EQ(merged, full);
    fs::remove_all(base);
}

TEST(ShardScanCli, ResumeUnderOtherCveListExitsFive)
{
    // A journal is bound to the scan that wrote it: resuming it with a
    // different --cve-list must be refused (exit 5) before any lifting,
    // rather than degrading to a rescan that would later mix two scans'
    // records in one file.
    const PackedCorpus &corpus = packed_corpus();
    const fs::path base =
        fs::path(testing::TempDir()) / "firmup-resume-reject";
    fs::remove_all(base);
    fs::create_directories(base);
    const std::vector<firmware::CveRecord> &cves = firmware::cve_database();
    ASSERT_GE(cves.size(), 2u);
    const std::string journal = (base / "scan.fwsj").string();
    std::string blobs;
    for (const std::string &path : corpus.paths) {
        blobs += " " + path;
    }
    const std::string common = "search --journal " + journal +
                               " --index-cache " + corpus.store_dir;
    const int first = run_cli(
        common + " --cve-list " + cves[0].cve_id + blobs,
        (base / "first.txt").string());
    EXPECT_TRUE(first == 0 || first == 3) << first;
    ASSERT_TRUE(fs::exists(journal));
    const auto before = slurp(journal);

    const int rejected = run_cli(
        common + " --resume --cve-list " + cves[0].cve_id + "," +
            cves[1].cve_id + blobs,
        (base / "second.txt").string());
    EXPECT_EQ(rejected, 5);
    EXPECT_TRUE(vulnerable_lines((base / "second.txt").string()).empty());
    // The refused resume leaves the journal untouched for the scan that
    // owns it.
    EXPECT_EQ(slurp(journal), before);

    const int resumed = run_cli(
        common + " --resume --cve-list " + cves[0].cve_id + blobs,
        (base / "third.txt").string());
    EXPECT_EQ(resumed, first);
    EXPECT_EQ(vulnerable_lines((base / "third.txt").string()),
              vulnerable_lines((base / "first.txt").string()));
    fs::remove_all(base);
}

/** The "unpacked/seen" image counts on a CLI run's health line. */
std::pair<int, int>
images_unpacked(const std::string &out_path)
{
    std::ifstream in(out_path);
    std::string line;
    while (std::getline(in, line)) {
        int unpacked = -1, seen = -1;
        if (std::sscanf(line.c_str(), "scan health: %d/%d image(s)",
                        &unpacked, &seen) == 2) {
            return {unpacked, seen};
        }
    }
    return {-1, -1};
}

TEST(ShardScanCli, DirectoryInBlobListIsOneUnpackFailure)
{
    // A directory among the blobs used to abort the whole scan with an
    // uncaught stream exception (and every shard-scan respawn with it).
    // It must count as one unreadable image while every real blob is
    // scanned exactly as without it.
    const PackedCorpus &corpus = packed_corpus();
    const fs::path base =
        fs::path(testing::TempDir()) /
        ("firmup-dir-blob-" + std::to_string(::getpid()));
    fs::remove_all(base);
    fs::create_directories(base / "not-a-blob");
    std::string blobs;
    for (const std::string &path : corpus.paths) {
        blobs += " " + path;
    }
    const int images = static_cast<int>(corpus.paths.size());
    // search prints its health line only when collecting metrics.
    const std::string stats = (base / "stats.json").string();
    for (const std::string &command :
         {"search --stats-json " + stats,
          std::string("shard-scan --workers 2")}) {
        const std::string common = command + " " + corpus.cve_id +
                                   " --index-cache " + corpus.store_dir;
        const std::string clean_out = (base / "clean.txt").string();
        const std::string dir_out = (base / "dir.txt").string();
        const int clean = run_cli(common + blobs, clean_out);
        const int with_dir = run_cli(
            common + blobs + " " + (base / "not-a-blob").string(),
            dir_out);
        EXPECT_TRUE(clean == 0 || clean == 3) << command << ": " << clean;
        EXPECT_EQ(with_dir, clean) << command;
        EXPECT_FALSE(vulnerable_lines(clean_out).empty()) << command;
        EXPECT_EQ(vulnerable_lines(dir_out), vulnerable_lines(clean_out))
            << command;
        EXPECT_EQ(images_unpacked(clean_out),
                  std::make_pair(images, images))
            << command;
        EXPECT_EQ(images_unpacked(dir_out),
                  std::make_pair(images, images + 1))
            << command;
    }
    fs::remove_all(base);
}

/** What one streamed hunt (hunt_manifest) left behind. */
struct StreamedRun
{
    std::vector<FleetFinding> findings;
    std::string stderr_text;
    ScanHealth health;
    trace::Snapshot metrics;
    std::map<std::string, std::size_t> spans;  ///< span name -> count
};

/** Run hunt_manifest over @p paths at trace::Level::Full. */
StreamedRun
streamed_hunt(const SearchOptions &options,
              const std::vector<firmware::CveRecord> &cves,
              const std::vector<std::string> &paths, unsigned threads)
{
    StreamedRun run;
    trace::MetricsRegistry &registry = trace::MetricsRegistry::global();
    registry.reset();
    trace::set_level(trace::Level::Full);
    testing::internal::CaptureStderr();
    {
        Driver driver(options);
        const ManifestHunt hunt =
            hunt_manifest(driver, cves, paths, 0, 1, threads);
        run.findings = manifest_findings(hunt.grid, hunt.manifest);
        run.health = driver.health();
    }
    run.stderr_text = testing::internal::GetCapturedStderr();
    trace::set_level(trace::Level::Off);
    run.metrics = registry.snapshot();
    for (const trace::TraceEvent &event : registry.events()) {
        ++run.spans[event.name];
    }
    registry.reset();
    return run;
}

/** Every count and flag of @p health: none depends on timing. */
std::vector<std::uint64_t>
discrete_health(const ScanHealth &h)
{
    std::vector<std::uint64_t> counts = {
        h.images_seen,       h.images_rejected,    h.members_damaged,
        h.executables_seen,  h.lifted_ok,          h.quarantined,
        h.games_played,      h.games_unresolved,   h.resumed_targets,
        h.cache_hits,        h.cache_misses,       h.cache_write_bytes,
        h.cache_mmap_loads,  h.query_cache_hits,   h.query_cache_misses};
    counts.insert(counts.end(), h.errors.begin(), h.errors.end());
    return counts;
}

/**
 * The counters of @p metrics that depend on neither time nor the thread
 * count (scan.chunks counts the game grid's ranges, which do).
 */
std::map<std::string, std::uint64_t>
work_counters(const trace::Snapshot &metrics)
{
    std::map<std::string, std::uint64_t> counters = metrics.counters;
    counters.erase("cache.load_micros");
    counters.erase("scan.chunks");
    return counters;
}

/** Content keys of every member of @p paths, in manifest order. */
std::vector<std::uint64_t>
manifest_keys(const std::vector<std::string> &paths)
{
    std::vector<std::uint64_t> keys;
    for (const CorpusTarget &target : load_manifest(paths).targets) {
        keys.push_back(content_key(*target.exe));
    }
    return keys;
}

/** Blobs of a small corpus, written under @p dir. */
std::vector<std::string>
small_corpus_blobs(const std::string &dir)
{
    fs::create_directories(dir);
    firmware::CorpusOptions copt;
    copt.num_devices = 3;
    auto written = firmware::write_corpus_blobs(
        firmware::build_corpus(copt), copt.seed, dir);
    EXPECT_TRUE(written.ok()) << written.error_message();
    return written.ok() ? std::move(written).take()
                        : std::vector<std::string>();
}

/** The first three CVEs of the database. */
std::vector<firmware::CveRecord>
three_cves()
{
    const std::vector<firmware::CveRecord> &all = firmware::cve_database();
    return {all.begin(), all.begin() + 3};
}

TEST(StreamedHunt, FrontEndIsDeterministicAcrossThreadCounts)
{
    // The front end reads, unpacks, keys and store-loads the blobs on
    // parallel_for jobs and merges in manifest order. A manifest with a
    // damaged blob, a missing one and repeated members in the middle
    // prints the same stderr lines, health, work counters and findings
    // at 1, 2 and 8 threads, cold and warm, and no executable's bytes
    // are held when the games start.
    const ScopedTempDir dir("firmup-streamed-determinism");
    const std::vector<std::string> blobs =
        small_corpus_blobs(dir.path() + "/blobs");
    ASSERT_GE(blobs.size(), 4u);
    const std::string damaged = dir.path() + "/damaged.fw";
    {
        std::ofstream out(damaged, std::ios::binary);
        out << "not a firmware image";
    }
    const std::string copy = dir.path() + "/copy.fw";
    fs::copy_file(blobs[1], copy);
    std::vector<std::string> manifest(blobs.begin(), blobs.begin() + 2);
    manifest.push_back(damaged);
    manifest.push_back(dir.path() + "/missing.fw");
    manifest.push_back(blobs[0]);  // the same path twice
    manifest.push_back(copy);      // the same members under another name
    manifest.insert(manifest.end(), blobs.begin() + 2, blobs.end());
    const std::vector<firmware::CveRecord> cves = three_cves();
    const std::size_t targets = load_manifest(manifest).targets.size();

    for (const bool warm : {false, true}) {
        const std::string context_kind = warm ? "warm" : "cold";
        const ScopedTempDir stores("firmup-streamed-stores");
        std::optional<StreamedRun> first;
        for (const unsigned threads : {1u, 2u, 8u}) {
            const std::string context =
                context_kind + " threads=" + std::to_string(threads);
            SearchOptions options;
            options.index_cache_dir =
                stores.path() + "/" + std::to_string(threads);
            if (warm) {
                Driver primer(options);
                hunt_manifest(primer, cves, manifest, 0, 1, threads);
            }
            const StreamedRun run =
                streamed_hunt(options, cves, manifest, threads);
            EXPECT_NE(run.stderr_text.find("damaged.fw"), std::string::npos)
                << context;
            EXPECT_NE(run.stderr_text.find("missing.fw"), std::string::npos)
                << context;
            EXPECT_EQ(run.health.images_rejected, 2u) << context;
            EXPECT_EQ(run.health.cache_misses == 0, warm) << context;
            EXPECT_GT(run.health.load_seconds, 0.0) << context;
            EXPECT_EQ(run.metrics.gauges.at("scan.text_bytes_held"), 0)
                << context;
            EXPECT_GT(run.metrics.gauges.at("scan.index_bytes"), 0)
                << context;
            // One read span per manifest entry, one key span per
            // unpacked blob, one store_load span per store load.
            EXPECT_EQ(run.spans.at("read"), manifest.size()) << context;
            EXPECT_EQ(run.spans.at("key"), manifest.size() - 2) << context;
            EXPECT_EQ(run.spans.at("store_load"),
                      run.health.cache_hits + run.health.cache_misses +
                          run.health.query_cache_hits +
                          run.health.query_cache_misses)
                << context;
            EXPECT_EQ(run.metrics.counter("scan.content_keys"), targets)
                << context;
            EXPECT_TRUE(run.health.sane()) << context;
            if (!first) {
                ASSERT_FALSE(run.findings.empty()) << context;
                first = run;
                continue;
            }
            EXPECT_EQ(run.stderr_text, first->stderr_text) << context;
            EXPECT_EQ(discrete_health(run.health),
                      discrete_health(first->health))
                << context;
            EXPECT_EQ(work_counters(run.metrics),
                      work_counters(first->metrics))
                << context;
            EXPECT_EQ(run.metrics.gauges, first->metrics.gauges) << context;
            EXPECT_EQ(run.findings, first->findings) << context;
        }
    }
}

TEST(StreamedHunt, ResumeLoadsAndLiftsNoReplayedKey)
{
    // A journal that answers every pair of a key spares that key the
    // front end's store load and the lift: a resume over the whole
    // manifest loads only the keys of the blobs the journaled hunt did
    // not cover, and lifts only its store misses.
    const ScopedTempDir dir("firmup-streamed-resume");
    const std::vector<std::string> blobs =
        small_corpus_blobs(dir.path() + "/blobs");
    ASSERT_GE(blobs.size(), 4u);
    const std::vector<firmware::CveRecord> cves = three_cves();
    const std::vector<std::string> head(blobs.begin(),
                                        blobs.begin() + blobs.size() / 2);
    const std::vector<std::uint64_t> head_keys = manifest_keys(head);
    const std::set<std::uint64_t> replayed(head_keys.begin(),
                                           head_keys.end());
    std::set<std::uint64_t> rest;
    for (const std::uint64_t key : manifest_keys(blobs)) {
        if (!replayed.contains(key)) {
            rest.insert(key);
        }
    }
    ASSERT_FALSE(rest.empty());

    for (const bool warm : {false, true}) {
        const std::string context = warm ? "warm" : "cold";
        const ScopedTempDir store("firmup-streamed-resume-store");
        SearchOptions options;
        options.index_cache_dir = store.path();
        if (warm) {
            Driver primer(options);
            hunt_manifest(primer, cves, blobs, 0, 1, 2);
        }
        SearchOptions journaled;
        journaled.journal_path = dir.path() + "/" + context + ".fwsj";
        {
            Driver head_hunt(journaled);
            hunt_manifest(head_hunt, cves, head, 0, 1, 2);
        }
        options.journal_path = journaled.journal_path;
        options.resume = true;
        const StreamedRun run = streamed_hunt(options, cves, blobs, 2);
        EXPECT_GT(run.health.resumed_targets, 0u) << context;
        EXPECT_EQ(run.health.cache_hits + run.health.cache_misses,
                  rest.size())
            << context;
        EXPECT_EQ(run.health.cache_misses, warm ? 0u : rest.size())
            << context;
        EXPECT_EQ(run.metrics.counter("lift.executables"),
                  run.health.cache_misses + run.health.query_cache_misses)
            << context;
        EXPECT_EQ(run.metrics.gauges.at("scan.text_bytes_held"), 0)
            << context;
    }
}

TEST(StreamedHunt, ReleasedExecutableNeverReachesKeyingOrLifter)
{
    // Once its index exists a scan releases an executable's bytes; a
    // released executable that reached content_key or the lifter would
    // key or index empty bytes, so both assert instead.
    firmware::CorpusOptions copt;
    copt.num_devices = 1;
    const firmware::Corpus corpus = firmware::build_corpus(copt);
    loader::Executable exe = corpus.images.front().executables.front();
    ASSERT_FALSE(exe.text.empty());
    const std::string name = exe.name;
    exe.release();
    EXPECT_TRUE(exe.released);
    EXPECT_TRUE(exe.text.empty());
    EXPECT_TRUE(exe.data.empty());
    EXPECT_TRUE(exe.symbols.empty());
    EXPECT_EQ(exe.name, name);
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(content_key(exe), "keying released executable");
    EXPECT_DEATH((void)lifter::lift_executable(exe),
                 "lifting released executable");
}

}  // namespace
}  // namespace firmup::eval
