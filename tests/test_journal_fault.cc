/**
 * @file
 * Hostile-input and crash-recovery coverage for the FWSJ scan journal.
 *
 * The journal is read back by `--resume` from whatever bytes a crashed,
 * killed or disk-faulted scan left behind, so every corruption must
 * resolve one of two ways: the valid prefix is recovered (records up to
 * the first damaged byte replay, the tail is discarded) or the file is
 * rejected with a clean ErrorCode. Never a crash, and never a silently
 * wrong record. The second half is the crash-recovery property itself:
 * a scan cancelled mid-flight and resumed must produce findings and
 * coverage accounting bit-identical to an uninterrupted scan — across
 * worker-thread counts, and even when the journal it resumes from has
 * been mutilated.
 */
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "eval/driver.h"
#include "eval/journal.h"
#include "firmware/catalog.h"
#include "firmware/corpus.h"
#include "support/bytes.h"
#include "support/cancel.h"
#include "support/faultinject.h"
#include "support/fsio.h"
#include "support/rng.h"
#include "support/trace.h"

namespace firmup::eval {
namespace {

namespace fs = std::filesystem;

/** A fresh per-test journal path under the gtest temp root. */
std::string
fresh_journal_path(const std::string &tag)
{
    const fs::path path =
        fs::path(testing::TempDir()) / ("firmup-journal-" + tag + ".fwsj");
    fs::remove(path);
    return path.string();
}

constexpr std::uint64_t kFingerprint = 0x5ca9f1e1d;

/** A journal blob with a representative record mix. */
std::vector<JournalEntry>
sample_entries()
{
    std::vector<JournalEntry> entries;
    for (int i = 0; i < 6; ++i) {
        JournalEntry entry;
        entry.content_key = 0x1000 + static_cast<std::uint64_t>(i);
        entry.indexed = i % 3 != 0;
        entry.outcome.detected = i % 2 == 0;
        entry.outcome.matched_entry = 0xabc0 + static_cast<std::uint64_t>(i);
        entry.outcome.sim = 5 + i;
        entry.outcome.steps = 11 * (i + 1);
        entry.outcome.unresolved = i == 4;
        entry.outcome.deadline_expired = i == 4;
        entry.outcome.retries = i == 4 ? 2 : 0;
        entry.outcome.game_seconds = 0.25 * i;
        entry.outcome.confirm_seconds = 0.125 * i;
        entries.push_back(entry);
    }
    JournalEntry quarantine;
    quarantine.content_key = 0x2000;
    quarantine.quarantined = true;
    quarantine.code = ErrorCode::LiftBailout;
    quarantine.exe_name = "busybox";
    quarantine.message = "no liftable procedure in 96 text bytes";
    entries.push_back(quarantine);
    return entries;
}

ByteBuffer
sample_journal_bytes()
{
    ByteBuffer bytes = ScanJournal::encode_header(kFingerprint);
    for (const JournalEntry &entry : sample_entries()) {
        const ByteBuffer record = ScanJournal::encode_record(entry);
        bytes.insert(bytes.end(), record.begin(), record.end());
    }
    return bytes;
}

void
expect_same_entry(const JournalEntry &a, const JournalEntry &b)
{
    EXPECT_EQ(a.content_key, b.content_key);
    EXPECT_EQ(a.quarantined, b.quarantined);
    EXPECT_EQ(a.indexed, b.indexed);
    EXPECT_EQ(a.code, b.code);
    EXPECT_EQ(a.exe_name, b.exe_name);
    EXPECT_EQ(a.message, b.message);
    EXPECT_EQ(a.outcome.detected, b.outcome.detected);
    EXPECT_EQ(a.outcome.matched_entry, b.outcome.matched_entry);
    EXPECT_EQ(a.outcome.sim, b.outcome.sim);
    EXPECT_EQ(a.outcome.steps, b.outcome.steps);
    EXPECT_EQ(a.outcome.unresolved, b.outcome.unresolved);
    EXPECT_EQ(a.outcome.deadline_expired, b.outcome.deadline_expired);
    EXPECT_EQ(a.outcome.retries, b.outcome.retries);
    EXPECT_EQ(a.outcome.game_seconds, b.outcome.game_seconds);
    EXPECT_EQ(a.outcome.confirm_seconds, b.outcome.confirm_seconds);
}

/** @p got must be a (possibly complete) prefix of the sample entries. */
void
expect_entry_prefix(const std::vector<JournalEntry> &got)
{
    const std::vector<JournalEntry> want = sample_entries();
    ASSERT_LE(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        expect_same_entry(want[i], got[i]);
    }
}

TEST(JournalFault, RoundTripRecoversEveryRecord)
{
    const ByteBuffer bytes = sample_journal_bytes();
    auto parsed = ScanJournal::parse(bytes.data(), bytes.size(),
                                     kFingerprint);
    ASSERT_TRUE(parsed.ok()) << parsed.error_message();
    EXPECT_EQ(parsed.value().fingerprint, kFingerprint);
    EXPECT_EQ(parsed.value().valid_bytes, bytes.size());
    EXPECT_EQ(parsed.value().truncated_bytes, 0u);
    ASSERT_EQ(parsed.value().entries.size(), sample_entries().size());
    expect_entry_prefix(parsed.value().entries);
}

TEST(JournalFault, EveryMutantResumesFromValidPrefixOrFailsCleanly)
{
    const ByteBuffer bytes = sample_journal_bytes();
    fault::InjectOptions options;
    options.magic = {'F', 'W', 'S', 'J'};
    const fault::Mutation kinds[] = {
        fault::Mutation::Truncate,
        fault::Mutation::BitFlip,
        fault::Mutation::SpliceGarbage,
        fault::Mutation::DuplicateMagic,
    };
    int degraded = 0;
    for (const fault::Mutation kind : kinds) {
        for (std::uint64_t seed = 0; seed < 64; ++seed) {
            Rng rng(0x1095a1 ^ (seed * 0x9e3779b97f4a7c15ull));
            const ByteBuffer mutant =
                fault::apply_mutation(bytes, kind, rng, options);
            auto parsed = ScanJournal::parse(mutant.data(), mutant.size(),
                                             kFingerprint);
            if (mutant == bytes) {
                // No-op mutation: the journal must still fully replay.
                ASSERT_TRUE(parsed.ok()) << parsed.error_message();
                EXPECT_EQ(parsed.value().entries.size(),
                          sample_entries().size());
                continue;
            }
            if (!parsed.ok()) {
                // Header damage: a clean taxonomy error, nothing else.
                EXPECT_FALSE(parsed.error_message().empty());
                continue;
            }
            // Body damage: the valid prefix wins. Every recovered record
            // is bit-identical to what was appended; nothing fabricated,
            // nothing reordered.
            expect_entry_prefix(parsed.value().entries);
            if (parsed.value().entries.size() <
                sample_entries().size()) {
                // A truncate landing exactly on a record boundary loses
                // records with truncated_bytes == 0; anything else
                // reports the discarded tail. Accounting always covers
                // the whole mutant either way.
                ++degraded;
                EXPECT_EQ(parsed.value().valid_bytes +
                              parsed.value().truncated_bytes,
                          mutant.size());
            }
        }
    }
    // The sweep must have actually exercised prefix recovery.
    EXPECT_GT(degraded, 40);
}

TEST(JournalFault, EveryTruncationPrefixRecoversCleanly)
{
    // A kill -9 can tear the file at any byte: sweep every prefix
    // length and demand either a clean header rejection (shorter than
    // the header) or a valid-prefix recovery with exact accounting.
    const ByteBuffer bytes = sample_journal_bytes();
    for (std::size_t len = 0; len <= bytes.size(); ++len) {
        auto parsed = ScanJournal::parse(bytes.data(), len, kFingerprint);
        if (!parsed.ok()) {
            continue;  // torn header
        }
        expect_entry_prefix(parsed.value().entries);
        EXPECT_LE(parsed.value().valid_bytes, len) << "prefix " << len;
        EXPECT_EQ(parsed.value().valid_bytes +
                      parsed.value().truncated_bytes,
                  len)
            << "prefix " << len;
    }
}

TEST(JournalFault, HeaderChecksFailWithDistinctCodes)
{
    // Empty / bad magic.
    EXPECT_FALSE(ScanJournal::parse(nullptr, 0, 0).ok());
    ByteBuffer garbage(64, 0xa5);
    auto bad_magic = ScanJournal::parse(garbage.data(), garbage.size(), 0);
    ASSERT_FALSE(bad_magic.ok());
    EXPECT_EQ(bad_magic.error_code(), ErrorCode::MalformedContainer);

    // Stale version.
    ByteBuffer stale = {'F', 'W', 'S', 'J'};
    append_u16_le(stale, 9);
    for (int i = 0; i < 32; ++i) {
        stale.push_back(0);
    }
    auto stale_parsed = ScanJournal::parse(stale.data(), stale.size(), 0);
    ASSERT_FALSE(stale_parsed.ok());
    EXPECT_EQ(stale_parsed.error_code(), ErrorCode::StaleFormat);

    // Layout-hash corruption is caught by the header checksum first —
    // either way the journal is rejected before any record is trusted.
    ByteBuffer bytes = sample_journal_bytes();
    bytes[6] ^= 0xff;
    EXPECT_FALSE(ScanJournal::parse(bytes.data(), bytes.size(), 0).ok());

    // Fingerprint mismatch: a journal for a different scan label or
    // option set must be loudly stale, not silently replayed.
    const ByteBuffer good = sample_journal_bytes();
    auto mismatch =
        ScanJournal::parse(good.data(), good.size(), kFingerprint + 1);
    ASSERT_FALSE(mismatch.ok());
    EXPECT_EQ(mismatch.error_code(), ErrorCode::StaleFormat);
    // ...and 0 means "don't check" (inspection tools).
    EXPECT_TRUE(ScanJournal::parse(good.data(), good.size(), 0).ok());
}

TEST(JournalFault, CreateAppendResumeRoundTripsOnDisk)
{
    const std::string path = fresh_journal_path("roundtrip");
    {
        auto journal = ScanJournal::create(path, kFingerprint);
        ASSERT_TRUE(journal.ok()) << journal.error_message();
        for (const JournalEntry &entry : sample_entries()) {
            EXPECT_TRUE(journal.value().append(entry));
        }
        EXPECT_EQ(journal.value().appended(), sample_entries().size());
    }
    JournalLoad load;
    auto resumed = ScanJournal::open_resume(path, kFingerprint, &load);
    ASSERT_TRUE(resumed.ok()) << resumed.error_message();
    EXPECT_EQ(load.truncated_bytes, 0u);
    ASSERT_EQ(load.entries.size(), sample_entries().size());
    expect_entry_prefix(load.entries);

    // Appending after a resume extends the recovered prefix.
    JournalEntry extra;
    extra.content_key = 0x3000;
    extra.indexed = true;
    extra.outcome.detected = true;
    extra.outcome.sim = 9;
    EXPECT_TRUE(resumed.value().append(extra));
    JournalLoad reload;
    auto reopened = ScanJournal::open_resume(path, kFingerprint, &reload);
    ASSERT_TRUE(reopened.ok()) << reopened.error_message();
    ASSERT_EQ(reload.entries.size(), sample_entries().size() + 1);
    expect_same_entry(extra, reload.entries.back());
}

TEST(JournalFault, WholeFileWriteEqualsCreateThenAppend)
{
    // write_file is the one-buffer, one-fsync form of create() followed
    // by one append() per entry: same bytes on disk, and none of its
    // records counts as an append.
    const std::string appended = fresh_journal_path("appended");
    {
        auto journal = ScanJournal::create(appended, kFingerprint);
        ASSERT_TRUE(journal.ok()) << journal.error_message();
        for (const JournalEntry &entry : sample_entries()) {
            ASSERT_TRUE(journal.value().append(entry));
        }
    }
    // In a directory of its own, so that any temp file would show.
    const ScopedTempDir whole_dir("firmup-journal-whole");
    const std::string whole = whole_dir.path() + "/whole.fwsj";
    trace::MetricsRegistry::global().reset();
    trace::set_level(trace::Level::Metrics);
    const Result<std::size_t> written =
        ScanJournal::write_file(whole, kFingerprint, sample_entries());
    const std::uint64_t appends =
        trace::MetricsRegistry::global().snapshot().counter(
            "journal.appends");
    trace::set_level(trace::Level::Off);
    trace::MetricsRegistry::global().reset();
    ASSERT_TRUE(written.ok()) << written.error_message();
    EXPECT_EQ(appends, 0u);
    const Result<ByteBuffer> want = read_file_bytes(appended);
    const Result<ByteBuffer> got = read_file_bytes(whole);
    ASSERT_TRUE(want.ok() && got.ok());
    EXPECT_EQ(got.value(), want.value());
    EXPECT_EQ(written.value(), want.value().size());
    std::vector<std::string> left;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(whole_dir.path())) {
        left.push_back(entry.path().string());
    }
    EXPECT_EQ(left, std::vector<std::string>{whole});

    // With no entries it is the bare header, the file create() leaves.
    const std::string empty = fresh_journal_path("empty");
    ASSERT_TRUE(ScanJournal::write_file(empty, kFingerprint, {}).ok());
    const Result<ByteBuffer> header = read_file_bytes(empty);
    ASSERT_TRUE(header.ok());
    EXPECT_EQ(header.value(), ScanJournal::encode_header(kFingerprint));
}

TEST(JournalFault, GroupAppendEqualsPerRecordAppends)
{
    // A group commit is one write and one fsync for many records: the
    // bytes on disk are those of create() followed by one append() per
    // record, every record counts as an append, and the group counts as
    // one commit. An empty group writes and counts nothing.
    const std::vector<JournalEntry> entries = sample_entries();
    const std::string per_record = fresh_journal_path("per-record");
    {
        auto journal = ScanJournal::create(per_record, kFingerprint);
        ASSERT_TRUE(journal.ok()) << journal.error_message();
        for (const JournalEntry &entry : entries) {
            ASSERT_TRUE(journal.value().append(entry));
        }
    }
    const std::string grouped = fresh_journal_path("grouped");
    auto journal = ScanJournal::create(grouped, kFingerprint);
    ASSERT_TRUE(journal.ok()) << journal.error_message();
    trace::MetricsRegistry::global().reset();
    trace::set_level(trace::Level::Metrics);
    const bool wrote = journal.value().append(entries);
    const bool empty = journal.value().append(std::span<const JournalEntry>());
    const trace::Snapshot metrics =
        trace::MetricsRegistry::global().snapshot();
    trace::set_level(trace::Level::Off);
    trace::MetricsRegistry::global().reset();
    EXPECT_TRUE(wrote);
    EXPECT_TRUE(empty);
    EXPECT_EQ(journal.value().appended(), entries.size());
    EXPECT_EQ(metrics.counter("journal.appends"), entries.size());
    EXPECT_EQ(metrics.counter("journal.commits"), 1u);
    const ScanJournal::CommitTime first = journal.value().take_commit_time();
    EXPECT_GT(first.seconds, 0.0);
    EXPECT_EQ(journal.value().take_commit_time().seconds, 0.0);

    const Result<ByteBuffer> want = read_file_bytes(per_record);
    const Result<ByteBuffer> got = read_file_bytes(grouped);
    ASSERT_TRUE(want.ok() && got.ok());
    EXPECT_EQ(got.value(), want.value());
}

TEST(JournalFault, TornTailIsTruncatedOnResume)
{
    const std::string path = fresh_journal_path("torn");
    const ByteBuffer bytes = sample_journal_bytes();
    // Simulate a crash mid-append: the last record is half-written.
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size() - 7));
    }
    JournalLoad load;
    auto resumed = ScanJournal::open_resume(path, kFingerprint, &load);
    ASSERT_TRUE(resumed.ok()) << resumed.error_message();
    EXPECT_GT(load.truncated_bytes, 0u);
    EXPECT_EQ(load.entries.size(), sample_entries().size() - 1);
    expect_entry_prefix(load.entries);
    // The tail was dropped on disk too: the file is exactly the valid
    // prefix again.
    EXPECT_EQ(fs::file_size(path), load.valid_bytes);
}

// ---------------------------------------------------------------------
// Crash-recovery property: kill mid-scan, resume, findings identical.
// ---------------------------------------------------------------------

/** Findings + discrete-health fingerprint of one corpus scan. */
struct ScanRun
{
    std::vector<CorpusOutcome> outcomes;
    ScanHealth health;
};

void
expect_same_findings(const ScanRun &fresh, const ScanRun &resumed)
{
    ASSERT_EQ(resumed.outcomes.size(), fresh.outcomes.size());
    for (std::size_t i = 0; i < fresh.outcomes.size(); ++i) {
        const SearchOutcome &a = fresh.outcomes[i].outcome;
        const SearchOutcome &b = resumed.outcomes[i].outcome;
        EXPECT_EQ(resumed.outcomes[i].indexed, fresh.outcomes[i].indexed)
            << "target " << i;
        EXPECT_EQ(b.detected, a.detected) << "target " << i;
        EXPECT_EQ(b.matched_entry, a.matched_entry) << "target " << i;
        EXPECT_EQ(b.sim, a.sim) << "target " << i;
        EXPECT_EQ(b.steps, a.steps) << "target " << i;
        EXPECT_EQ(b.unresolved, a.unresolved) << "target " << i;
    }
    EXPECT_EQ(resumed.health.executables_seen,
              fresh.health.executables_seen);
    EXPECT_EQ(resumed.health.lifted_ok, fresh.health.lifted_ok);
    EXPECT_EQ(resumed.health.quarantined, fresh.health.quarantined);
    EXPECT_EQ(resumed.health.games_played, fresh.health.games_played);
    EXPECT_EQ(resumed.health.games_unresolved,
              fresh.health.games_unresolved);
    EXPECT_EQ(resumed.health.errors, fresh.health.errors);
    EXPECT_TRUE(resumed.health.sane());
}

ScanRun
scan(const firmware::CveRecord &cve,
     const std::vector<CorpusTarget> &targets, unsigned threads,
     const SearchOptions &options)
{
    ScanRun run;
    Driver driver(options);
    run.outcomes = driver.search_corpus(cve, targets, threads);
    run.health = driver.health();
    return run;
}

TEST(JournalResume, KilledScanResumesBitIdenticallyAcrossThreadCounts)
{
    firmware::CorpusOptions corpus_options;
    corpus_options.num_devices = 3;
    const firmware::Corpus corpus =
        firmware::build_corpus(corpus_options);
    const std::vector<CorpusTarget> targets = corpus_targets(corpus);
    ASSERT_GT(targets.size(), 4u);
    const firmware::CveRecord &cve = firmware::cve_database().front();

    // The uninterrupted reference scan (journal-less, single thread).
    const ScanRun fresh = scan(cve, targets, 1, SearchOptions{});
    EXPECT_GT(fresh.health.games_played, 0u);

    for (const unsigned threads : {1u, 2u, 8u}) {
        const std::string path = fresh_journal_path(
            "kill-" + std::to_string(threads));
        // Phase 1: scan until the journal has a few records, then take
        // the cooperative-cancellation path a SIGTERM would.
        CancelToken token;
        SearchOptions interrupted;
        interrupted.journal_path = path;
        interrupted.cancel = &token;
        interrupted.cancel_after_appends = 2;
        const ScanRun killed = scan(cve, targets, threads, interrupted);
        EXPECT_TRUE(token.requested());
        EXPECT_TRUE(killed.health.cancelled);
        EXPECT_TRUE(killed.health.sane());

        // Phase 2: resume. Replayed + freshly scanned targets must
        // merge into exactly the uninterrupted result.
        SearchOptions resume;
        resume.journal_path = path;
        resume.resume = true;
        const ScanRun resumed = scan(cve, targets, threads, resume);
        expect_same_findings(fresh, resumed);
        EXPECT_FALSE(resumed.health.cancelled);
        EXPECT_GT(resumed.health.resumed_targets, 0u)
            << "threads=" << threads;
    }
}

TEST(JournalResume, MutilatedJournalNeverChangesResumedFindings)
{
    // End-to-end fault sweep: whatever a disk fault did to the journal —
    // torn tail, flipped bit, spliced garbage, stale header — resuming
    // from it must still converge to the uninterrupted findings, because
    // a valid prefix replays and anything else degrades to a fresh scan.
    firmware::CorpusOptions corpus_options;
    corpus_options.num_devices = 1;
    const firmware::Corpus corpus =
        firmware::build_corpus(corpus_options);
    const std::vector<CorpusTarget> targets = corpus_targets(corpus);
    ASSERT_FALSE(targets.empty());
    const firmware::CveRecord &cve = firmware::cve_database().front();
    const ScanRun fresh = scan(cve, targets, 2, SearchOptions{});

    // Produce a complete journal for this scan once.
    const std::string origin = fresh_journal_path("mutate-origin");
    {
        SearchOptions journaled;
        journaled.journal_path = origin;
        const ScanRun recorded = scan(cve, targets, 2, journaled);
        expect_same_findings(fresh, recorded);
    }
    ByteBuffer bytes;
    {
        std::ifstream in(origin, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    ASSERT_FALSE(bytes.empty());

    fault::InjectOptions inject;
    inject.magic = {'F', 'W', 'S', 'J'};
    const fault::Mutation kinds[] = {
        fault::Mutation::Truncate,
        fault::Mutation::BitFlip,
        fault::Mutation::SpliceGarbage,
    };
    int resumed_with_replay = 0;
    for (const fault::Mutation kind : kinds) {
        for (std::uint64_t seed = 0; seed < 6; ++seed) {
            Rng rng(0xdead ^ (seed * 0x2545f4914f6cdd1dull) ^
                    static_cast<std::uint64_t>(kind));
            const ByteBuffer mutant =
                fault::apply_mutation(bytes, kind, rng, inject);
            const std::string path = fresh_journal_path(
                "mutate-" + std::to_string(static_cast<int>(kind)) +
                "-" + std::to_string(seed));
            {
                std::ofstream out(path,
                                  std::ios::binary | std::ios::trunc);
                out.write(reinterpret_cast<const char *>(mutant.data()),
                          static_cast<std::streamsize>(mutant.size()));
            }
            SearchOptions resume;
            resume.journal_path = path;
            resume.resume = true;
            ScanRun run;
            Driver driver(resume);
            run.outcomes = driver.search_corpus(cve, targets, 2);
            run.health = driver.health();
            // The one health field a damaged journal may legitimately
            // add is an open-failure mark; compare findings and the
            // coverage counters instead of the full histogram.
            ASSERT_EQ(run.outcomes.size(), fresh.outcomes.size());
            for (std::size_t i = 0; i < fresh.outcomes.size(); ++i) {
                EXPECT_EQ(run.outcomes[i].outcome.detected,
                          fresh.outcomes[i].outcome.detected);
                EXPECT_EQ(run.outcomes[i].outcome.matched_entry,
                          fresh.outcomes[i].outcome.matched_entry);
                EXPECT_EQ(run.outcomes[i].outcome.sim,
                          fresh.outcomes[i].outcome.sim);
                EXPECT_EQ(run.outcomes[i].outcome.steps,
                          fresh.outcomes[i].outcome.steps);
            }
            EXPECT_EQ(run.health.executables_seen,
                      fresh.health.executables_seen);
            EXPECT_EQ(run.health.lifted_ok, fresh.health.lifted_ok);
            EXPECT_EQ(run.health.quarantined, fresh.health.quarantined);
            EXPECT_EQ(run.health.games_played,
                      fresh.health.games_played);
            EXPECT_TRUE(run.health.sane());
            if (run.health.resumed_targets > 0) {
                ++resumed_with_replay;
            }
        }
    }
    // Most mutants keep a usable prefix; the sweep must have actually
    // exercised the replay path, not just 18 fresh scans.
    EXPECT_GT(resumed_with_replay, 3);
}

}  // namespace
}  // namespace firmup::eval
