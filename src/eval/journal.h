/**
 * @file
 * Durable scan journal — crash-safe resumable corpus scans.
 *
 * A corpus scan over thousands of firmware images can run for hours; a
 * crash, OOM-kill or operator SIGTERM must not forfeit the work already
 * done. The journal is an append-only write-ahead log of per-target
 * results keyed by content key (eval::content_key): each target's
 * outcome is appended — checksummed — in a group commit of up to 64
 * records, and a rerun with `--resume` replays the journal, skips
 * every already-scanned content key, and merges the replayed outcomes
 * with the fresh ones so the final findings and ScanHealth are
 * bit-identical to an uninterrupted scan (the determinism tests are
 * the bar).
 *
 * FWSJ v2 on-disk format (all integers little-endian):
 *
 *   header   magic "FWSJ"(4) | version u16 | layout_hash u64 |
 *            fingerprint u64 | fnv1a64 of the preceding 22 bytes (u64)
 *   record*  payload_len u32 | fnv1a64(payload) u64 | payload bytes
 *
 * The fingerprint binds a journal to one (scan label, deterministic
 * option knobs) pair so a journal written for one CVE or one threshold
 * configuration cannot silently poison a different scan. Since v2 each
 * record additionally carries the fingerprint of the *query* it
 * answers, so a batched multi-CVE hunt journals one record per
 * (query, target) pair and a resume skips exactly the completed pairs
 * — not whole targets — mid-batch. Torn or corrupted tails are NOT
 * fatal: parsing stops at the first bad record and the valid prefix
 * wins — exactly the FWIX persistence philosophy (a cache/journal
 * problem must never be worse than not having one).
 */
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "support/bytes.h"
#include "support/error.h"

namespace firmup::eval {

/**
 * One search outcome against one target executable. Defined here (not
 * driver.h) because it is the journal's record payload; the driver
 * includes this header.
 */
struct SearchOutcome
{
    bool detected = false;
    std::uint64_t matched_entry = 0;
    int sim = 0;
    int steps = 0;
    /** True when the game expired a budget before reaching an answer. */
    bool unresolved = false;
    /**
     * Unresolved specifically via the wall-clock watchdog — the one
     * load-dependent (hence retryable) unresolved cause.
     */
    bool deadline_expired = false;
    /**
     * The outcome was cut short by cooperative cancellation. Cancelled
     * outcomes are never journaled: they carry no answer, and replaying
     * them would make a resumed scan diverge from a clean one.
     */
    bool cancelled = false;
    /** Watchdog retries this outcome consumed before settling. */
    int retries = 0;
    /** Per-stage wall-clock of this outcome, in seconds. */
    double game_seconds = 0.0;
    double confirm_seconds = 0.0;
    /** Per-stage thread-CPU time of this outcome, in seconds. */
    double game_cpu_seconds = 0.0;
    double confirm_cpu_seconds = 0.0;
};

/**
 * One journal record: either a completed per-target outcome or a
 * quarantine decision. Both are replayed on resume — quarantines too,
 * so a resumed scan re-skips poisoned executables without re-lifting
 * them and reproduces the same health histogram.
 */
struct JournalEntry
{
    std::uint64_t content_key = 0;
    /**
     * Fingerprint of the query this record answers (see the driver's
     * query fingerprinting): a batched hunt writes one outcome record
     * per (content key, query) pair, and resume replays exactly that
     * granularity. Quarantine records carry 0 — a poisoned executable
     * is poisoned for every query.
     */
    std::uint64_t query_fp = 0;
    /** True = quarantine record; false = outcome record. */
    bool quarantined = false;
    /** Outcome records: did the target index (games were played)? */
    bool indexed = false;
    SearchOutcome outcome;  ///< valid when !quarantined
    ErrorCode code = ErrorCode::Unknown;  ///< valid when quarantined
    std::string exe_name;   ///< quarantine diagnostics
    std::string message;    ///< quarantine diagnostics
};

/** What parsing a journal file yielded. */
struct JournalLoad
{
    std::uint64_t fingerprint = 0;
    /** Valid-prefix records, in append order (last record wins per key). */
    std::vector<JournalEntry> entries;
    /** Bytes of the valid prefix, including the header. */
    std::size_t valid_bytes = 0;
    /** Bytes discarded past the valid prefix (torn/corrupt tail). */
    std::uint64_t truncated_bytes = 0;
};

/**
 * Descriptor hash of the FWSJ v2 byte layout; bump the descriptor string
 * in journal.cc whenever any field changes width, order or meaning so
 * old journals read as StaleFormat instead of misparsing.
 */
std::uint64_t journal_layout_hash();

/**
 * Error message of the one StaleFormat cause callers must tell apart:
 * a structurally sound, current-format journal whose fingerprint binds
 * it to a *different* scan configuration. The driver refuses to resume
 * across that boundary (mixing findings from two configurations) while
 * every other journal failure — corruption, stale layout — merely
 * degrades to a journal-less scan.
 */
inline constexpr const char *kJournalFingerprintMismatch =
    "journal: fingerprint mismatch (different scan configuration or "
    "label)";

/**
 * The append-only scan journal. Move-only; append() is thread-safe and
 * durable. Hunt workers commit in groups — one game-grid chunk of at
 * most 64 (query, target) records — and each group is written with one
 * fwrite and one fsync before append() returns. A crash can therefore
 * tear at most the groups being written: the parser keeps every whole
 * record before the tear, and resume replays per record, so a torn
 * group costs only the pairs past the tear.
 */
class ScanJournal
{
  public:
    ScanJournal() = default;
    ~ScanJournal() = default;
    ScanJournal(ScanJournal &&) = default;
    ScanJournal &operator=(ScanJournal &&) = default;
    ScanJournal(const ScanJournal &) = delete;
    ScanJournal &operator=(const ScanJournal &) = delete;

    /**
     * Write a whole journal at @p path — the header for @p fingerprint,
     * then one record per entry — as one buffer through publish_file
     * (support/fsio.h): a temp file, one fsync, a rename into place and
     * a directory fsync, so a crash leaves the previous file (or none)
     * or the complete new one, under a name that survives it. The records are not appends:
     * they count in neither appended() nor `journal.appends`. Returns
     * the bytes written.
     */
    static Result<std::size_t> write_file(
        const std::string &path, std::uint64_t fingerprint,
        std::span<const JournalEntry> entries);

    /**
     * Create a fresh, empty journal at @p path (replacing any existing
     * file) through write_file, and open it for appending.
     */
    static Result<ScanJournal> create(const std::string &path,
                                      std::uint64_t fingerprint);

    /**
     * Open @p path for resume: parse it (valid prefix wins), truncate
     * the file back to the valid prefix, reopen for appending, and
     * return the replayable entries through @p load. A missing file
     * degrades to create(). Fingerprint or layout mismatch is an error
     * (StaleFormat) — resuming someone else's journal must be loud.
     */
    static Result<ScanJournal> open_resume(const std::string &path,
                                           std::uint64_t fingerprint,
                                           JournalLoad *load);

    /**
     * Parse journal @p bytes. Never throws on corruption: a bad header
     * is MalformedContainer / StaleFormat; a bad record merely ends the
     * valid prefix (reported via JournalLoad::truncated_bytes).
     * @p expected_fingerprint 0 skips the fingerprint check.
     */
    static Result<JournalLoad> parse(const std::uint8_t *bytes,
                                     std::size_t size,
                                     std::uint64_t expected_fingerprint);

    /** Encode the FWSJ header for @p fingerprint (testing seam). */
    static ByteBuffer encode_header(std::uint64_t fingerprint);

    /** Encode one framed record (testing seam). */
    static ByteBuffer encode_record(const JournalEntry &entry);

    /**
     * Commit @p entries as one group: encode them, then under the mutex
     * write them with one fwrite and make them durable with one fsync.
     * Thread-safe. Each record counts in appended() and
     * `journal.appends`; the group counts once in `journal.commits` and
     * leaves one `journal_commit` span. An empty group writes nothing.
     * Returns false on write failure — the scan keeps going; a journal
     * problem costs resume coverage, never the scan itself.
     */
    bool append(std::span<const JournalEntry> entries);

    /** Append one record: the one-record group. */
    bool append(const JournalEntry &entry) { return append({&entry, 1}); }

    /** Records appended through this handle (not replayed ones). */
    std::size_t appended() const;

    /** Busy time inside commits (write + fsync), summed over threads. */
    struct CommitTime
    {
        double seconds = 0.0;      ///< wall clock
        double cpu_seconds = 0.0;  ///< thread CPU
    };

    /** The commit time accumulated since the last call; resets it. */
    CommitTime take_commit_time();

    bool is_open() const { return file_ != nullptr; }
    const std::string &path() const { return path_; }

  private:
    struct FileCloser
    {
        void operator()(std::FILE *f) const { std::fclose(f); }
    };

    std::string path_;
    std::unique_ptr<std::FILE, FileCloser> file_;
    /** Behind unique_ptr: std::mutex is immovable, ScanJournal is not. */
    std::unique_ptr<std::mutex> mutex_;
    std::size_t appended_ = 0;
    CommitTime commit_time_;
};

}  // namespace firmup::eval
