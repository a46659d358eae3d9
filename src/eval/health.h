/**
 * @file
 * ScanHealth — coverage accounting for fault-tolerant corpus scans.
 *
 * FirmUp's accuracy numbers are meaningless without knowing how much of
 * the corpus was actually analyzed: real vendor blobs are routinely
 * truncated or repacked, and a scan that silently drops members
 * over-reports precision. Every Driver carries a ScanHealth that records
 * what was seen, what lifted, what was quarantined and why (an ErrorCode
 * histogram), so experiments print coverage alongside accuracy.
 */
#pragma once

#include <array>
#include <string>
#include <vector>

#include "firmware/image.h"
#include "support/error.h"

namespace firmup::eval {

/** One quarantined executable: who, and why. */
struct QuarantineEntry
{
    std::string exe_name;
    ErrorCode code = ErrorCode::Unknown;
    std::string message;
};

/** Per-image / per-corpus degradation record. */
struct ScanHealth
{
    std::size_t images_seen = 0;       ///< blobs handed to the unpacker
    std::size_t images_rejected = 0;   ///< blobs the unpacker refused
    std::size_t members_damaged = 0;   ///< members the unpacker skipped
    std::size_t executables_seen = 0;  ///< distinct executables lifted
    std::size_t lifted_ok = 0;
    std::size_t quarantined = 0;       ///< lift/index failures isolated
    std::size_t games_played = 0;      ///< outcomes folded into health
    std::size_t games_unresolved = 0;  ///< budget-exhausted games

    /**
     * Crash-safety / shutdown accounting (zero on an uninterrupted,
     * journal-less scan, so existing goldens are unaffected):
     *
     *  - `cancelled` marks a scan ended by cooperative cancellation
     *    (SIGINT/SIGTERM or a test hook) — its findings are a valid
     *    partial prefix, not a full answer;
     *  - `targets_cancelled` counts targets abandoned by that shutdown
     *    (not scanned, not journaled — a resume redoes them);
     *  - `resumed_targets` counts targets whose outcome was replayed
     *    from a scan journal instead of being recomputed;
     *  - `retries` counts the replays of watchdog-expired games (the
     *    only failure a scan retries), whether the replay produced an
     *    answer or exhausted the retry budget;
     *  - `watchdog_expired` counts games whose per-target wall-clock
     *    budget expired (a subset of games_unresolved);
     *  - `journal_truncated_bytes` is the torn/corrupt journal tail
     *    discarded at resume (0 = the journal was clean).
     */
    bool cancelled = false;
    std::size_t targets_cancelled = 0;
    std::size_t resumed_targets = 0;
    std::size_t retries = 0;
    std::size_t watchdog_expired = 0;
    std::uint64_t journal_truncated_bytes = 0;

    /**
     * Persistent index-cache accounting (zero unless the driver runs
     * with an --index-cache store): hits are executables whose index
     * was loaded from disk instead of lifted; misses had to be
     * lifted (absent, corrupt or stale entries all count as misses —
     * corruption degrades, it never fails the scan).
     */
    std::size_t cache_hits = 0;
    std::size_t cache_misses = 0;
    std::uint64_t cache_write_bytes = 0;  ///< FWIX bytes published
    double cache_load_seconds = 0.0;      ///< summed load wall clock

    /**
     * cache_load_seconds split by stage (sim::IndexCacheStore::
     * LoadStats): open (file open + mmap, or read), checksum (the
     * container guards over the payload) and parse (open_index_view:
     * O(procs) materialization plus the hash-order checks).
     * cache_mmap_loads counts loads served from a mapped file.
     */
    double cache_open_seconds = 0.0;
    double cache_checksum_seconds = 0.0;
    double cache_parse_seconds = 0.0;
    std::size_t cache_mmap_loads = 0;

    /**
     * Query-recipe store accounting, kept apart from the target-index
     * counters above: a recipe hit serves a compiled query's index
     * without running codegen, so it has no lifted executable
     * behind it (folding it into cache_hits would break the
     * cache_hits <= lifted_ok invariant sane() checks).
     */
    std::size_t query_cache_hits = 0;
    std::size_t query_cache_misses = 0;

    /**
     * Canon memo accounting (see strand/memo.h). No scan writes these:
     * every command canonicalizes each block directly, so they read 0.
     * They stay only because perfbench/harness.cc still reads them (its
     * `strand.canon_memo.hit_ratio`); they go with that harness's
     * serial replay (ROADMAP item 8).
     */
    std::uint64_t canon_memo_hits = 0;
    std::uint64_t canon_memo_misses = 0;

    /**
     * A `--resume` was refused because the journal on disk was written
     * by a different scan configuration (fingerprint mismatch — e.g.
     * another CVE list or threshold set). Unlike a corrupt
     * journal, which merely degrades to a journal-less scan, a
     * fingerprint mismatch means replaying would silently mix findings
     * from two different configurations, so the driver refuses to scan
     * and callers must surface the error.
     */
    bool resume_rejected = false;
    std::string resume_reject_reason;

    /**
     * Per-stage time totals in seconds, wall and CPU recorded
     * separately (and labeled in render_health) so a parallel scan's
     * numbers are unambiguous:
     *
     *  - `load_seconds`/`load_cpu_seconds` are the elapsed wall clock
     *    and process CPU of the scan front end (DESIGN §14.1): blob
     *    read, unpack, target keying and the target-index store loads,
     *    with the manifest-order merge behind them.
     *  - `index_seconds` is the *elapsed* wall clock of the (parallel)
     *    lift+index phase; `index_cpu_seconds` is the process-CPU time
     *    the phase consumed across all workers.
     *  - `query_seconds`/`query_cpu_seconds` are the same pair for the
     *    (parallel) query phase: recipe-store probes, then generate →
     *    compile_to_mir → backend+link → lift → index of every query
     *    the store could not serve.
     *  - `game_seconds`/`confirm_seconds` are per-outcome wall clock
     *    *summed over outcomes* — on a parallel scan that is busy time
     *    across workers, not elapsed time. The matching
     *    `*_cpu_seconds` sums are per-outcome thread-CPU time.
     *  - `match_wall_seconds` is the elapsed wall clock of the
     *    game+confirm fan-out phases of search_corpus (0 for purely
     *    serial search()/match() callers, where `game_seconds` already
     *    is elapsed time).
     *  - `journal_seconds`/`journal_cpu_seconds` are busy wall and
     *    thread-CPU time inside scan-journal group commits (write +
     *    fsync), summed over threads; zero without a journal.
     */
    double load_seconds = 0.0;
    double load_cpu_seconds = 0.0;
    double index_seconds = 0.0;
    double index_cpu_seconds = 0.0;
    double query_seconds = 0.0;
    double query_cpu_seconds = 0.0;
    double game_seconds = 0.0;
    double game_cpu_seconds = 0.0;
    double confirm_seconds = 0.0;
    double confirm_cpu_seconds = 0.0;
    double match_wall_seconds = 0.0;
    double journal_seconds = 0.0;
    double journal_cpu_seconds = 0.0;

    /** errors[code] = failures of that class, across all stages. */
    std::array<std::size_t, kErrorCodeCount> errors{};

    /** First quarantined executables (capped at kMaxQuarantineLog). */
    std::vector<QuarantineEntry> quarantine_log;
    static constexpr std::size_t kMaxQuarantineLog = 64;

    /** Count one failure of class @p code in the histogram. */
    void note_error(ErrorCode code);

    /** Record a successfully unpacked blob (damage counters merged). */
    void note_unpack(const firmware::UnpackResult &unpacked);

    /** Record a blob the unpacker rejected outright. */
    void note_unpack_failure(ErrorCode code);

    /** Record one quarantined executable. */
    void note_quarantine(const std::string &exe_name, ErrorCode code,
                         const std::string &message);

    /** Fold another record into this one (corpus-level aggregation). */
    void merge(const ScanHealth &other);

    /**
     * Internal consistency: every lifted executable is either healthy or
     * quarantined, and the histogram covers at least the quarantined +
     * damaged counts. The fault-injection harness asserts this after
     * every mutated image.
     */
    bool sane() const;

    /** One-line coverage summary for scan footers. */
    std::string summary() const;
};

/**
 * Per-shard slice of a fleet scan (eval/shard.h): the coordinator
 * keeps one per worker shard — discrete counters distilled from that
 * shard's frames plus supervision events only the coordinator can see
 * (respawns, wall clock). The fleet-wide ScanHealth is the shard
 * healths merged in shard order; these slices are what
 * render_shard_breakdown (eval/report.h) prints under it so a stalled
 * or churning shard is visible instead of averaged away.
 */
struct ShardSlice
{
    std::size_t shard = 0;
    std::size_t blobs = 0;     ///< manifest entries assigned here
    std::size_t findings = 0;
    std::size_t searched = 0;  ///< (query, target) records newly journaled
    std::size_t replayed = 0;  ///< pairs served from the seeded journal
    std::size_t frames = 0;    ///< protocol frames received
    std::size_t respawns = 0;  ///< reassignments after death/stall
    double seconds = 0.0;      ///< shard wall clock (spawn to done)
};

}  // namespace firmup::eval
