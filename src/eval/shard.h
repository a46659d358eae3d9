/**
 * @file
 * Sharded fleet scans — coordinator/worker scale-out over one corpus.
 *
 * One process stops being enough exactly at FirmUp's target workload:
 * the same BusyBox-descended procedures recurring across thousands of
 * vendor images. `firmup shard-scan` shards a corpus manifest across N
 * worker *processes* (fork/exec of the same binary in a hidden
 * `--worker` mode), each running the existing search_corpus_batch
 * driver once against the shared FWIX store, with its own per-shard
 * FWSJ journal.
 *
 * Discipline, in order of importance:
 *
 *  1. **Shard-count invariance.** The shard function is a pure hash of
 *     the manifest blob path, findings carry their global manifest
 *     coordinates, and the coordinator merges in the fixed
 *     (cve, blob, executable) order — so the merged findings are
 *     bit-identical at any worker count, the same bar the in-process
 *     parallel_for fan-out already meets for thread counts.
 *  2. **Crash tolerance.** Workers stream length-prefixed NDJSON frames
 *     (support/subproc.h) — findings, quarantines, a ScanHealth
 *     summary, heartbeats — over their stdout pipe. A worker that dies
 *     (EOF without a clean `done`) or stalls past the heartbeat
 *     deadline is SIGKILLed and its shard respawned; the respawn
 *     resumes from the shard's journal, so completed (query, target)
 *     pairs replay instead of re-running.
 *  3. **Incremental rescans.** A persistent scan-state manifest
 *     (`state.fwsj` in the state dir) is an ordinary FWSJ journal bound
 *     to the scan fingerprint — (scan label, confirm mode, matching
 *     knobs). The coordinator seeds every per-shard journal
 *     from it before spawning, so unchanged executables (by content
 *     key) replay their prior outcomes with zero lift/canon/search
 *     work; after the fleet drains it rebuilds `state.fwsj` as the
 *     key-sorted last-wins union of every shard journal, which makes
 *     the state itself independent of the worker count that wrote it.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "eval/driver.h"
#include "eval/flags.h"
#include "eval/health.h"
#include "firmware/image.h"

namespace firmup::eval {

/**
 * Deterministic shard assignment of one manifest entry: a pure hash of
 * the blob path modulo the shard count. Stable under manifest
 * reordering and append (an image keeps its shard as the fleet grows,
 * so per-shard journals stay warm), and shared verbatim by the
 * coordinator and the `--shard-index/--shard-count` escape hatch on
 * plain `firmup search` — an external orchestrator slicing a manifest
 * by the same rule produces exactly the coordinator's shards.
 * @p shard_count 0 is treated as 1.
 */
std::size_t shard_of_path(std::string_view path, std::size_t shard_count);

/**
 * One shard's slice of a blob manifest, read and unpacked — the loader
 * `search` and a shard worker share. Unreadable blobs are reported on
 * stderr and counted in `health`; targets keep their GLOBAL manifest
 * index as image_index.
 */
struct Manifest
{
    std::vector<firmware::UnpackResult> blobs;
    std::vector<CorpusTarget> targets;  ///< in manifest order
    std::vector<std::size_t> ordinals;  ///< targets[t]'s index in its blob
    std::size_t slice_size = 0;         ///< manifest entries in the slice
    ScanHealth health;                  ///< unpack accounting
};

/** Load the entries of @p paths in shard @p shard_index of @p shard_count. */
Manifest load_manifest(const std::vector<std::string> &paths,
                       std::size_t shard_index = 0,
                       std::size_t shard_count = 1);

/** Parsed shard-protocol frame payload: flat JSON, string values. */
using FrameFields = std::map<std::string, std::string>;

/**
 * Encode a flat string->string map as one NDJSON object (sorted key
 * order — frames are part of the deterministic surface).
 */
std::string encode_frame(const FrameFields &fields);

/**
 * Parse one flat NDJSON object produced by encode_frame. Returns false
 * on malformed input (the coordinator treats that as a dead worker, not
 * a crash). Nested objects/arrays are not part of the protocol.
 */
bool decode_frame(std::string_view payload, FrameFields *fields);

/** Serialize every ScanHealth counter/timer into @p fields. */
void health_to_fields(const ScanHealth &health, FrameFields &fields);

/** Inverse of health_to_fields (unknown keys are ignored). */
void health_from_fields(const FrameFields &fields, ScanHealth &health);

/** One detection, addressed by its global manifest coordinates. */
struct FleetFinding
{
    std::size_t cve = 0;   ///< index into ShardScanOptions::cve_ids
    std::size_t blob = 0;  ///< global manifest index of the blob
    std::size_t ord = 0;   ///< executable ordinal within the blob
    std::string exe_name;
    std::uint64_t matched_entry = 0;
    int sim = 0;
    int steps = 0;

    bool operator==(const FleetFinding &) const = default;
};

// ShardSlice — the per-shard health slice — lives in eval/health.h with
// the rest of the coverage accounting; render_shard_breakdown
// (eval/report.h) prints a table of them under the merged health block.

/** What a fleet scan produced, merged in deterministic order. */
struct FleetReport
{
    bool ok = false;
    std::string error;  ///< set when !ok
    /** Sorted by (cve, blob, ord) — the 1-worker report order. */
    std::vector<FleetFinding> findings;
    /** ScanHealth::merge over per-shard healths, in shard order. */
    ScanHealth health;
    std::vector<ShardSlice> shards;
    /** True when a prior state manifest seeded this scan. */
    bool state_reused = false;
    /** Sum of per-shard `searched` — 0 on a fully-incremental rescan. */
    std::size_t targets_searched = 0;
    /** Sum of per-shard `replayed` (the shard.incremental_skips counter). */
    std::size_t incremental_skips = 0;
    std::size_t workers_spawned = 0;
    std::size_t reassignments = 0;
    std::size_t frames_received = 0;
    double wall_seconds = 0.0;
};

/** A search_corpus_batch grid's detections, in (cve, blob, ord) order. */
std::vector<FleetFinding>
manifest_findings(const std::vector<std::vector<CorpusOutcome>> &grid,
                  const Manifest &manifest);

/** Coordinator configuration; the ScanFlags reach every worker as is. */
struct ShardScanOptions : ScanFlags
{
    /** The corpus manifest; order defines the report order. */
    std::vector<std::string> blob_paths;
    std::size_t workers = 1;
    /** Threads per worker process (0 = auto via FIRMUP_THREADS). */
    unsigned worker_threads = 1;
    /**
     * Persistent state directory: `state.fwsj` (the incremental scan
     * state) plus the per-shard journals live here. Empty = ephemeral —
     * a temp dir is used and removed, which keeps crash recovery within
     * the run but persists nothing across runs.
     */
    std::string state_dir;
    /** Stall deadline: no frame from a worker for this long => respawn. */
    double heartbeat_seconds = 30.0;
    /** Respawns allowed per shard beyond the first spawn. */
    int max_respawns = 2;
    bool quiet = false;  ///< suppress coordinator progress lines
    /**
     * Test seams, applied to the FIRST spawn of shard 0 only (the
     * respawn must survive): after the journal commit that reaches N
     * records the worker drains, then either dies with _exit(9)
     * mid-protocol (kill seam) or goes silent without exiting (stall
     * seam — exercises the heartbeat deadline).
     */
    std::size_t kill_first_worker_after = 0;
    bool stall_first_worker = false;
};

/**
 * Run a fleet scan: shard the manifest, seed per-shard journals from
 * the state manifest, spawn/supervise workers (@p worker_binary is
 * re-executed with the hidden `--worker` verb), merge frames in fixed
 * order and rebuild the state manifest. Never throws; failures land in
 * FleetReport::error.
 */
FleetReport run_shard_scan(const std::string &worker_binary,
                           const ShardScanOptions &options);

/** Worker-side configuration (parsed from the hidden CLI verb). */
struct ShardWorkerOptions : ScanFlags
{
    std::size_t shard_index = 0;
    std::size_t shard_count = 1;
    unsigned threads = 1;
    /** The FULL manifest — the worker filters by shard_of_path, keeping
     *  global indices intact for the coordinator's merge order. */
    std::vector<std::string> blob_paths;
    std::string journal_path;
    double heartbeat_seconds = 30.0;
    /** Test seams (see ShardScanOptions). */
    std::size_t exit_after_appends = 0;
    bool stall_after_appends = false;
};

/**
 * The argv @p shard's worker is spawned with: `--worker`, the
 * worker-only flags (the test seams only when @p with_seams), the
 * ScanFlags through scan_flag_args, then the full manifest.
 */
std::vector<std::string> worker_args(const ShardScanOptions &options,
                                     std::size_t shard,
                                     const std::string &journal_path,
                                     bool with_seams);

/** Decode a worker's argv after `--worker`: worker_args' inverse. */
bool parse_worker_args(const std::vector<std::string> &args,
                       ShardWorkerOptions &options);

/**
 * Worker entry point: scan this shard's slice of the manifest with a
 * resuming driver and stream protocol frames to stdout (fd 1). Exit
 * code 0 covers the no-findings case — "no findings" is an answer, not
 * a failure; non-zero means the shard itself could not run.
 */
int run_shard_worker(const ShardWorkerOptions &options);

}  // namespace firmup::eval
