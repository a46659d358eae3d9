#include "eval/shard.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include <poll.h>
#include <unistd.h>

#include "firmware/image.h"
#include "support/cancel.h"
#include "support/fsio.h"
#include "support/hash.h"
#include "support/str.h"
#include "support/subproc.h"
#include "support/threadpool.h"
#include "support/trace.h"

namespace firmup::eval {

namespace {

// Fleet-supervision accounting, mirrored into the FleetReport so scans
// without --stats-json still surface it.
const trace::Counter c_workers_spawned("shard.workers_spawned");
const trace::Counter c_frames_received("shard.frames_received");
const trace::Counter c_reassignments("shard.reassignments");
const trace::Counter c_incremental_skips("shard.incremental_skips");

double
seconds_between(std::chrono::steady_clock::time_point a,
                std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

void
append_escaped(std::string &out, std::string_view text)
{
    for (const char c : text) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    out += strprintf("\\u%04x",
                                     static_cast<unsigned>(
                                         static_cast<unsigned char>(c)));
                } else {
                    out += c;
                }
        }
    }
}

/** Parse one JSON string literal starting at buf[pos] == '"'. */
bool
parse_string(std::string_view buf, std::size_t &pos, std::string *out)
{
    if (pos >= buf.size() || buf[pos] != '"') {
        return false;
    }
    ++pos;
    out->clear();
    while (pos < buf.size()) {
        const char c = buf[pos++];
        if (c == '"') {
            return true;
        }
        if (c != '\\') {
            *out += c;
            continue;
        }
        if (pos >= buf.size()) {
            return false;
        }
        const char esc = buf[pos++];
        switch (esc) {
            case '"': *out += '"'; break;
            case '\\': *out += '\\'; break;
            case '/': *out += '/'; break;
            case 'n': *out += '\n'; break;
            case 'r': *out += '\r'; break;
            case 't': *out += '\t'; break;
            case 'u': {
                if (pos + 4 > buf.size()) {
                    return false;
                }
                unsigned value = 0;
                for (int k = 0; k < 4; ++k) {
                    const char h = buf[pos++];
                    value <<= 4;
                    if (h >= '0' && h <= '9') {
                        value |= static_cast<unsigned>(h - '0');
                    } else if (h >= 'a' && h <= 'f') {
                        value |= static_cast<unsigned>(h - 'a' + 10);
                    } else if (h >= 'A' && h <= 'F') {
                        value |= static_cast<unsigned>(h - 'A' + 10);
                    } else {
                        return false;
                    }
                }
                // The protocol only escapes control bytes this way.
                *out += static_cast<char>(value & 0xff);
                break;
            }
            default: return false;
        }
    }
    return false;
}

void
skip_spaces(std::string_view buf, std::size_t &pos)
{
    while (pos < buf.size() &&
           (buf[pos] == ' ' || buf[pos] == '\t' || buf[pos] == '\n' ||
            buf[pos] == '\r')) {
        ++pos;
    }
}

std::string
field_str(const FrameFields &fields, const char *key)
{
    const auto it = fields.find(key);
    return it == fields.end() ? std::string() : it->second;
}

/** A numeric field; 0 when absent or malformed. */
template <typename T = std::uint64_t>
T
field_num(const FrameFields &fields, const char *key)
{
    T value = 0;
    parse_number(field_str(fields, key), value);
    return value;
}

/** Mutex-serialized frame writes — heartbeats race the scan results. */
class FrameWriter
{
  public:
    explicit FrameWriter(int fd) : fd_(fd) {}

    bool
    send(const FrameFields &fields)
    {
        const std::string payload = encode_frame(fields);
        const std::lock_guard<std::mutex> lock(mutex_);
        return write_frame(fd_, payload);
    }

  private:
    int fd_;
    std::mutex mutex_;
};

}  // namespace

std::size_t
shard_of_path(std::string_view path, std::size_t shard_count)
{
    if (shard_count <= 1) {
        return 0;
    }
    // Domain-prefixed so the shard hash can never collide with the
    // content/recipe key streams sharing fnv1a64 elsewhere.
    const std::uint64_t h =
        fnv1a64_update(fnv1a64("fwshard:"), path);
    return static_cast<std::size_t>(h % shard_count);
}

Manifest
load_manifest(const std::vector<std::string> &paths,
              std::size_t shard_index, std::size_t shard_count,
              unsigned threads, Driver *hunt)
{
    const auto start = std::chrono::steady_clock::now();
    const std::uint64_t cpu_start = trace::process_cpu_ns();
    Manifest manifest;
    std::vector<std::size_t> slice;  // global manifest indices
    for (std::size_t g = 0; g < paths.size(); ++g) {
        if (shard_of_path(paths[g], shard_count) == shard_index) {
            slice.push_back(g);
        }
    }
    // The blob's bytes die once it is unpacked; with a hunt, a member
    // dies once its index is loaded.
    std::vector<std::optional<Result<firmware::UnpackResult>>> loaded(
        slice.size());
    std::vector<std::vector<std::uint64_t>> keys(slice.size());
    parallel_for(
        resolve_worker_threads(threads), slice.size(), [&](std::size_t i) {
            const std::string &path = paths[slice[i]];
            {
                auto bytes = [&] {
                    const trace::TraceSpan span("read", path);
                    return read_file_bytes(path);
                }();
                loaded[i].emplace(
                    bytes.ok() ? firmware::unpack_firmware(bytes.value())
                               : Result<firmware::UnpackResult>::error_from(
                                     bytes));
            }
            if (hunt == nullptr || !loaded[i]->ok()) {
                return;
            }
            std::vector<loader::Executable> &exes =
                loaded[i]->value().image.executables;
            keys[i].resize(exes.size());
            {
                const trace::TraceSpan span("key", path);
                for (std::size_t j = 0; j < exes.size(); ++j) {
                    keys[i][j] = content_key(exes[j]);
                }
            }
            for (std::size_t j = 0; j < exes.size(); ++j) {
                if (hunt->prefetch(keys[i][j])) {
                    exes[j].release();
                }
            }
        });
    std::vector<std::size_t> blob_index;  // global manifest index
    for (std::size_t i = 0; i < slice.size(); ++i) {
        Result<firmware::UnpackResult> &unpacked = *loaded[i];
        if (!unpacked.ok()) {
            std::fprintf(stderr, "firmup: %s: %s\n", paths[slice[i]].c_str(),
                         unpacked.error_message().c_str());
            manifest.health.note_unpack_failure(unpacked.error_code());
            continue;
        }
        manifest.health.note_unpack(unpacked.value());
        manifest.blobs.push_back(std::move(unpacked).take());
        blob_index.push_back(slice[i]);
        manifest.keys.insert(manifest.keys.end(), keys[i].begin(),
                             keys[i].end());
    }
    // Built only once every blob is in place: targets point into them.
    for (std::size_t b = 0; b < manifest.blobs.size(); ++b) {
        const auto &exes = manifest.blobs[b].image.executables;
        for (std::size_t ord = 0; ord < exes.size(); ++ord) {
            manifest.targets.push_back(
                {&exes[ord], static_cast<int>(blob_index[b])});
            manifest.ordinals.push_back(ord);
        }
    }
    manifest.health.load_seconds = seconds_between(
        start, std::chrono::steady_clock::now());
    manifest.health.load_cpu_seconds =
        static_cast<double>(trace::process_cpu_ns() - cpu_start) * 1e-9;
    return manifest;
}

ManifestHunt
hunt_manifest(Driver &driver, const std::vector<firmware::CveRecord> &cves,
              const std::vector<std::string> &paths, std::size_t shard_index,
              std::size_t shard_count, unsigned threads)
{
    ManifestHunt hunt;
    driver.open_hunt(cves);
    Manifest &manifest = hunt.manifest;
    manifest = load_manifest(paths, shard_index, shard_count, threads,
                             &driver);
    driver.health().merge(manifest.health);
    std::vector<loader::Executable *> exes;  // targets[t]'s, writable
    for (firmware::UnpackResult &blob : manifest.blobs) {
        for (loader::Executable &exe : blob.image.executables) {
            exes.push_back(&exe);
        }
    }
    hunt.grid = driver.search_corpus_batch(
        cves, manifest.targets, manifest.keys, threads,
        [&exes](std::size_t t) { exes[t]->release(); });
    return hunt;
}

std::vector<FleetFinding>
manifest_findings(const std::vector<std::vector<CorpusOutcome>> &grid,
                  const Manifest &manifest)
{
    std::vector<FleetFinding> findings;
    for (std::size_t q = 0; q < grid.size(); ++q) {
        for (std::size_t t = 0; t < grid[q].size(); ++t) {
            const CorpusOutcome &co = grid[q][t];
            if (!co.indexed || !co.outcome.detected) {
                continue;  // quarantined targets show in the health report
            }
            findings.push_back(
                {q, static_cast<std::size_t>(co.target.image_index),
                 manifest.ordinals[t], co.target.exe->name,
                 co.outcome.matched_entry, co.outcome.sim,
                 co.outcome.steps});
        }
    }
    return findings;
}

std::string
encode_frame(const FrameFields &fields)
{
    std::string out = "{";
    bool first = true;
    for (const auto &[key, value] : fields) {
        if (!first) {
            out += ',';
        }
        first = false;
        out += '"';
        append_escaped(out, key);
        out += "\":\"";
        append_escaped(out, value);
        out += '"';
    }
    out += '}';
    return out;
}

bool
decode_frame(std::string_view payload, FrameFields *fields)
{
    fields->clear();
    std::size_t pos = 0;
    skip_spaces(payload, pos);
    if (pos >= payload.size() || payload[pos] != '{') {
        return false;
    }
    ++pos;
    skip_spaces(payload, pos);
    if (pos < payload.size() && payload[pos] == '}') {
        return true;
    }
    std::string key, value;
    for (;;) {
        skip_spaces(payload, pos);
        if (!parse_string(payload, pos, &key)) {
            return false;
        }
        skip_spaces(payload, pos);
        if (pos >= payload.size() || payload[pos] != ':') {
            return false;
        }
        ++pos;
        skip_spaces(payload, pos);
        if (!parse_string(payload, pos, &value)) {
            return false;
        }
        (*fields)[key] = value;
        skip_spaces(payload, pos);
        if (pos >= payload.size()) {
            return false;
        }
        if (payload[pos] == ',') {
            ++pos;
            continue;
        }
        if (payload[pos] == '}') {
            return true;
        }
        return false;
    }
}

// One X-macro list per field type keeps health_to_fields and
// health_from_fields symmetric by construction — a field added to
// ScanHealth joins the protocol by joining exactly one list.
#define FIRMUP_SHARD_HEALTH_COUNT_FIELDS(X)                              \
    X(images_seen)                                                       \
    X(images_rejected)                                                   \
    X(members_damaged)                                                   \
    X(executables_seen)                                                  \
    X(lifted_ok)                                                         \
    X(quarantined)                                                       \
    X(games_played)                                                      \
    X(games_unresolved)                                                  \
    X(targets_cancelled)                                                 \
    X(resumed_targets)                                                   \
    X(retries)                                                           \
    X(watchdog_expired)                                                  \
    X(journal_truncated_bytes)                                           \
    X(cache_hits)                                                        \
    X(cache_misses)                                                      \
    X(cache_write_bytes)                                                 \
    X(cache_mmap_loads)                                                  \
    X(query_cache_hits)                                                  \
    X(query_cache_misses)

#define FIRMUP_SHARD_HEALTH_DOUBLE_FIELDS(X)                             \
    X(cache_load_seconds)                                                \
    X(cache_open_seconds)                                                \
    X(cache_checksum_seconds)                                            \
    X(cache_parse_seconds)                                               \
    X(load_seconds)                                                      \
    X(load_cpu_seconds)                                                  \
    X(index_seconds)                                                     \
    X(index_cpu_seconds)                                                 \
    X(query_seconds)                                                     \
    X(query_cpu_seconds)                                                 \
    X(game_seconds)                                                      \
    X(game_cpu_seconds)                                                  \
    X(confirm_seconds)                                                   \
    X(confirm_cpu_seconds)                                               \
    X(match_wall_seconds)                                                \
    X(journal_seconds)                                                   \
    X(journal_cpu_seconds)

#define FIRMUP_SHARD_HEALTH_BOOL_FIELDS(X)                               \
    X(cancelled)                                                         \
    X(resume_rejected)

void
health_to_fields(const ScanHealth &health, FrameFields &fields)
{
#define FIRMUP_PUT_COUNT(name)                                           \
    fields[#name] = strprintf(                                           \
        "%llu", static_cast<unsigned long long>(health.name));
    FIRMUP_SHARD_HEALTH_COUNT_FIELDS(FIRMUP_PUT_COUNT)
#undef FIRMUP_PUT_COUNT
#define FIRMUP_PUT_DOUBLE(name)                                          \
    fields[#name] = strprintf("%.17g", health.name);
    FIRMUP_SHARD_HEALTH_DOUBLE_FIELDS(FIRMUP_PUT_DOUBLE)
#undef FIRMUP_PUT_DOUBLE
#define FIRMUP_PUT_BOOL(name) fields[#name] = health.name ? "1" : "0";
    FIRMUP_SHARD_HEALTH_BOOL_FIELDS(FIRMUP_PUT_BOOL)
#undef FIRMUP_PUT_BOOL
    fields["resume_reject_reason"] = health.resume_reject_reason;
    std::vector<std::string> errors;
    for (const std::size_t count : health.errors) {
        errors.push_back(std::to_string(count));
    }
    fields["errors"] = join(errors, ",");
}

void
health_from_fields(const FrameFields &fields, ScanHealth &health)
{
#define FIRMUP_GET_COUNT(name)                                           \
    health.name = static_cast<decltype(health.name)>(                    \
        field_num(fields, #name));
    FIRMUP_SHARD_HEALTH_COUNT_FIELDS(FIRMUP_GET_COUNT)
#undef FIRMUP_GET_COUNT
#define FIRMUP_GET_DOUBLE(name)                                          \
    health.name = field_num<double>(fields, #name);
    FIRMUP_SHARD_HEALTH_DOUBLE_FIELDS(FIRMUP_GET_DOUBLE)
#undef FIRMUP_GET_DOUBLE
#define FIRMUP_GET_BOOL(name)                                            \
    health.name = field_num(fields, #name) != 0;
    FIRMUP_SHARD_HEALTH_BOOL_FIELDS(FIRMUP_GET_BOOL)
#undef FIRMUP_GET_BOOL
    health.resume_reject_reason = field_str(fields, "resume_reject_reason");
    const std::vector<std::string> errors =
        split(field_str(fields, "errors"), ',');
    for (std::size_t c = 0; c < kErrorCodeCount; ++c) {
        health.errors[c] = 0;
        if (c < errors.size()) {
            parse_number(errors[c], health.errors[c]);
        }
    }
}

int
run_shard_worker(const ShardWorkerOptions &options)
{
    FrameWriter writer(STDOUT_FILENO);

    SearchOptions sopt;
    auto cves = prepare_hunt(options, sopt);
    if (!cves.ok()) {
        std::fprintf(stderr, "firmup worker: %s\n",
                     cves.error_message().c_str());
        return 1;
    }
    if (options.shard_count == 0 ||
        options.shard_index >= options.shard_count) {
        std::fprintf(stderr, "firmup worker: shard %zu out of %zu\n",
                     options.shard_index, options.shard_count);
        return 1;
    }

    writer.send({{"type", "hello"},
                 {"shard", std::to_string(options.shard_index)},
                 {"pid", std::to_string(::getpid())}});

    // Heartbeats from a side thread at a quarter of the stall deadline:
    // the scan itself can legitimately go quiet for the whole length of
    // a cold index phase, and the coordinator must be able to tell
    // "busy" from "dead".
    std::atomic<bool> stop_heartbeats{false};
    std::thread heartbeat([&] {
        const double interval =
            std::max(0.05, options.heartbeat_seconds / 4.0);
        std::uint64_t seq = 0;
        auto next = std::chrono::steady_clock::now();
        while (!stop_heartbeats.load(std::memory_order_relaxed)) {
            const auto now = std::chrono::steady_clock::now();
            if (now >= next) {
                writer.send({{"type", "heartbeat"},
                             {"seq", std::to_string(seq++)}});
                next = now + std::chrono::duration_cast<
                                 std::chrono::steady_clock::duration>(
                                 std::chrono::duration<double>(interval));
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
    });
    const auto join_heartbeat = [&] {
        stop_heartbeats.store(true, std::memory_order_relaxed);
        heartbeat.join();
    };

    sopt.journal_path = options.journal_path;
    sopt.resume = !options.journal_path.empty();
    CancelToken seam_token;
    if (options.exit_after_appends > 0) {
        sopt.cancel = &seam_token;
        sopt.cancel_after_appends = options.exit_after_appends;
    }

    // Global blob indices are preserved (image_index and the finding
    // frames both carry them) so the coordinator's merge order is
    // manifest order, not shard order.
    Driver driver(sopt);
    const ManifestHunt hunt =
        hunt_manifest(driver, cves.value(), options.blob_paths,
                      options.shard_index, options.shard_count,
                      options.threads);

    if (options.exit_after_appends > 0 && seam_token.requested()) {
        // Crash/stall test seams: the scan drained cooperatively after N
        // appends, so the journal holds a valid prefix — now die the way
        // a real worker would. The kill seam exits mid-protocol (no
        // done frame, no health); the stall seam goes silent without
        // exiting, which is what the heartbeat deadline exists for.
        join_heartbeat();
        if (options.stall_after_appends) {
            for (;;) {
                std::this_thread::sleep_for(std::chrono::seconds(3600));
            }
        }
        ::_exit(9);
    }

    const ScanHealth &health = driver.health();
    for (const FleetFinding &f :
         manifest_findings(hunt.grid, hunt.manifest)) {
        writer.send({{"type", "finding"},
                     {"cve", std::to_string(f.cve)},
                     {"blob", std::to_string(f.blob)},
                     {"ord", std::to_string(f.ord)},
                     {"exe", f.exe_name},
                     {"entry", strprintf("%llu",
                                         static_cast<unsigned long long>(
                                             f.matched_entry))},
                     {"sim", std::to_string(f.sim)},
                     {"steps", std::to_string(f.steps)}});
    }
    for (const QuarantineEntry &entry : health.quarantine_log) {
        writer.send({{"type", "quar"},
                     {"exe", entry.exe_name},
                     {"code", std::to_string(static_cast<int>(entry.code))},
                     {"msg", entry.message}});
    }
    FrameFields health_fields;
    health_to_fields(health, health_fields);
    health_fields["type"] = "health";
    health_fields["appended"] =
        std::to_string(driver.journal().appended());
    writer.send(health_fields);
    writer.send({{"type", "done"},
                 {"ok", health.resume_rejected ? "0" : "1"}});
    join_heartbeat();
    return health.resume_rejected ? 1 : 0;
}

std::vector<std::string>
worker_args(const ShardScanOptions &options, std::size_t shard,
            const std::string &journal_path, bool with_seams)
{
    std::vector<std::string> args = {
        "--worker",
        "--shard-index", std::to_string(shard),
        "--shard-count", std::to_string(options.workers),
        "--threads", std::to_string(options.worker_threads),
        "--heartbeat", strprintf("%.17g", options.heartbeat_seconds),
        "--journal", journal_path};
    if (with_seams && options.kill_first_worker_after > 0) {
        args.push_back("--exit-after");
        args.push_back(std::to_string(options.kill_first_worker_after));
        if (options.stall_first_worker) {
            args.push_back("--stall");
        }
    }
    const std::vector<std::string> scan = scan_flag_args(options);
    args.insert(args.end(), scan.begin(), scan.end());
    args.insert(args.end(), options.blob_paths.begin(),
                options.blob_paths.end());
    return args;
}

bool
parse_worker_args(const std::vector<std::string> &args,
                  ShardWorkerOptions &options)
{
    return parse_scan_args(
        args,
        {number_flag("--shard-index", options.shard_index, 0),
         number_flag("--shard-count", options.shard_count, 1),
         number_flag("--threads", options.threads, 0),
         seconds_flag("--heartbeat", options.heartbeat_seconds),
         string_flag("--journal", options.journal_path),
         number_flag("--exit-after", options.exit_after_appends, 1),
         switch_flag("--stall", options.stall_after_appends)},
        options, options.blob_paths);
}

namespace {

/** Coordinator-side book-keeping for one shard's current worker. */
struct ShardRun
{
    std::size_t shard = 0;
    std::size_t blobs = 0;
    pid_t pid = -1;
    int fd = -1;
    FrameReader reader;
    std::chrono::steady_clock::time_point spawned_at;
    std::chrono::steady_clock::time_point last_frame;
    int attempt = 0;
    bool done_frame = false;
    bool committed = false;
    // Buffered until the worker exits cleanly — a dead worker's partial
    // results are discarded wholesale and the respawn re-reports them
    // (the journal replay makes that cheap and bit-identical).
    std::vector<FleetFinding> findings;
    std::vector<QuarantineEntry> quars;
    ScanHealth health;
    bool health_frame = false;
    std::size_t appended = 0;
    ShardSlice slice;
};

}  // namespace

FleetReport
run_shard_scan(const std::string &worker_binary,
               const ShardScanOptions &options_in)
{
    FleetReport report;
    const auto fleet_start = std::chrono::steady_clock::now();
    ShardScanOptions options = options_in;
    if (options.workers == 0) {
        options.workers = 1;
    }
    if (options.cve_ids.empty() || options.blob_paths.empty()) {
        report.error = "shard-scan needs at least one CVE and one blob";
        return report;
    }
    auto cves = resolve_cves(options.cve_ids);
    if (!cves.ok()) {
        report.error = cves.error_message();
        return report;
    }

    // The scan identity every per-shard journal (and the state
    // manifest) is bound to: must match what the workers' drivers
    // compute from the flags worker_args() hands them, or every resume
    // would be refused. SearchOptions' deterministic knobs are not
    // exposed on the shard-scan CLI, so the defaults here are the
    // workers' defaults.
    const std::uint64_t fp = scan_fingerprint(
        SearchOptions{}, batch_scan_label(cves.value()), /*confirm=*/true);

    std::string state_dir = options.state_dir;
    std::optional<ScopedTempDir> ephemeral;
    if (state_dir.empty()) {
        ephemeral.emplace("firmup-shard");
        state_dir = ephemeral->path();
    }
    std::error_code ec;
    std::filesystem::create_directories(state_dir, ec);
    if (ec) {
        report.error = "cannot create state dir " + state_dir + ": " +
                       ec.message();
        return report;
    }

    // Prior state: a FWSJ journal under the scan fingerprint. A
    // mismatching or corrupt state file degrades to a fresh full scan —
    // incremental state is an optimization, never a correctness input.
    std::vector<JournalEntry> prior;
    const std::string state_path = state_dir + "/state.fwsj";
    if (std::filesystem::exists(state_path, ec) && !ec) {
        auto bytes = read_file_bytes(state_path);
        if (bytes.ok()) {
            auto load = ScanJournal::parse(bytes.value().data(),
                                           bytes.value().size(), fp);
            if (load.ok()) {
                prior = std::move(load).take().entries;
                report.state_reused = true;
            } else if (!options.quiet) {
                std::fprintf(stderr,
                             "shard-scan: ignoring state %s (%s) — "
                             "running a full scan\n",
                             state_path.c_str(),
                             load.error_message().c_str());
            }
        }
    }

    // Shard the manifest; shards that own no blobs are never spawned.
    std::vector<std::size_t> shard_blobs(options.workers, 0);
    for (const std::string &path : options.blob_paths) {
        ++shard_blobs[shard_of_path(path, options.workers)];
    }

    std::vector<ShardRun> runs;
    for (std::size_t k = 0; k < options.workers; ++k) {
        if (shard_blobs[k] == 0) {
            continue;
        }
        ShardRun run;
        run.shard = k;
        run.blobs = shard_blobs[k];
        run.slice.shard = k;
        run.slice.blobs = shard_blobs[k];
        runs.push_back(std::move(run));
    }

    // Seed every shard journal from the prior state so unchanged
    // (content key, query) pairs replay without lift/canon/search work.
    // Entries are seeded wholesale — content keys don't map to paths
    // without unpacking, and replay simply ignores pairs outside the
    // shard's slice. Each seed is one buffer and one fsync.
    const auto journal_path_of = [&](const ShardRun &run) {
        return state_dir + strprintf("/shard-%zu.fwsj", run.shard);
    };
    for (const ShardRun &run : runs) {
        const std::string journal_path = journal_path_of(run);
        auto seeded = ScanJournal::write_file(journal_path, fp, prior);
        if (!seeded.ok()) {
            report.error = "cannot create " + journal_path + ": " +
                           seeded.error_message();
            return report;
        }
    }

    const auto spawn = [&](ShardRun &run) -> bool {
        const bool first_of_shard0 = run.shard == runs.front().shard &&
                                     run.attempt == 0;
        auto child = spawn_child(
            worker_binary,
            worker_args(options, run.shard, journal_path_of(run),
                        first_of_shard0));
        if (!child.ok()) {
            report.error = "cannot spawn worker for shard " +
                           std::to_string(run.shard) + ": " +
                           child.error_message();
            return false;
        }
        run.pid = child.value().pid;
        run.fd = child.value().out_fd;
        run.reader = FrameReader();
        run.spawned_at = std::chrono::steady_clock::now();
        run.last_frame = run.spawned_at;
        run.done_frame = false;
        run.health_frame = false;
        run.findings.clear();
        run.quars.clear();
        run.health = ScanHealth();
        run.appended = 0;
        ++run.attempt;
        ++report.workers_spawned;
        c_workers_spawned.add();
        if (!options.quiet) {
            std::fprintf(stderr,
                         "shard-scan: shard %zu -> pid %d (%zu blob(s)%s)\n",
                         run.shard, static_cast<int>(run.pid), run.blobs,
                         run.attempt > 1 ? ", respawned" : "");
        }
        return true;
    };

    const auto dispatch_frame = [&](ShardRun &run,
                                    const std::string &payload) -> bool {
        FrameFields fields;
        if (!decode_frame(payload, &fields)) {
            return false;  // protocol corruption == dead worker
        }
        run.last_frame = std::chrono::steady_clock::now();
        ++run.slice.frames;
        ++report.frames_received;
        c_frames_received.add();
        const std::string type = field_str(fields, "type");
        if (type == "finding") {
            FleetFinding finding;
            finding.cve = static_cast<std::size_t>(
                field_num(fields, "cve"));
            finding.blob = static_cast<std::size_t>(
                field_num(fields, "blob"));
            finding.ord = static_cast<std::size_t>(
                field_num(fields, "ord"));
            finding.exe_name = field_str(fields, "exe");
            finding.matched_entry = field_num(fields, "entry");
            finding.sim = static_cast<int>(field_num(fields, "sim"));
            finding.steps = static_cast<int>(field_num(fields, "steps"));
            run.findings.push_back(std::move(finding));
        } else if (type == "quar") {
            QuarantineEntry entry;
            entry.exe_name = field_str(fields, "exe");
            entry.code = static_cast<ErrorCode>(
                field_num(fields, "code") % kErrorCodeCount);
            entry.message = field_str(fields, "msg");
            run.quars.push_back(std::move(entry));
        } else if (type == "health") {
            health_from_fields(fields, run.health);
            run.appended = static_cast<std::size_t>(
                field_num(fields, "appended"));
            run.health_frame = true;
        } else if (type == "done") {
            run.done_frame = field_num(fields, "ok") != 0;
        }
        // hello/heartbeat only refresh last_frame.
        return true;
    };

    bool failed = false;
    std::size_t active = 0;
    for (ShardRun &run : runs) {
        if (!spawn(run)) {
            failed = true;
            break;
        }
        ++active;
    }

    // Supervision loop: poll every live pipe, drain frames, respawn on
    // death (pipe EOF without a clean done+exit) or stall (no frame
    // past the heartbeat deadline).
    const auto retire = [&](ShardRun &run, bool killed) {
        const int status = wait_child(run.pid);
        close_fd(run.fd);
        run.fd = -1;
        const auto now = std::chrono::steady_clock::now();
        run.slice.seconds += seconds_between(run.spawned_at, now);
        if (!killed && run.done_frame && run.health_frame &&
            exited_cleanly(status)) {
            run.committed = true;
            run.health.quarantine_log = run.quars;
            if (run.health.quarantine_log.size() >
                ScanHealth::kMaxQuarantineLog) {
                run.health.quarantine_log.resize(
                    ScanHealth::kMaxQuarantineLog);
            }
            run.slice.findings = run.findings.size();
            run.slice.searched = run.appended;
            run.slice.replayed = run.health.resumed_targets;
            --active;
            if (!options.quiet) {
                std::fprintf(stderr,
                             "shard-scan: shard %zu done (%zu finding(s), "
                             "%zu searched, %zu replayed)\n",
                             run.shard, run.findings.size(), run.appended,
                             run.health.resumed_targets);
            }
            return;
        }
        // Death or stall: discard this attempt's partial results and
        // reassign the shard to a fresh worker resuming its journal.
        ++run.slice.respawns;
        ++report.reassignments;
        c_reassignments.add();
        if (!options.quiet) {
            std::fprintf(stderr,
                         "shard-scan: shard %zu worker %s (%s) — %s\n",
                         run.shard, killed ? "stalled" : "died",
                         describe_status(status).c_str(),
                         run.attempt <= options.max_respawns
                             ? "reassigning"
                             : "giving up");
        }
        if (run.attempt > options.max_respawns) {
            report.error = strprintf(
                "shard %zu failed %d time(s) — last worker %s", run.shard,
                run.attempt, describe_status(status).c_str());
            failed = true;
            --active;
            return;
        }
        if (!spawn(run)) {
            failed = true;
            --active;
        }
    };

    while (active > 0 && !failed) {
        std::vector<pollfd> fds;
        std::vector<ShardRun *> owners;
        for (ShardRun &run : runs) {
            if (!run.committed && run.fd >= 0) {
                fds.push_back({run.fd, POLLIN, 0});
                owners.push_back(&run);
            }
        }
        if (fds.empty()) {
            break;
        }
        ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 100);
        for (std::size_t i = 0; i < fds.size() && !failed; ++i) {
            ShardRun &run = *owners[i];
            if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
                continue;
            }
            const int fed = run.reader.feed(run.fd);
            std::string payload;
            bool protocol_ok = true;
            while (run.reader.next(&payload)) {
                if (!dispatch_frame(run, payload)) {
                    protocol_ok = false;
                    break;
                }
            }
            if (!protocol_ok || run.reader.corrupt()) {
                kill_child(run.pid);
                retire(run, /*killed=*/true);
                continue;
            }
            if (fed < 0) {
                retire(run, /*killed=*/false);
            }
        }
        const auto now = std::chrono::steady_clock::now();
        for (ShardRun &run : runs) {
            if (failed || run.committed || run.fd < 0) {
                continue;
            }
            if (seconds_between(run.last_frame, now) >
                options.heartbeat_seconds) {
                kill_child(run.pid);
                retire(run, /*killed=*/true);
            }
        }
    }
    if (failed) {
        for (ShardRun &run : runs) {
            if (run.fd >= 0 && !run.committed) {
                kill_child(run.pid);
                wait_child(run.pid);
                close_fd(run.fd);
                run.fd = -1;
            }
        }
        return report;
    }

    // Deterministic merge: health in shard order, findings re-sorted
    // into the global (cve, blob, executable) order — exactly the order
    // a 1-worker fleet (or plain `firmup search`) reports in.
    for (const ShardRun &run : runs) {
        report.health.merge(run.health);
        report.shards.push_back(run.slice);
        report.targets_searched += run.appended;
        report.incremental_skips += run.health.resumed_targets;
        c_incremental_skips.add(run.health.resumed_targets);
        report.findings.insert(report.findings.end(),
                               run.findings.begin(), run.findings.end());
    }
    std::sort(report.findings.begin(), report.findings.end(),
              [](const FleetFinding &a, const FleetFinding &b) {
                  if (a.cve != b.cve) {
                      return a.cve < b.cve;
                  }
                  if (a.blob != b.blob) {
                      return a.blob < b.blob;
                  }
                  return a.ord < b.ord;
              });

    // Rebuild the state manifest as the key-sorted last-wins union of
    // every shard journal: shard-count-independent by construction, and
    // written as one buffer published atomically (tmp + one fsync +
    // rename) so a crash mid-rebuild leaves the previous state intact.
    std::map<std::pair<std::uint64_t, std::uint64_t>, JournalEntry>
        merged_state;
    for (const ShardRun &run : runs) {
        auto bytes = read_file_bytes(journal_path_of(run));
        if (!bytes.ok()) {
            continue;
        }
        auto load = ScanJournal::parse(bytes.value().data(),
                                       bytes.value().size(), fp);
        if (!load.ok()) {
            continue;
        }
        for (JournalEntry &entry : load.value().entries) {
            merged_state.insert_or_assign(
                {entry.content_key, entry.query_fp}, std::move(entry));
        }
    }
    std::vector<JournalEntry> state;
    state.reserve(merged_state.size());
    for (auto &[key, entry] : merged_state) {
        state.push_back(std::move(entry));
    }
    const auto rebuilt = ScanJournal::write_file(state_path, fp, state);
    if (!rebuilt.ok() && !options.quiet) {
        std::fprintf(stderr, "shard-scan: cannot publish %s: %s\n",
                     state_path.c_str(), rebuilt.error_message().c_str());
    }

    report.wall_seconds =
        seconds_between(fleet_start, std::chrono::steady_clock::now());
    report.ok = true;
    return report;
}

}  // namespace firmup::eval
