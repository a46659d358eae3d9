#include "eval/health.h"

#include <algorithm>
#include <numeric>

#include "support/str.h"

namespace firmup::eval {

void
ScanHealth::note_error(ErrorCode code)
{
    ++errors[static_cast<std::size_t>(code)];
}

void
ScanHealth::note_unpack(const firmware::UnpackResult &unpacked)
{
    ++images_seen;
    members_damaged +=
        static_cast<std::size_t>(unpacked.damaged_members);
    for (std::size_t c = 0; c < kErrorCodeCount; ++c) {
        errors[c] += static_cast<std::size_t>(unpacked.damage[c]);
    }
}

void
ScanHealth::note_unpack_failure(ErrorCode code)
{
    ++images_seen;
    ++images_rejected;
    note_error(code);
}

void
ScanHealth::note_quarantine(const std::string &exe_name, ErrorCode code,
                            const std::string &message)
{
    ++quarantined;
    note_error(code);
    if (quarantine_log.size() < kMaxQuarantineLog) {
        quarantine_log.push_back({exe_name, code, message});
    }
}

void
ScanHealth::merge(const ScanHealth &other)
{
    images_seen += other.images_seen;
    images_rejected += other.images_rejected;
    members_damaged += other.members_damaged;
    executables_seen += other.executables_seen;
    lifted_ok += other.lifted_ok;
    quarantined += other.quarantined;
    games_played += other.games_played;
    games_unresolved += other.games_unresolved;
    cancelled = cancelled || other.cancelled;
    targets_cancelled += other.targets_cancelled;
    resumed_targets += other.resumed_targets;
    retries += other.retries;
    watchdog_expired += other.watchdog_expired;
    journal_truncated_bytes += other.journal_truncated_bytes;
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
    cache_write_bytes += other.cache_write_bytes;
    cache_load_seconds += other.cache_load_seconds;
    cache_open_seconds += other.cache_open_seconds;
    cache_checksum_seconds += other.cache_checksum_seconds;
    cache_parse_seconds += other.cache_parse_seconds;
    cache_mmap_loads += other.cache_mmap_loads;
    query_cache_hits += other.query_cache_hits;
    query_cache_misses += other.query_cache_misses;
    resume_rejected = resume_rejected || other.resume_rejected;
    if (resume_reject_reason.empty()) {
        resume_reject_reason = other.resume_reject_reason;
    }
    load_seconds += other.load_seconds;
    load_cpu_seconds += other.load_cpu_seconds;
    index_seconds += other.index_seconds;
    index_cpu_seconds += other.index_cpu_seconds;
    query_seconds += other.query_seconds;
    query_cpu_seconds += other.query_cpu_seconds;
    game_seconds += other.game_seconds;
    game_cpu_seconds += other.game_cpu_seconds;
    confirm_seconds += other.confirm_seconds;
    confirm_cpu_seconds += other.confirm_cpu_seconds;
    match_wall_seconds += other.match_wall_seconds;
    journal_seconds += other.journal_seconds;
    journal_cpu_seconds += other.journal_cpu_seconds;
    for (std::size_t c = 0; c < kErrorCodeCount; ++c) {
        errors[c] += other.errors[c];
    }
    for (const QuarantineEntry &entry : other.quarantine_log) {
        if (quarantine_log.size() >= kMaxQuarantineLog) {
            break;
        }
        quarantine_log.push_back(entry);
    }
}

bool
ScanHealth::sane() const
{
    if (lifted_ok + quarantined != executables_seen) {
        return false;
    }
    if (images_rejected > images_seen) {
        return false;
    }
    if (games_unresolved > games_played) {
        return false;
    }
    // The watchdog is one cause of an unresolved game, never more.
    if (watchdog_expired > games_unresolved) {
        return false;
    }
    // Cancelled targets exist only on a cancelled scan.
    if (targets_cancelled > 0 && !cancelled) {
        return false;
    }
    // A cache hit is a healthy executable served from disk, so it is
    // counted in lifted_ok (the scan's coverage is the same either way).
    if (cache_hits > lifted_ok) {
        return false;
    }
    if (quarantine_log.size() >
        std::min(quarantined, kMaxQuarantineLog)) {
        return false;
    }
    const std::size_t histogram_total =
        std::accumulate(errors.begin(), errors.end(), std::size_t{0});
    // Every rejection, damaged member and quarantine left a histogram
    // mark (unresolved games are counted by the caller, so >=).
    return histogram_total >=
           images_rejected + members_damaged + quarantined;
}

std::string
ScanHealth::summary() const
{
    std::string out = strprintf(
        "scan health: %zu/%zu image(s) unpacked, %zu damaged member(s); "
        "%zu executable(s): %zu lifted, %zu quarantined; "
        "%zu unresolved game(s)",
        images_seen - images_rejected, images_seen, members_damaged,
        executables_seen, lifted_ok, quarantined, games_unresolved);
    if (cancelled) {
        out += strprintf("; CANCELLED (%zu target(s) not scanned)",
                         targets_cancelled);
    }
    if (resumed_targets > 0) {
        out += strprintf("; %zu target(s) resumed from journal",
                         resumed_targets);
    }
    if (journal_truncated_bytes > 0) {
        out += strprintf("; journal tail truncated (%llu byte(s))",
                         static_cast<unsigned long long>(
                             journal_truncated_bytes));
    }
    if (retries > 0) {
        out += strprintf("; %zu transient retry(ies)", retries);
    }
    if (watchdog_expired > 0) {
        out += strprintf("; %zu watchdog-expired game(s)",
                         watchdog_expired);
    }
    if (cache_hits + cache_misses > 0) {
        out += strprintf(
            "; index cache %zu/%zu warm (%.1f%%)", cache_hits,
            cache_hits + cache_misses,
            static_cast<double>(cache_hits) /
                static_cast<double>(cache_hits + cache_misses) * 100.0);
    }
    if (query_cache_hits + query_cache_misses > 0) {
        out += strprintf("; query recipes %zu/%zu warm",
                         query_cache_hits,
                         query_cache_hits + query_cache_misses);
    }
    if (resume_rejected) {
        out += "; RESUME REJECTED (journal fingerprint mismatch)";
    }
    if (index_seconds + game_seconds + confirm_seconds > 0.0) {
        // Wall is elapsed for index, summed-per-outcome for games and
        // confirm (busy time across workers on a parallel scan); the
        // full wall/CPU breakdown is the render_health stage table.
        out += strprintf("; stages: index %.3fs wall, games %.3fs busy, "
                         "confirm %.3fs busy",
                         index_seconds, game_seconds, confirm_seconds);
    }
    bool first = true;
    for (std::size_t c = 0; c < kErrorCodeCount; ++c) {
        if (errors[c] == 0) {
            continue;
        }
        out += first ? " [" : ", ";
        first = false;
        out += strprintf("%s=%zu",
                         error_code_name(static_cast<ErrorCode>(c)),
                         errors[c]);
    }
    if (!first) {
        out += "]";
    }
    return out;
}

}  // namespace firmup::eval
