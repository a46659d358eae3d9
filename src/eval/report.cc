#include "eval/report.h"

#include <algorithm>

#include "support/error.h"
#include "support/str.h"

namespace firmup::eval {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
}

void
Table::add_row(std::vector<std::string> cells)
{
    FIRMUP_ASSERT(cells.size() == headers_.size(),
                  "table row width mismatch");
    rows_.push_back(std::move(cells));
}

std::string
Table::render() const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) {
        widths[c] = headers_[c].size();
        for (const auto &row : rows_) {
            widths[c] = std::max(widths[c], row[c].size());
        }
    }
    auto line = [&](const std::vector<std::string> &cells) {
        std::string out = "|";
        for (std::size_t c = 0; c < cells.size(); ++c) {
            out += " " + cells[c] +
                   std::string(widths[c] - cells[c].size(), ' ') + " |";
        }
        return out + "\n";
    };
    std::string out = line(headers_);
    std::string rule = "|";
    for (std::size_t c = 0; c < widths.size(); ++c) {
        rule += std::string(widths[c] + 2, '-') + "|";
    }
    out += rule + "\n";
    for (const auto &row : rows_) {
        out += line(row);
    }
    return out;
}

std::string
percent(double fraction)
{
    return strprintf("%.1f%%", fraction * 100.0);
}

namespace {

/** One row of the stage table; skipped when the stage never ran. */
void
add_stage_row(Table &table, const char *stage, const char *wall_kind,
              double wall_seconds, double cpu_seconds)
{
    if (wall_seconds <= 0.0 && cpu_seconds <= 0.0) {
        return;
    }
    table.add_row({stage, strprintf("%.3f (%s)", wall_seconds, wall_kind),
                   strprintf("%.3f", cpu_seconds)});
}

}  // namespace

std::string
render_health(const ScanHealth &health)
{
    std::string out = health.summary() + "\n";
    if (health.load_seconds + health.index_seconds + health.query_seconds +
            health.game_seconds + health.confirm_seconds +
            health.match_wall_seconds + health.journal_seconds >
        0.0) {
        // Wall semantics differ per stage (see ScanHealth): load, index,
        // query build and match-phase are elapsed clocks; game/confirm
        // and the journal's group commits are sums, i.e. busy time
        // across workers on a parallel scan.
        Table stages({"stage", "wall s", "cpu s"});
        add_stage_row(stages, "load", "elapsed", health.load_seconds,
                      health.load_cpu_seconds);
        add_stage_row(stages, "lift+index", "elapsed",
                      health.index_seconds, health.index_cpu_seconds);
        add_stage_row(stages, "query build", "elapsed",
                      health.query_seconds, health.query_cpu_seconds);
        add_stage_row(stages, "games", "busy", health.game_seconds,
                      health.game_cpu_seconds);
        add_stage_row(stages, "confirm", "busy", health.confirm_seconds,
                      health.confirm_cpu_seconds);
        add_stage_row(stages, "journal", "busy", health.journal_seconds,
                      health.journal_cpu_seconds);
        add_stage_row(stages, "match phase", "elapsed",
                      health.match_wall_seconds, 0.0);
        out += stages.render();
    }
    if (health.cache_hits + health.cache_misses > 0) {
        out += strprintf(
            "index cache: %zu hit(s), %zu miss(es), %s hit rate, "
            "%.3fs loading, %llu byte(s) written\n",
            health.cache_hits, health.cache_misses,
            percent(static_cast<double>(health.cache_hits) /
                    static_cast<double>(health.cache_hits +
                                        health.cache_misses))
                .c_str(),
            health.cache_load_seconds,
            static_cast<unsigned long long>(health.cache_write_bytes));
        if (health.cache_open_seconds + health.cache_checksum_seconds +
                health.cache_parse_seconds >
            0.0) {
            out += strprintf(
                "  load split: %.3fs open, %.3fs checksum, %.3fs "
                "parse (%zu mmap view(s))\n",
                health.cache_open_seconds, health.cache_checksum_seconds,
                health.cache_parse_seconds, health.cache_mmap_loads);
        }
    }
    if (health.resume_rejected) {
        out += strprintf("RESUME REJECTED: %s\n",
                         health.resume_reject_reason.c_str());
    }
    bool any_error = false;
    for (std::size_t c = 0; c < kErrorCodeCount; ++c) {
        any_error |= health.errors[c] != 0;
    }
    if (any_error) {
        Table histogram({"error class", "count"});
        for (std::size_t c = 0; c < kErrorCodeCount; ++c) {
            if (health.errors[c] == 0) {
                continue;
            }
            histogram.add_row(
                {error_code_name(static_cast<ErrorCode>(c)),
                 std::to_string(health.errors[c])});
        }
        out += histogram.render();
    }
    for (const QuarantineEntry &entry : health.quarantine_log) {
        out += strprintf("quarantined: %s (%s): %s\n",
                         entry.exe_name.empty()
                             ? "<unnamed>"
                             : entry.exe_name.c_str(),
                         error_code_name(entry.code),
                         entry.message.c_str());
    }
    if (health.quarantined > health.quarantine_log.size()) {
        out += strprintf(
            "... and %zu more quarantined executable(s)\n",
            health.quarantined - health.quarantine_log.size());
    }
    return out;
}

std::string
render_health(const ScanHealth &health, const trace::Snapshot &metrics)
{
    std::string out = render_health(health);
    if (!metrics.counters.empty()) {
        Table work({"metric", "count"});
        for (const auto &[name, value] : metrics.counters) {
            if (value != 0) {
                work.add_row({name, std::to_string(value)});
            }
        }
        out += work.render();
    }
    if (metrics.events_dropped != 0) {
        out += strprintf("trace ring overflow: %llu event(s) dropped\n",
                         static_cast<unsigned long long>(
                             metrics.events_dropped));
    }
    return out;
}

std::string
render_shard_breakdown(const std::vector<ShardSlice> &shards)
{
    if (shards.empty()) {
        return "";
    }
    Table table({"shard", "blobs", "searched", "replayed", "findings",
                 "frames", "respawns", "wall s"});
    for (const ShardSlice &slice : shards) {
        table.add_row({std::to_string(slice.shard),
                       std::to_string(slice.blobs),
                       std::to_string(slice.searched),
                       std::to_string(slice.replayed),
                       std::to_string(slice.findings),
                       std::to_string(slice.frames),
                       std::to_string(slice.respawns),
                       strprintf("%.3f", slice.seconds)});
    }
    return table.render();
}

}  // namespace firmup::eval
