/**
 * @file
 * Golden-file tests for the human-readable health report and the flat
 * stats JSON. The inputs are synthetic (fixed counts, fixed times, a
 * hand-built metrics snapshot) so the rendered text is reproducible on
 * any machine; the expected outputs live in tests/golden/.
 *
 * To regenerate after an intentional format change:
 *
 *     FIRMUP_UPDATE_GOLDEN=1 ctest -R Golden
 *
 * then review the golden diff like any other code change.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "eval/report.h"
#include "support/trace.h"

namespace firmup::eval {
namespace {

std::string
golden_path(const std::string &name)
{
    return std::string(FIRMUP_GOLDEN_DIR) + "/" + name;
}

/** Compare @p actual to the golden file, or rewrite it when updating. */
void
check_golden(const std::string &name, const std::string &actual)
{
    const std::string path = golden_path(name);
    if (std::getenv("FIRMUP_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::binary);
        out << actual;
        ASSERT_TRUE(static_cast<bool>(out)) << "cannot write " << path;
        return;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(static_cast<bool>(in))
        << "missing golden file " << path
        << " (regenerate with FIRMUP_UPDATE_GOLDEN=1)";
    std::stringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(expected.str(), actual)
        << "golden mismatch for " << name
        << " (intentional? regenerate with FIRMUP_UPDATE_GOLDEN=1)";
}

/** A fully-populated, deterministic health record. */
ScanHealth
synthetic_health()
{
    ScanHealth health;
    health.images_seen = 5;
    health.images_rejected = 1;
    health.members_damaged = 2;
    health.executables_seen = 12;
    health.lifted_ok = 10;
    health.quarantined = 2;
    health.games_played = 10;
    health.games_unresolved = 1;
    health.cache_hits = 9;
    health.cache_misses = 3;
    health.cache_write_bytes = 16384;
    health.cache_load_seconds = 0.0625;
    health.load_seconds = 0.375;
    health.load_cpu_seconds = 1.125;
    health.index_seconds = 1.5;
    health.index_cpu_seconds = 5.25;
    health.query_seconds = 0.5;
    health.query_cpu_seconds = 1.75;
    health.game_seconds = 0.75;
    health.game_cpu_seconds = 0.7;
    health.confirm_seconds = 0.125;
    health.confirm_cpu_seconds = 0.1;
    health.match_wall_seconds = 0.25;
    health.journal_seconds = 0.0625;
    health.journal_cpu_seconds = 0.015625;
    health.note_error(ErrorCode::TruncatedMember);
    health.note_error(ErrorCode::TruncatedMember);
    health.note_error(ErrorCode::MalformedContainer);
    health.note_error(ErrorCode::BudgetExhausted);
    health.quarantine_log.push_back(
        {"busybox", ErrorCode::LiftBailout, "undecodable at +0x40"});
    health.quarantine_log.push_back(
        {"", ErrorCode::TruncatedMember, "member shorter than header"});
    return health;
}

/** A hand-built snapshot; never touches the global registry. */
trace::Snapshot
synthetic_snapshot()
{
    trace::Snapshot snapshot;
    snapshot.counters["game.pairs_scored"] = 5885;
    snapshot.counters["game.pairs_pruned"] = 4458;
    snapshot.counters["lift.procedures"] = 227;
    snapshot.counters["unpack.images"] = 4;
    snapshot.counters["never.incremented"] = 0;  // must not render
    snapshot.gauges["corpus.targets"] = 152;
    trace::HistogramSnapshot hist;
    hist.count = 16;
    hist.sum = 234;
    hist.max = 40;
    hist.buckets[5] = 16;
    snapshot.histograms["game.steps_per_game"] = hist;
    snapshot.events_recorded = 69;
    snapshot.events_dropped = 3;
    return snapshot;
}

TEST(Golden, RenderHealth)
{
    check_golden("render_health.txt", render_health(synthetic_health()));
}

TEST(Golden, RenderHealthWithMetrics)
{
    check_golden(
        "render_health_metrics.txt",
        render_health(synthetic_health(), synthetic_snapshot()));
}

TEST(Golden, HealthSummaryLine)
{
    check_golden("health_summary.txt",
                 synthetic_health().summary() + "\n");
}

TEST(Golden, StatsJson)
{
    check_golden("stats.json", trace::stats_json(synthetic_snapshot()));
}

TEST(Golden, EmptyHealthHasNoTables)
{
    // A pristine record renders as the bare summary line: no stage
    // table, no histogram, no quarantine log.
    const std::string text = render_health(ScanHealth{});
    EXPECT_EQ(text.find('|'), std::string::npos) << text;
    check_golden("render_health_empty.txt", text);
}

}  // namespace
}  // namespace firmup::eval
