/**
 * @file
 * Determinism regression: a corpus-wide search must produce identical
 * match results AND identical work metrics (pairs scored/pruned, game
 * steps, strand counts) regardless of the worker-thread count. The
 * metric sums are order-independent integers, so any divergence means a
 * worker raced on shared state — exactly the bug class this guards
 * against. Also exercises the FIRMUP_THREADS environment override.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "codegen/build.h"
#include "eval/driver.h"
#include "firmware/catalog.h"
#include "firmware/corpus.h"
#include "lifter/cfg.h"
#include "sim/similarity.h"
#include "strand/memo.h"
#include "support/trace.h"

namespace firmup::eval {
namespace {

/** The work counters that must not depend on the fan-out width. */
const char *const kInvariantCounters[] = {
    "game.games",          "game.steps",
    "game.pairs_scored",   "game.pairs_pruned",
    "game.scoring_elem_ops", "game.rival_turns",
    "game.matched",        "game.unresolved",
    "lift.executables",    "lift.procedures",
    "canon.strands_extracted", "index.posting_incidences",
    "canon.memo_hits",     "canon.memo_misses",
};

struct ScanRun
{
    std::vector<CorpusOutcome> outcomes;
    std::map<std::string, std::uint64_t> counters;
    ScanHealth health;
};

ScanRun
scan(const firmware::CveRecord &cve,
     const std::vector<CorpusTarget> &targets, unsigned threads)
{
    trace::MetricsRegistry::global().reset();
    ScanRun run;
    Driver driver;
    run.outcomes = driver.search_corpus(cve, targets, threads);
    const trace::Snapshot snapshot =
        trace::MetricsRegistry::global().snapshot();
    for (const char *name : kInvariantCounters) {
        run.counters[name] = snapshot.counter(name);
    }
    run.health = driver.health();
    return run;
}

void
expect_same(const ScanRun &reference, const ScanRun &run,
            const std::string &label)
{
    ASSERT_EQ(run.outcomes.size(), reference.outcomes.size()) << label;
    for (std::size_t i = 0; i < reference.outcomes.size(); ++i) {
        const SearchOutcome &a = reference.outcomes[i].outcome;
        const SearchOutcome &b = run.outcomes[i].outcome;
        EXPECT_EQ(run.outcomes[i].indexed, reference.outcomes[i].indexed)
            << label << " target " << i;
        EXPECT_EQ(b.detected, a.detected) << label << " target " << i;
        EXPECT_EQ(b.matched_entry, a.matched_entry)
            << label << " target " << i;
        EXPECT_EQ(b.sim, a.sim) << label << " target " << i;
        EXPECT_EQ(b.steps, a.steps) << label << " target " << i;
        EXPECT_EQ(b.unresolved, a.unresolved)
            << label << " target " << i;
    }
    for (const auto &[name, value] : reference.counters) {
        EXPECT_EQ(run.counters.at(name), value) << label << " " << name;
    }
    EXPECT_EQ(run.health.games_played, reference.health.games_played)
        << label;
    EXPECT_EQ(run.health.games_unresolved,
              reference.health.games_unresolved)
        << label;
    EXPECT_EQ(run.health.executables_seen,
              reference.health.executables_seen)
        << label;
    // The canon memo's hit/miss split is schedule-invariant by
    // construction (each distinct block key costs exactly one miss; all
    // later sightings are hits, whichever worker gets there first).
    EXPECT_EQ(run.health.canon_memo_hits,
              reference.health.canon_memo_hits)
        << label;
    EXPECT_EQ(run.health.canon_memo_misses,
              reference.health.canon_memo_misses)
        << label;
    EXPECT_TRUE(run.health.sane()) << label;
}

TEST(TraceDeterminism, SearchCorpusStatsIdenticalAcrossThreadCounts)
{
    // Metrics on, spans off: the counters under test are exactly the
    // ones a production `--stats-json` run collects.
    trace::set_level(trace::Level::Metrics);

    firmware::CorpusOptions corpus_options;
    corpus_options.num_devices = 3;
    const firmware::Corpus corpus =
        firmware::build_corpus(corpus_options);
    const std::vector<CorpusTarget> targets = corpus_targets(corpus);
    ASSERT_FALSE(targets.empty());
    const firmware::CveRecord &cve = firmware::cve_database().front();

    const ScanRun reference = scan(cve, targets, 1);
    // The reference run did real work (otherwise every equality below
    // is vacuous).
    EXPECT_GT(reference.counters.at("game.games"), 0u);
    EXPECT_GT(reference.counters.at("game.pairs_scored"), 0u);
    EXPECT_GT(reference.counters.at("game.scoring_elem_ops"), 0u);
    EXPECT_GT(reference.counters.at("game.rival_turns"), 0u);
    EXPECT_GT(reference.counters.at("canon.memo_misses"), 0u);

    for (const unsigned threads : {2u, 8u}) {
        expect_same(reference, scan(cve, targets, threads),
                    "threads=" + std::to_string(threads));
    }

    // threads=0 resolves through FIRMUP_THREADS when it is set.
    ASSERT_EQ(setenv("FIRMUP_THREADS", "2", /*overwrite=*/1), 0);
    expect_same(reference, scan(cve, targets, 0), "FIRMUP_THREADS=2");
    unsetenv("FIRMUP_THREADS");

    trace::set_level(trace::Level::Off);
    trace::MetricsRegistry::global().reset();
}

TEST(TraceDeterminism, ParallelCanonFanOutIsThreadInvariant)
{
    // The intra-executable canon fan-out (index_executable's per-proc
    // parallel_for) must be invisible: identical index contents and
    // identical canon.* counters at every width.
    trace::set_level(trace::Level::Metrics);

    const auto &pkg = firmware::package_by_name("wget");
    const auto source = firmware::generate_package_source(pkg, "1.15");
    codegen::BuildRequest request;
    request.arch = isa::Arch::Mips32;
    request.profile = compiler::gcc_like_toolchain();
    const auto exe = codegen::build_executable(source, request);
    const lifter::LiftedExecutable lifted =
        lifter::lift_executable(exe).take();

    struct IndexRun
    {
        sim::ExecutableIndex index;
        std::uint64_t strands = 0, hits = 0, misses = 0;
    };
    const auto run_at = [&lifted](unsigned threads) {
        trace::MetricsRegistry::global().reset();
        IndexRun run;
        strand::CanonMemo memo;
        strand::CanonOptions options;
        options.memo = &memo;
        run.index = sim::index_executable(lifted, options, threads);
        const trace::Snapshot snapshot =
            trace::MetricsRegistry::global().snapshot();
        run.strands = snapshot.counter("canon.strands_extracted");
        run.hits = snapshot.counter("canon.memo_hits");
        run.misses = snapshot.counter("canon.memo_misses");
        return run;
    };

    const IndexRun reference = run_at(1);
    ASSERT_FALSE(reference.index.procs.empty());
    EXPECT_GT(reference.strands, 0u);
    EXPECT_GT(reference.misses, 0u);
    for (const unsigned threads : {2u, 8u}) {
        const IndexRun run = run_at(threads);
        const std::string label =
            "threads=" + std::to_string(threads);
        ASSERT_EQ(run.index.procs.size(), reference.index.procs.size())
            << label;
        for (std::size_t i = 0; i < reference.index.procs.size(); ++i) {
            EXPECT_EQ(run.index.procs[i].entry,
                      reference.index.procs[i].entry)
                << label;
            EXPECT_EQ(run.index.procs[i].name,
                      reference.index.procs[i].name)
                << label;
            EXPECT_TRUE(std::ranges::equal(run.index.procs[i].strands,
                                           reference.index.procs[i].strands))
                << label << " proc " << i;
        }
        EXPECT_EQ(run.strands, reference.strands) << label;
        EXPECT_EQ(run.hits, reference.hits) << label;
        EXPECT_EQ(run.misses, reference.misses) << label;
    }

    trace::set_level(trace::Level::Off);
    trace::MetricsRegistry::global().reset();
}

}  // namespace
}  // namespace firmup::eval
