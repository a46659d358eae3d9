/**
 * @file
 * `bench_json [--out FILE] [--devices N] [--only ENTRY]...` — the
 * machine-readable perf snapshot, BENCH_micro.json: posting-list vs
 * dense GetBestMatch, per-game scoring-op reduction on the Table 2
 * workload and the tracing overhead on it, warm-path serial vs parallel
 * search_corpus, the batched multi-CVE hunt vs N serial single-CVE
 * scans, cold vs warm preindex through the persistent index cache, the
 * cold indexing path (canonical-string hashing vs streaming + canon
 * memo), the resident in-process index LRU vs per-scan store loads, and
 * the sharded fleet scan, whose workers are the `firmup` CLI built
 * alongside (FIRMUP_TOOL_PATH).
 *
 * A run of every entry prints the JSON and writes it to FILE (default
 * BENCH_micro.json); `--only ENTRY` (repeatable) restricts the run to
 * the named entries, in the fixed entry order, and writes nothing. Exits
 * 1 when any entry's identity or pass flag is false, 2 on a usage error.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "eval/driver.h"
#include "eval/flags.h"
#include "eval/shard.h"
#include "firmware/corpus.h"
#include "game/game.h"
#include "support/fsio.h"
#include "support/str.h"
#include "support/trace.h"

using namespace firmup;

namespace {

int
usage()
{
    std::fprintf(stderr, "usage: bench_json [--out FILE] [--devices N] "
                         "[--only ENTRY]...\n");
    return 2;
}

}  // namespace

int
main(int argc, char **argv)
{
    static const std::set<std::string> kEntryNames = {
        "best_match",    "game_workload",  "trace_overhead",
        "search_corpus", "multi_hunt",     "index_cache",
        "cold_index",    "resident_cache", "shard_scan"};
    std::string out_path = "BENCH_micro.json";
    firmware::CorpusOptions copt;
    std::set<std::string> only;
    std::vector<std::string> positionals;
    if (!eval::parse_flags(
            {argv + 1, argv + argc},
            {eval::string_flag("--out", out_path),
             eval::number_flag("--devices", copt.num_devices, 1),
             {"--only", eval::Flag::Arity::Value,
              [&only](const std::string &entry) {
                  if (!kEntryNames.contains(entry)) {
                      std::fprintf(stderr,
                                   "bench_json: unknown entry '%s'\n",
                                   entry.c_str());
                      return false;
                  }
                  only.insert(entry);
                  return true;
              }}},
            positionals) ||
        !positionals.empty()) {
        return usage();
    }
    const auto enabled = [&only](const char *entry) {
        return only.empty() || only.contains(entry);
    };
    const firmware::Corpus corpus = firmware::build_corpus(copt);
    const std::vector<eval::CorpusTarget> targets =
        eval::corpus_targets(corpus);
    // FIRMUP_THREADS overrides hardware concurrency, so a CI host with
    // one core can still exercise (and stop skipping) the parallel runs.
    const unsigned hw = eval::resolve_worker_threads(0);
    auto now = [] { return std::chrono::steady_clock::now(); };
    auto secs = [](auto a, auto b) {
        return std::chrono::duration<double>(b - a).count();
    };

    std::vector<std::string> entries;
    entries.push_back(strprintf(
        "  \"corpus\": {\"devices\": %d, \"executables\": %zu, "
        "\"procedures\": %zu}",
        copt.num_devices, corpus.executable_count(),
        corpus.procedure_count()));
    bool all_identical = true;

    // Shared scaffolding for the matching/game entries: one indexed
    // view of the corpus. Skipped entirely when none of them is
    // selected.
    const bool need_indexes = enabled("best_match") ||
                              enabled("game_workload") ||
                              enabled("trace_overhead");
    eval::Driver driver;
    std::vector<const sim::ExecutableIndex *> indexes;
    std::vector<std::span<const std::uint64_t>> reprs;
    if (need_indexes) {
        driver.preindex(corpus, hw);
        for (const eval::CorpusTarget &t : targets) {
            if (const sim::ExecutableIndex *index =
                    driver.index_target(*t.exe)) {
                indexes.push_back(index);
            }
        }
        if (indexes.empty()) {
            std::fprintf(stderr, "bench_json: empty corpus\n");
            return 1;
        }
        for (const sim::ExecutableIndex *index : indexes) {
            for (const sim::ProcEntry &proc : index->procs) {
                reprs.push_back(proc.strands);
            }
        }
    }

    if (enabled("best_match")) {
        // --- posting-list vs dense GetBestMatch, biggest target ---
        const sim::ExecutableIndex *big = indexes.front();
        for (const sim::ExecutableIndex *index : indexes) {
            if (index->procs.size() > big->procs.size()) {
                big = index;
            }
        }
        std::uint64_t best_checksum = 0;
        const auto p0 = now();
        for (const auto &repr : reprs) {
            for (const sim::Candidate &c :
                 sim::shared_candidates(*big, repr)) {
                best_checksum += static_cast<std::uint64_t>(c.sim);
                break;  // existence is enough; count the first
            }
        }
        const double posting_seconds = secs(p0, now());
        const auto d0 = now();
        for (const auto &repr : reprs) {
            for (const sim::ProcEntry &proc : big->procs) {
                best_checksum += static_cast<std::uint64_t>(
                    sim::sim_score(repr, proc.strands));
            }
        }
        const double dense_seconds = secs(d0, now());
        entries.push_back(strprintf(
            "  \"best_match\": {\"queries\": %zu, \"target_procs\": %zu, "
            "\"posting_seconds\": %.6f, \"dense_seconds\": %.6f, "
            "\"speedup\": %.2f, \"checksum\": %llu}",
            reprs.size(), big->procs.size(), posting_seconds,
            dense_seconds,
            posting_seconds > 0.0 ? dense_seconds / posting_seconds : 0.0,
            static_cast<unsigned long long>(best_checksum)));
    }

    if (enabled("game_workload") || enabled("trace_overhead")) {
        // --- per-game scoring ops on the Table 2 workload ---
        // Queries are prebuilt so the timed workload is games only.
        std::vector<std::map<isa::Arch, eval::Query>> cve_queries;
        for (const firmware::CveRecord &cve : firmware::cve_database()) {
            cve_queries.push_back(driver.build_queries(cve, targets, hw));
        }
        std::uint64_t pairs_scored = 0, pairs_pruned = 0;
        std::uint64_t elem_ops = 0, dense_elem_ops = 0;
        std::size_t games = 0;
        auto run_games = [&] {
            pairs_scored = pairs_pruned = elem_ops = dense_elem_ops = 0;
            games = 0;
            for (const auto &queries : cve_queries) {
                for (const sim::ExecutableIndex *index : indexes) {
                    const auto qit = queries.find(index->arch);
                    if (qit == queries.end()) {
                        continue;
                    }
                    const game::GameResult result = game::match_query(
                        qit->second.index, qit->second.qv, *index,
                        driver.options().game);
                    pairs_scored += result.pairs_scored;
                    pairs_pruned += result.pairs_pruned;
                    elem_ops += result.scoring_elem_ops;
                    dense_elem_ops += result.dense_elem_ops;
                    ++games;
                }
            }
        };
        run_games();
        if (enabled("game_workload")) {
            const std::uint64_t dense_pairs = pairs_scored + pairs_pruned;
            const double pair_reduction =
                pairs_scored == 0 ? 0.0
                                  : static_cast<double>(dense_pairs) /
                                        static_cast<double>(pairs_scored);
            // Element-level operations are the honest cost unit: dense
            // rescoring paid a (|q|+|t|)-element merge per pair per
            // call, the posting path pays one op per probe/incidence on
            // a memo miss.
            const double reduction =
                elem_ops == 0
                    ? 0.0
                    : static_cast<double>(dense_elem_ops) /
                          static_cast<double>(elem_ops);
            entries.push_back(strprintf(
                "  \"game_workload\": {\"games\": %zu, "
                "\"pairs_scored\": %llu, \"pairs_pruned\": %llu, "
                "\"dense_pairs\": %llu, \"pair_reduction\": %.2f, "
                "\"scoring_elem_ops\": %llu, \"dense_elem_ops\": %llu, "
                "\"scoring_reduction\": %.2f}",
                games, static_cast<unsigned long long>(pairs_scored),
                static_cast<unsigned long long>(pairs_pruned),
                static_cast<unsigned long long>(dense_pairs),
                pair_reduction, static_cast<unsigned long long>(elem_ops),
                static_cast<unsigned long long>(dense_elem_ops),
                reduction));
        }
        if (enabled("trace_overhead")) {
            // --- tracing overhead on the same game workload ---
            // Best-of-3 at Level::Off vs Level::Full: the min damps
            // scheduler noise, and the claim under test is that
            // compiled-in tracing costs <2% even fully enabled (one
            // relaxed atomic load per hook when off; batched counter
            // flushes + ring events when on).
            constexpr int kOverheadReps = 3;
            auto timed_games = [&] {
                const auto t0 = now();
                run_games();
                return secs(t0, now());
            };
            const auto best_of_reps = [&] {
                double best = timed_games();
                for (int rep = 1; rep < kOverheadReps; ++rep) {
                    best = std::min(best, timed_games());
                }
                return best;
            };
            const double disabled_seconds = best_of_reps();
            trace::set_level(trace::Level::Full);
            const double enabled_seconds = best_of_reps();
            trace::set_level(trace::Level::Off);
            const double overhead_pct =
                disabled_seconds > 0.0
                    ? (enabled_seconds - disabled_seconds) /
                          disabled_seconds * 100.0
                    : 0.0;
            entries.push_back(strprintf(
                "  \"trace_overhead\": {\"reps\": %d, "
                "\"disabled_seconds\": %.6f, \"enabled_seconds\": %.6f, "
                "\"overhead_pct\": %.2f}",
                kOverheadReps, disabled_seconds, enabled_seconds,
                overhead_pct));
        }
    }

    // Outcome equality for warm-vs-cold / serial-vs-parallel checks.
    auto outcomes_identical =
        [](const std::vector<eval::CorpusOutcome> &a,
           const std::vector<eval::CorpusOutcome> &b) {
            bool same = a.size() == b.size();
            for (std::size_t i = 0; same && i < a.size(); ++i) {
                same = a[i].indexed == b[i].indexed &&
                       a[i].outcome.detected == b[i].outcome.detected &&
                       a[i].outcome.matched_entry ==
                           b[i].outcome.matched_entry &&
                       a[i].outcome.sim == b[i].outcome.sim &&
                       a[i].outcome.steps == b[i].outcome.steps &&
                       a[i].outcome.unresolved ==
                           b[i].outcome.unresolved;
            }
            return same;
        };
    const firmware::CveRecord &cve0 = firmware::cve_database().front();

    if (enabled("search_corpus")) {
        // --- warm-path serial vs parallel search_corpus, first CVE ---
        // Both drivers share one pre-warmed FWIX store, so the timed
        // scans measure the match pipeline (store load + queries +
        // games + confirm) instead of being drowned by first-touch
        // lifting — the cold cost has its own entries (index_cache,
        // cold_index). A 1-worker host has no parallelism to measure:
        // the run is marked skipped instead of reporting a misleading
        // ~1.0x "speedup" (FIRMUP_THREADS=2 unskips it in CI).
        const ScopedTempDir corpus_cache_dir("firmup-bench-corpus");
        eval::SearchOptions warm_options;
        warm_options.index_cache_dir = corpus_cache_dir.path();
        eval::Driver(warm_options).preindex(corpus, hw);  // untimed fill
        const bool corpus_skipped = hw <= 1;
        double serial_seconds = 0.0;
        std::vector<eval::CorpusOutcome> serial;
        if (!corpus_skipped) {
            const auto s0 = now();
            serial = eval::Driver(warm_options).search_corpus(cve0, targets, 1);
            serial_seconds = secs(s0, now());
        }
        eval::Driver parallel_driver(warm_options);
        const auto s1 = now();
        const auto parallel = parallel_driver.search_corpus(cve0, targets, hw);
        const double parallel_seconds = secs(s1, now());
        const bool identical =
            corpus_skipped || outcomes_identical(serial, parallel);
        all_identical = all_identical && identical;
        const eval::ScanHealth &stages = parallel_driver.health();
        entries.push_back(strprintf(
            "  \"search_corpus\": {\"targets\": %zu, \"warm\": true, "
            "\"serial_seconds\": %.6f, \"parallel_seconds\": %.6f, "
            "\"threads\": %u, \"hardware_concurrency\": %u, "
            "\"skipped\": %s, \"speedup\": %.2f, \"identical\": %s}",
            targets.size(), serial_seconds, parallel_seconds, hw, hw,
            corpus_skipped ? "true" : "false",
            parallel_seconds > 0.0 ? serial_seconds / parallel_seconds
                                   : 0.0,
            identical ? "true" : "false"));
        entries.push_back(strprintf(
            "  \"stage_seconds\": {\"index\": %.6f, \"index_cpu\": %.6f, "
            "\"cache_load\": %.6f, \"cache_open\": %.6f, "
            "\"cache_checksum\": %.6f, \"cache_parse\": %.6f, "
            "\"mmap_loads\": %zu, \"games\": %.6f, \"games_cpu\": %.6f, "
            "\"confirm\": %.6f, \"confirm_cpu\": %.6f, "
            "\"match_wall\": %.6f}",
            stages.index_seconds, stages.index_cpu_seconds,
            stages.cache_load_seconds, stages.cache_open_seconds,
            stages.cache_checksum_seconds, stages.cache_parse_seconds,
            stages.cache_mmap_loads, stages.game_seconds,
            stages.game_cpu_seconds, stages.confirm_seconds,
            stages.confirm_cpu_seconds, stages.match_wall_seconds));
    }

    if (enabled("multi_hunt")) {
        // --- batched multi-CVE hunt vs N serial single-CVE scans ---
        // The production shape of ROADMAP item 2: hunt the whole CVE
        // database across the corpus. Both sides run the warm path off
        // one pre-warmed FWIX store; the serial baseline is N
        // independent single-CVE drivers at 1 thread (each pays a full
        // store load, the pre-batch cost model), the batch driver loads
        // every target once and fans the (query, target) grid across
        // the work-stealing scheduler at `hw` threads. The per-(q, t)
        // outcome grids must agree bit-for-bit (exit-enforced). Skipped
        // on 1-worker hosts like search_corpus; FIRMUP_THREADS=2
        // unskips.
        const std::vector<firmware::CveRecord> &hunt_cves =
            firmware::cve_database();
        const ScopedTempDir hunt_cache_dir("firmup-bench-hunt");
        eval::SearchOptions hunt_options;
        hunt_options.index_cache_dir = hunt_cache_dir.path();
        {
            // Untimed store fill: target indexes plus every query's
            // recipe entry, so the timed serial and batch passes below
            // both run fully warm — neither side pays codegen.
            eval::Driver store_warmer(hunt_options);
            store_warmer.preindex(corpus, hw);
            store_warmer.search_corpus_batch(hunt_cves, targets, hw);
        }
        const bool hunt_skipped = hw <= 1;
        double serial_seconds = 0.0;
        std::vector<std::vector<eval::CorpusOutcome>> serial_rows;
        if (!hunt_skipped) {
            const auto s0 = now();
            for (const firmware::CveRecord &cve : hunt_cves) {
                eval::Driver single(hunt_options);
                serial_rows.push_back(
                    single.search_corpus(cve, targets, 1));
            }
            serial_seconds = secs(s0, now());
        }
        eval::Driver batch_driver(hunt_options);
        const auto b0 = now();
        const std::vector<std::vector<eval::CorpusOutcome>> grid =
            batch_driver.search_corpus_batch(hunt_cves, targets, hw);
        const double batch_seconds = secs(b0, now());
        const bool hunt_identical =
            hunt_skipped ||
            std::ranges::equal(serial_rows, grid, outcomes_identical);
        all_identical = all_identical && hunt_identical;
        entries.push_back(strprintf(
            "  \"multi_hunt\": {\"queries\": %zu, \"targets\": %zu, "
            "\"serial_seconds\": %.6f, \"batch_seconds\": %.6f, "
            "\"threads\": %u, \"skipped\": %s, \"speedup\": %.2f, "
            "\"identical\": %s}",
            hunt_cves.size(), targets.size(), serial_seconds,
            batch_seconds, hw, hunt_skipped ? "true" : "false",
            !hunt_skipped && batch_seconds > 0.0
                ? serial_seconds / batch_seconds
                : 0.0,
            hunt_identical ? "true" : "false"));
    }

    if (enabled("index_cache")) {
        // --- cold vs warm preindex through the persistent cache ---
        // Two fresh drivers share one content-addressed store: the
        // first run lifts and writes back, the second must serve every
        // index from disk (cache_misses == 0) and reproduce the cold
        // scan bit-identically.
        const ScopedTempDir cache_dir("firmup-bench-cache");
        eval::SearchOptions cache_options;
        cache_options.index_cache_dir = cache_dir.path();
        eval::Driver cold_driver(cache_options);
        const auto c0 = now();
        cold_driver.preindex(corpus, hw);
        const double cold_seconds = secs(c0, now());
        const auto cold_outcomes =
            cold_driver.search_corpus(cve0, targets, hw);
        eval::Driver warm_driver(cache_options);
        const auto w0 = now();
        warm_driver.preindex(corpus, hw);
        const double warm_seconds = secs(w0, now());
        const auto warm_outcomes =
            warm_driver.search_corpus(cve0, targets, hw);
        const bool cache_identical =
            outcomes_identical(cold_outcomes, warm_outcomes) &&
            warm_driver.health().cache_misses == 0;
        all_identical = all_identical && cache_identical;
        const eval::ScanHealth &cold_health = cold_driver.health();
        const eval::ScanHealth &warm_health = warm_driver.health();
        entries.push_back(strprintf(
            "  \"index_cache\": {\"executables\": %zu, "
            "\"cold_seconds\": %.6f, \"warm_seconds\": %.6f, "
            "\"speedup\": %.2f, \"cache_hits\": %zu, "
            "\"cache_misses\": %zu, \"write_bytes\": %llu, "
            "\"canon_memo_hits\": %llu, \"canon_memo_misses\": %llu, "
            "\"identical\": %s}",
            warm_health.cache_hits, cold_seconds, warm_seconds,
            warm_seconds > 0.0 ? cold_seconds / warm_seconds : 0.0,
            warm_health.cache_hits, warm_health.cache_misses,
            static_cast<unsigned long long>(
                cold_health.cache_write_bytes),
            static_cast<unsigned long long>(
                cold_health.canon_memo_hits),
            static_cast<unsigned long long>(
                cold_health.canon_memo_misses),
            cache_identical ? "true" : "false"));
    }

    if (enabled("cold_index")) {
        // --- cold indexing: canonical-string hashing vs streaming +
        // canon memo, over pre-lifted executables ---
        // Lifting is hoisted out (untimed) so the entry isolates the
        // canonicalize+hash+finalize stage the tentpole optimized.
        // Best-of-3 per path; the memo is rebuilt fresh each rep so
        // every rep pays the same cold misses.
        std::vector<lifter::LiftedExecutable> lifted_exes;
        {
            std::set<std::uint64_t> seen;
            for (const eval::CorpusTarget &t : targets) {
                if (!seen.insert(eval::content_key(*t.exe)).second) {
                    continue;
                }
                auto lifted = lifter::lift_executable(*t.exe);
                if (lifted.ok() && !lifted.value().procs.empty()) {
                    lifted_exes.push_back(std::move(lifted).take());
                }
            }
        }
        std::size_t cold_blocks = 0;
        for (const lifter::LiftedExecutable &lifted : lifted_exes) {
            for (const auto &[entry, proc] : lifted.procs) {
                cold_blocks += proc.blocks.size();
            }
        }
        constexpr int kColdReps = 3;
        // Best-of-3 wall time to index every lifted executable, single
        // threaded on both paths: this entry measures the algorithmic
        // win, not core count. The first rep's indexes are kept; the
        // streaming path gets a fresh memo per rep, so every rep pays
        // the same cold misses.
        strand::CanonMemo::Stats memo_stats{};
        const auto time_path = [&](bool stream,
                                   std::vector<sim::ExecutableIndex> &first) {
            double best = 0.0;
            for (int rep = 0; rep < kColdReps; ++rep) {
                strand::CanonMemo memo;
                strand::CanonOptions canon;
                canon.stream_hash = stream;
                canon.memo = stream ? &memo : nullptr;
                std::vector<sim::ExecutableIndex> built;
                built.reserve(lifted_exes.size());
                const auto t0 = now();
                for (const lifter::LiftedExecutable &lifted : lifted_exes) {
                    built.push_back(sim::index_executable(lifted, canon, 1));
                }
                const double elapsed = secs(t0, now());
                best = rep == 0 ? elapsed : std::min(best, elapsed);
                if (stream) {
                    memo_stats = memo.stats();
                }
                if (rep == 0) {
                    first = std::move(built);
                }
            }
            return best;
        };
        // Baseline: materialize the canonical string per strand and
        // hash it, no memo — the pre-streaming cold path — against
        // streamed hashing plus a cross-executable canon memo.
        std::vector<sim::ExecutableIndex> base_indexes, fast_indexes;
        const double string_seconds = time_path(false, base_indexes);
        const double stream_seconds = time_path(true, fast_indexes);
        // Hard invariant: both paths produce bit-identical indexes.
        const bool cold_identical = std::ranges::equal(
            base_indexes, fast_indexes,
            [](const sim::ExecutableIndex &a, const sim::ExecutableIndex &b) {
                return std::ranges::equal(a.blob, b.blob);
            });
        all_identical = all_identical && cold_identical;
        const std::uint64_t memo_total =
            memo_stats.hits + memo_stats.misses;
        entries.push_back(strprintf(
            "  \"cold_index\": {\"executables\": %zu, \"blocks\": %zu, "
            "\"reps\": %d, \"string_seconds\": %.6f, "
            "\"stream_memo_seconds\": %.6f, \"speedup\": %.2f, "
            "\"memo_hits\": %llu, \"memo_misses\": %llu, "
            "\"memo_hit_rate\": %.3f, \"identical\": %s}",
            lifted_exes.size(), cold_blocks, kColdReps, string_seconds,
            stream_seconds,
            stream_seconds > 0.0 ? string_seconds / stream_seconds : 0.0,
            static_cast<unsigned long long>(memo_stats.hits),
            static_cast<unsigned long long>(memo_stats.misses),
            memo_total > 0 ? static_cast<double>(memo_stats.hits) /
                                 static_cast<double>(memo_total)
                           : 0.0,
            cold_identical ? "true" : "false"));
    }

    if (enabled("resident_cache")) {
        // --- resident in-process LRU vs per-scan store loads ---
        // Every timed scan below runs warm off one pre-filled FWIX
        // store; what varies is the in-process tier. The baseline is a
        // fresh driver per rep (every target index loaded from the
        // store: mmap open + checksum + view materialization); the hot
        // side shares one budget-unbounded ResidentIndexCache populated
        // by an untimed pass, so its drivers serve every index from
        // memory — zero store I/O, zero re-parses (asserted below).
        // Speedup compares the lift+index stage wall clock, which is
        // exactly the phase the resident tier short-circuits. Findings
        // must be bit-identical across baseline, hot, --no-mmap and a
        // budget-0 resident cache (the exit-enforced flag); the pass
        // flag additionally requires the >=3x stage win the CI gate
        // asserts.
        const ScopedTempDir resident_cache_dir("firmup-bench-resident");
        eval::SearchOptions ropt;
        ropt.index_cache_dir = resident_cache_dir.path();
        eval::Driver(ropt).preindex(corpus, hw);  // untimed store fill
        constexpr int kResidentReps = 3;
        // Best-of-3 fresh drivers by lift+index stage time: the health
        // is the best rep's, the rows the first rep's.
        const auto best_stage = [&](const eval::SearchOptions &opt,
                                    eval::ScanHealth &best,
                                    std::vector<eval::CorpusOutcome> &rows) {
            for (int rep = 0; rep < kResidentReps; ++rep) {
                eval::Driver driver(opt);
                auto got = driver.search_corpus(cve0, targets, hw);
                if (rep == 0 || driver.health().index_seconds <
                                    best.index_seconds) {
                    best = driver.health();
                }
                if (rep == 0) {
                    rows = std::move(got);
                }
            }
            return best.index_seconds;
        };
        // Warm-store baseline.
        eval::ScanHealth warm_health;
        std::vector<eval::CorpusOutcome> warm_rows;
        const double warm_stage = best_stage(ropt, warm_health, warm_rows);
        // Resident tier: one shared cache, untimed fill pass, then
        // best-of-3 fresh drivers that must run entirely hot.
        sim::ResidentIndexCache resident(std::size_t{1} << 30);
        eval::SearchOptions hot_opt = ropt;
        hot_opt.resident_cache = &resident;
        eval::Driver(hot_opt).search_corpus(cve0, targets, hw);
        eval::ScanHealth hot_health;
        std::vector<eval::CorpusOutcome> hot_rows;
        const double hot_stage = best_stage(hot_opt, hot_health, hot_rows);
        // Ablations, one rep each: --no-mmap reads and a budget-0
        // resident cache must change nothing but the timings.
        eval::SearchOptions nomap_opt = ropt;
        nomap_opt.mmap_index = false;
        eval::Driver nomap_driver(nomap_opt);
        const auto nomap_rows =
            nomap_driver.search_corpus(cve0, targets, hw);
        sim::ResidentIndexCache empty_resident(0);
        eval::SearchOptions zero_opt = ropt;
        zero_opt.resident_cache = &empty_resident;
        eval::Driver zero_driver(zero_opt);
        const auto zero_rows =
            zero_driver.search_corpus(cve0, targets, hw);
        const bool resident_identical =
            outcomes_identical(warm_rows, hot_rows) &&
            outcomes_identical(warm_rows, nomap_rows) &&
            outcomes_identical(warm_rows, zero_rows);
        // Hot scans must never fall back to the store: a single store
        // load (or re-parse) on the resident path is a correctness bug
        // in the tier order, not a timing wobble.
        const bool no_store_io = hot_health.cache_hits == 0 &&
                                 hot_health.cache_misses == 0 &&
                                 hot_health.resident_misses == 0;
        const double resident_speedup =
            hot_stage > 0.0 ? warm_stage / hot_stage : 0.0;
        const bool resident_pass =
            resident_identical && no_store_io && resident_speedup >= 3.0;
        all_identical = all_identical && resident_identical;
        entries.push_back(strprintf(
            "  \"resident_cache\": {\"targets\": %zu, \"reps\": %d, "
            "\"warm_stage_seconds\": %.6f, \"hot_stage_seconds\": %.6f, "
            "\"speedup\": %.2f, \"warm_cache_hits\": %zu, "
            "\"warm_mmap_loads\": %zu, \"warm_open_seconds\": %.6f, "
            "\"warm_checksum_seconds\": %.6f, "
            "\"warm_parse_seconds\": %.6f, \"resident_hits\": %zu, "
            "\"resident_misses\": %zu, \"resident_evictions\": %zu, "
            "\"no_store_io\": %s, \"identical\": %s, \"pass\": %s}",
            targets.size(), kResidentReps, warm_stage, hot_stage,
            resident_speedup, warm_health.cache_hits,
            warm_health.cache_mmap_loads, warm_health.cache_open_seconds,
            warm_health.cache_checksum_seconds,
            warm_health.cache_parse_seconds, hot_health.resident_hits,
            hot_health.resident_misses, hot_health.resident_evictions,
            no_store_io ? "true" : "false",
            resident_identical ? "true" : "false",
            resident_pass ? "true" : "false"));
    }

    if (enabled("shard_scan")) {
        // --- coordinator/worker fleet scan vs 1 worker, scale-10 ---
        // The corpus is packed to real blobs (workers are separate
        // processes and must unpack from disk) and a shared FWIX store
        // is pre-warmed untimed, so the timed fleets measure the scan
        // pipeline, not first-touch lifting. Findings must be
        // bit-identical across worker counts (exit-enforced), and an
        // immediate rescan against the persisted state manifest must
        // re-search 0 targets with zero lift/canon work and zero store
        // I/O (also exit-enforced). The >=1.6x wall-clock gate needs
        // real parallel hardware: it is enforced only when the host has
        // >= 3 cores, with the measured speedup reported regardless.
        firmware::CorpusOptions scaled = copt;
        scaled.scale = 10;
        const firmware::Corpus sc = firmware::build_corpus(scaled);
        const ScopedTempDir base_dir("firmup-bench-shard");
        const std::string store_dir = base_dir.path() + "/store";
        const std::string state_dir = base_dir.path() + "/state";
        auto written =
            firmware::write_corpus_blobs(sc, scaled.seed, base_dir.path());
        const bool shard_setup_ok = written.ok();
        const std::vector<std::string> blob_paths =
            shard_setup_ok ? std::move(written).take()
                           : std::vector<std::string>{};
        eval::SearchOptions warm;
        warm.index_cache_dir = store_dir;
        eval::Driver(warm).preindex(sc, hw);  // untimed store fill
        const auto fleet = [&](std::size_t workers,
                               const std::string &state) {
            eval::ShardScanOptions so;
            so.cve_ids = {cve0.cve_id};
            so.blob_paths = blob_paths;
            so.workers = workers;
            so.worker_threads = 1;
            so.index_cache_dir = store_dir;
            so.state_dir = state;
            so.quiet = true;
            return eval::run_shard_scan(FIRMUP_TOOL_PATH, so);
        };
        const eval::FleetReport one = fleet(1, "");
        const eval::FleetReport three = fleet(3, state_dir);
        const eval::FleetReport rescan = fleet(3, state_dir);
        const bool shard_identical =
            shard_setup_ok && one.ok && three.ok && rescan.ok &&
            one.findings == three.findings &&
            one.findings == rescan.findings;
        // The incremental rescan must be pure replay: nothing searched,
        // nothing lifted or canonicalized, no store traffic.
        const bool incremental_ok =
            rescan.ok && rescan.state_reused &&
            rescan.targets_searched == 0 &&
            rescan.incremental_skips > 0 &&
            rescan.health.canon_memo_misses == 0 &&
            rescan.health.cache_hits == 0 &&
            rescan.health.cache_misses == 0;
        const unsigned cores = std::thread::hardware_concurrency();
        const double shard_speedup =
            three.wall_seconds > 0.0
                ? one.wall_seconds / three.wall_seconds
                : 0.0;
        const bool speedup_enforced = cores >= 3;
        const bool speedup_ok =
            !speedup_enforced || shard_speedup >= 1.6;
        all_identical = all_identical && shard_identical &&
                        incremental_ok && speedup_ok;
        entries.push_back(strprintf(
            "  \"shard_scan\": {\"blobs\": %zu, \"findings\": %zu, "
            "\"one_worker_seconds\": %.6f, "
            "\"three_worker_seconds\": %.6f, \"speedup\": %.2f, "
            "\"cores\": %u, \"speedup_enforced\": %s, "
            "\"speedup_ok\": %s, \"reassignments\": %zu, "
            "\"incremental_searched\": %zu, "
            "\"incremental_replayed\": %zu, \"incremental_ok\": %s, "
            "\"identical\": %s, \"pass\": %s}",
            blob_paths.size(), one.findings.size(), one.wall_seconds,
            three.wall_seconds, shard_speedup, cores,
            speedup_enforced ? "true" : "false",
            speedup_ok ? "true" : "false", three.reassignments,
            rescan.targets_searched, rescan.incremental_skips,
            incremental_ok ? "true" : "false",
            shard_identical ? "true" : "false",
            shard_identical && incremental_ok && speedup_ok
                ? "true"
                : "false"));
    }

    const std::string json = "{\n" + join(entries, ",\n") + "\n}\n";
    std::printf("%s", json.c_str());
    if (only.empty()) {
        // A partial run must not clobber the full snapshot: only a run
        // of every entry writes the tracked BENCH file.
        std::ofstream out(out_path, std::ios::binary);
        out << json;
        if (!out) {
            std::fprintf(stderr, "firmup: cannot write %s\n",
                         out_path.c_str());
            return 1;
        }
        std::fprintf(stderr, "wrote %s\n", out_path.c_str());
    }
    return all_identical ? 0 : 1;
}
