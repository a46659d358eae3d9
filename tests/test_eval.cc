/**
 * @file
 * Evaluation-driver tests: query construction, version resolution, the
 * detection threshold (including a literal oracle of its dominance
 * fallback), the step histogram, report rendering, and a small
 * end-to-end labeled run.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <tuple>

#include "codegen/build.h"
#include "eval/experiments.h"
#include "eval/report.h"

namespace firmup::eval {
namespace {

/** A fresh per-test index store directory under the gtest temp root. */
std::string
fresh_store_dir(const std::string &tag)
{
    const std::filesystem::path dir =
        std::filesystem::path(testing::TempDir()) / ("firmup-eval-" + tag);
    std::filesystem::remove_all(dir);
    return dir.string();
}

TEST(Driver, LatestVulnerableVersion)
{
    for (const firmware::CveRecord &cve : firmware::cve_database()) {
        const std::string version = latest_vulnerable_version(cve);
        const auto &pkg = firmware::package_by_name(cve.package);
        EXPECT_TRUE(cve.affects(pkg, version)) << cve.cve_id;
        // No later catalog version is still vulnerable.
        const int v = pkg.version_index(version);
        for (std::size_t later = static_cast<std::size_t>(v) + 1;
             later < pkg.versions.size(); ++later) {
            EXPECT_FALSE(cve.affects(pkg, pkg.versions[later]))
                << cve.cve_id;
        }
    }
}

TEST(Driver, BuildQueryFindsProcedure)
{
    Driver driver;
    const Query query = driver.build_query(
        firmware::cve_database()[0], isa::Arch::Arm32);
    EXPECT_GE(query.qv, 0);
    EXPECT_EQ(query.package, "vsftpd");
    EXPECT_FALSE(query.index.procs.empty());
    EXPECT_EQ(query.index.procs[static_cast<std::size_t>(query.qv)].name,
              "vsf_filename_passes_filter");
    // The BinDiff path's graph of the same query executable holds the
    // query procedure at the entry its strand index gives it.
    const baseline::GraphIndex graph = query_graph(query);
    EXPECT_FALSE(graph.procs.empty());
    EXPECT_TRUE(graph.by_entry.contains(
        query.index.procs[static_cast<std::size_t>(query.qv)].entry));
}

TEST(Driver, SelfSearchDetectsWithPerfectSim)
{
    Driver driver;
    const Query query = driver.build_query("wget", "ftp_retrieve_glob",
                                           "1.15", isa::Arch::Mips32);
    const SearchOutcome outcome =
        driver.search(query, query.index);
    ASSERT_TRUE(outcome.detected);
    EXPECT_EQ(outcome.matched_entry,
              query.index.procs[static_cast<std::size_t>(query.qv)]
                  .entry);
    EXPECT_EQ(static_cast<std::size_t>(outcome.sim),
              query.index.procs[static_cast<std::size_t>(query.qv)]
                  .strands.size());
}

TEST(Driver, ThresholdGatesDetection)
{
    Driver driver;
    driver.options().min_confirm_ratio = 2.0;   // impossible bar
    driver.options().min_margin_ratio = 2.0;    // fallback off too
    const Query query = driver.build_query("wget", "ftp_retrieve_glob",
                                           "1.15", isa::Arch::Mips32);
    EXPECT_FALSE(driver.search(query, query.index).detected);
    // match() ignores the threshold.
    EXPECT_TRUE(driver.match(query, query.index).detected);
}

TEST(Driver, IndexCacheReturnsSameObject)
{
    Driver driver;
    const Query query = driver.build_query("bftpd", "bftpdutmp_log",
                                           "2.3", isa::Arch::X86);
    // Two identical executables hit the same cache entry.
    const auto &pkg = firmware::package_by_name("bftpd");
    const auto source = firmware::generate_package_source(pkg, "2.3");
    codegen::BuildRequest request;
    request.arch = isa::Arch::X86;
    request.profile = compiler::gcc_like_toolchain();
    const auto exe = codegen::build_executable(source, request);
    const sim::ExecutableIndex *a = driver.index_target(exe);
    const sim::ExecutableIndex *b = driver.index_target(exe);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a, b);
    EXPECT_EQ(driver.health().executables_seen, 1u);
    EXPECT_EQ(driver.health().lifted_ok, 1u);
}

TEST(Experiments, StepHistogramBuckets)
{
    const auto buckets = step_histogram({1, 1, 2, 3, 4, 7, 12, 30, 100});
    ASSERT_EQ(buckets.size(), 7u);
    EXPECT_EQ(buckets[0], (std::pair<std::string, int>{"1", 2}));
    EXPECT_EQ(buckets[1].second, 1);   // 2
    EXPECT_EQ(buckets[2].second, 2);   // 3-4
    EXPECT_EQ(buckets[3].second, 1);   // 5-8
    EXPECT_EQ(buckets[4].second, 1);   // 9-16
    EXPECT_EQ(buckets[5].second, 1);   // 17-32
    EXPECT_EQ(buckets[6].second, 1);   // >32
}

TEST(Experiments, LabeledRunOnTinyCorpus)
{
    firmware::CorpusOptions corpus_options;
    corpus_options.num_devices = 4;
    const firmware::Corpus corpus =
        firmware::build_corpus(corpus_options);
    Driver driver;
    LabeledOptions options;
    options.run_gitz = true;
    options.run_bindiff = true;
    const LabeledResult result = run_labeled(driver, corpus, options);
    ASSERT_FALSE(result.rows.empty());
    const Tally firmup = result.firmup_total();
    const Tally gitz = result.gitz_total();
    const Tally bindiff = result.bindiff_total();
    // Every tool classifies every target exactly once.
    EXPECT_EQ(firmup.total(), gitz.total());
    EXPECT_EQ(firmup.total(), bindiff.total());
    EXPECT_GT(firmup.total(), 0);
    // FirmUp must do at least as well as the baselines on this corpus.
    EXPECT_GE(firmup.p, gitz.p);
    EXPECT_GE(firmup.p, bindiff.p);
    // Game steps are recorded only for correct matches.
    EXPECT_EQ(result.game_steps.size(),
              static_cast<std::size_t>(firmup.p));
}

TEST(Driver, PreindexMatchesSequentialIndexing)
{
    // preindex (the parallel index_many) and index_target (the same
    // ladder, inline) over one store, with a member that cannot lift:
    // the parallel driver indexes cold and fills the store, the
    // sequential one is served from it, and both must agree on every
    // index and on the discrete health.
    firmware::CorpusOptions corpus_options;
    corpus_options.num_devices = 3;
    firmware::Corpus corpus = firmware::build_corpus(corpus_options);
    loader::Executable corrupt = corpus.images[0].executables[0];
    corrupt.name = "corrupt.bin";
    std::fill(corrupt.text.begin(), corrupt.text.end(),
              std::uint8_t{0xff});  // undecodable on every ISA
    corpus.images[0].executables.push_back(corrupt);
    SearchOptions options;
    options.index_cache_dir = fresh_store_dir("preindex");

    Driver parallel(options);
    const std::size_t indexed = parallel.preindex(corpus, 4);
    EXPECT_GT(indexed, 0u);

    Driver sequential(options);
    for (const auto &image : corpus.images) {
        for (const auto &exe : image.executables) {
            const sim::ExecutableIndex *a = sequential.index_target(exe);
            const sim::ExecutableIndex *b = parallel.index_target(exe);
            if (exe.name == corrupt.name) {
                EXPECT_EQ(a, nullptr);
                EXPECT_EQ(b, nullptr);
                continue;
            }
            ASSERT_NE(a, nullptr) << exe.name;
            ASSERT_NE(b, nullptr) << exe.name;
            ASSERT_EQ(a->procs.size(), b->procs.size()) << exe.name;
            for (std::size_t i = 0; i < a->procs.size(); ++i) {
                EXPECT_EQ(a->procs[i].entry, b->procs[i].entry);
                EXPECT_TRUE(std::ranges::equal(a->procs[i].strands,
                                               b->procs[i].strands));
            }
        }
    }
    // One query each: the parallel driver compiles it and writes its
    // recipe entry, the sequential one is served from the store.
    const firmware::CveRecord &cve = firmware::cve_database()[0];
    const Query built = parallel.build_query(cve, isa::Arch::Arm32);
    const Query loaded = sequential.build_query(cve, isa::Arch::Arm32);
    ASSERT_EQ(loaded.qv, built.qv);
    EXPECT_TRUE(std::ranges::equal(
        loaded.index.procs[static_cast<std::size_t>(loaded.qv)].strands,
        built.index.procs[static_cast<std::size_t>(built.qv)].strands));

    const ScanHealth &ph = parallel.health();
    const ScanHealth &sh = sequential.health();
    EXPECT_EQ(ph.executables_seen, sh.executables_seen);
    EXPECT_EQ(ph.lifted_ok, sh.lifted_ok);
    EXPECT_EQ(ph.quarantined, 1u);
    EXPECT_EQ(sh.quarantined, 1u);
    // Every cold miss is a warm hit, except the member that never
    // lifts: it misses both times.
    EXPECT_EQ(ph.cache_hits, 0u);
    EXPECT_EQ(sh.cache_hits + 1, ph.cache_misses);
    EXPECT_EQ(sh.cache_misses, 1u);
    EXPECT_EQ(ph.query_cache_hits, 0u);
    EXPECT_EQ(ph.query_cache_misses, 1u);
    EXPECT_EQ(sh.query_cache_hits, 1u);
    EXPECT_EQ(sh.query_cache_misses, 0u);
    EXPECT_TRUE(ph.sane());
    EXPECT_TRUE(sh.sane());
}

TEST(Driver, GraphTargetLiftsOnDemandAfterWarmHunt)
{
    // A hunt keeps no lifted IR. After one served entirely from a warm
    // store, graph_target lifts on demand: the graph equals a direct
    // lift's, and the executable is not counted a second time.
    firmware::CorpusOptions corpus_options;
    corpus_options.num_devices = 2;
    const firmware::Corpus corpus =
        firmware::build_corpus(corpus_options);
    const std::vector<CorpusTarget> targets = corpus_targets(corpus);
    ASSERT_FALSE(targets.empty());
    const firmware::CveRecord &cve = firmware::cve_database()[0];
    SearchOptions options;
    options.index_cache_dir = fresh_store_dir("graph-on-demand");
    Driver(options).search_corpus(cve, targets, 2);  // fills the store

    Driver warm(options);
    warm.search_corpus(cve, targets, 2);
    const ScanHealth before = warm.health();
    ASSERT_GT(before.cache_hits, 0u);
    ASSERT_EQ(before.cache_misses, 0u);
    ASSERT_GT(before.query_cache_hits, 0u);
    ASSERT_EQ(before.query_cache_misses, 0u);

    const auto features = [](const baseline::GraphFeatures &f) {
        return std::tie(f.entry, f.name, f.blocks, f.edges, f.calls,
                        f.insts, f.shape_hash, f.callees);
    };
    for (const CorpusTarget &target : targets) {
        const baseline::GraphIndex *graph = warm.graph_target(*target.exe);
        ASSERT_NE(graph, nullptr) << target.exe->name;
        auto lifted = lifter::lift_executable(*target.exe);
        ASSERT_TRUE(lifted.ok()) << target.exe->name;
        const baseline::GraphIndex direct =
            baseline::graph_index(lifted.value());
        EXPECT_EQ(graph->name, direct.name);
        EXPECT_EQ(graph->by_entry, direct.by_entry) << target.exe->name;
        ASSERT_EQ(graph->procs.size(), direct.procs.size())
            << target.exe->name;
        for (std::size_t i = 0; i < direct.procs.size(); ++i) {
            EXPECT_TRUE(features(graph->procs[i]) ==
                        features(direct.procs[i]))
                << target.exe->name << " procedure " << i;
        }
    }
    EXPECT_EQ(warm.health().executables_seen, before.executables_seen);
    EXPECT_EQ(warm.health().lifted_ok, before.lifted_ok);
}

TEST(Driver, CorruptedExecutableIsQuarantinedScanContinues)
{
    // A corpus-like scan where one member's text is garbage: the scan
    // must complete, the bad member must land in health(), and the good
    // members must still index.
    firmware::FirmwareImage image;
    image.vendor = "acme";
    image.device = "router";
    image.version = "1.0";

    const auto &pkg = firmware::package_by_name("bftpd");
    const auto source = firmware::generate_package_source(pkg, "2.3");
    codegen::BuildRequest request;
    request.arch = isa::Arch::X86;
    request.profile = compiler::gcc_like_toolchain();
    image.executables.push_back(
        codegen::build_executable(source, request));

    loader::Executable corrupt = image.executables[0];
    corrupt.name = "corrupt.bin";
    std::fill(corrupt.text.begin(), corrupt.text.end(),
              std::uint8_t{0xff});  // undecodable on every ISA
    image.executables.push_back(corrupt);

    Driver driver;
    int indexed = 0, skipped = 0;
    for (const loader::Executable &exe : image.executables) {
        const sim::ExecutableIndex *target = driver.index_target(exe);
        if (target == nullptr) {
            ++skipped;
        } else {
            ++indexed;
            EXPECT_FALSE(target->procs.empty());
        }
    }
    EXPECT_EQ(indexed, 1);
    EXPECT_EQ(skipped, 1);
    const ScanHealth &health = driver.health();
    EXPECT_TRUE(health.sane());
    EXPECT_EQ(health.executables_seen, 2u);
    EXPECT_EQ(health.lifted_ok, 1u);
    EXPECT_EQ(health.quarantined, 1u);
    ASSERT_EQ(health.quarantine_log.size(), 1u);
    EXPECT_EQ(health.quarantine_log[0].exe_name, "corrupt.bin");

    // Repeat visits stay quarantined without re-counting the executable.
    EXPECT_EQ(driver.index_target(corrupt), nullptr);
    EXPECT_EQ(driver.graph_target(corrupt), nullptr);
    EXPECT_EQ(driver.health().executables_seen, 2u);
    EXPECT_EQ(driver.health().quarantined, 1u);

    // The health report renders the quarantine.
    const std::string report = render_health(health);
    EXPECT_NE(report.find("corrupt.bin"), std::string::npos);
}

TEST(Driver, SearchCorpusParallelMatchesSerial)
{
    firmware::CorpusOptions corpus_options;
    corpus_options.num_devices = 3;
    const firmware::Corpus corpus =
        firmware::build_corpus(corpus_options);
    const std::vector<CorpusTarget> targets = corpus_targets(corpus);
    ASSERT_FALSE(targets.empty());
    const firmware::CveRecord &cve = firmware::cve_database()[0];

    Driver serial_driver;
    const auto serial = serial_driver.search_corpus(cve, targets, 1);
    Driver parallel_driver;
    const auto parallel = parallel_driver.search_corpus(cve, targets, 4);

    ASSERT_EQ(serial.size(), targets.size());
    ASSERT_EQ(parallel.size(), targets.size());
    for (std::size_t i = 0; i < targets.size(); ++i) {
        EXPECT_EQ(parallel[i].target.exe, targets[i].exe);
        EXPECT_EQ(parallel[i].target.image_index,
                  targets[i].image_index);
        EXPECT_EQ(parallel[i].indexed, serial[i].indexed) << i;
        EXPECT_EQ(parallel[i].outcome.detected, serial[i].outcome.detected)
            << i;
        EXPECT_EQ(parallel[i].outcome.matched_entry,
                  serial[i].outcome.matched_entry)
            << i;
        EXPECT_EQ(parallel[i].outcome.sim, serial[i].outcome.sim) << i;
        EXPECT_EQ(parallel[i].outcome.steps, serial[i].outcome.steps)
            << i;
        EXPECT_EQ(parallel[i].outcome.unresolved,
                  serial[i].outcome.unresolved)
            << i;
    }

    // Health bookkeeping merges to the same counts regardless of the
    // worker-thread fan-out.
    const ScanHealth &sh = serial_driver.health();
    const ScanHealth &ph = parallel_driver.health();
    EXPECT_EQ(ph.executables_seen, sh.executables_seen);
    EXPECT_EQ(ph.lifted_ok, sh.lifted_ok);
    EXPECT_EQ(ph.quarantined, sh.quarantined);
    EXPECT_EQ(ph.games_unresolved, sh.games_unresolved);
    EXPECT_TRUE(ph.sane());
    // Stage timers ran on both drivers.
    EXPECT_GT(ph.index_seconds, 0.0);
    EXPECT_GT(ph.game_seconds + ph.confirm_seconds, 0.0);
}

TEST(Driver, SearchCorpusSkipsTargetsWithoutQueryArch)
{
    // Prebuilt-queries entry point: a target whose ISA has no query in
    // the map must come back indexed=false, exactly like the serial
    // lazily-built loop would have skipped it.
    firmware::CorpusOptions corpus_options;
    corpus_options.num_devices = 2;
    const firmware::Corpus corpus =
        firmware::build_corpus(corpus_options);
    const std::vector<CorpusTarget> targets = corpus_targets(corpus);
    ASSERT_FALSE(targets.empty());
    Driver driver;
    const std::map<isa::Arch, Query> empty_queries;
    const auto outcomes =
        driver.search_corpus(empty_queries, targets, 2);
    ASSERT_EQ(outcomes.size(), targets.size());
    for (const CorpusOutcome &co : outcomes) {
        EXPECT_FALSE(co.indexed);
        EXPECT_FALSE(co.outcome.detected);
    }
    // Indexing still happened (and was timed) even though no games ran.
    EXPECT_GT(driver.health().executables_seen, 0u);
    EXPECT_GT(driver.health().index_seconds, 0.0);
    EXPECT_EQ(driver.health().game_seconds, 0.0);
}

/** A procedure's strand set as the paper states it: a std::set. */
std::set<std::uint64_t>
strand_tree(std::span<const std::uint64_t> strands)
{
    return {strands.begin(), strands.end()};
}

int
tree_sim(const std::set<std::uint64_t> &a, const std::set<std::uint64_t> &b)
{
    int shared = 0;
    for (const std::uint64_t h : a) {
        shared += b.contains(h) ? 1 : 0;
    }
    return shared;
}

TEST(Driver, DominanceFallbackMatchesDesignRuleOracle)
{
    // Confirm's accept/reject on every (CVE query, target) pair against
    // the detection rule of DESIGN.md section 5 item 7, written out
    // literally: accept a game match sharing at least
    // max(min_confirm_sim, floor(min_confirm_ratio * |q|)) strands, or
    // at least max(min_confirm_sim, floor(min_margin_ratio * |q|))
    // while sharing margin_factor times the runner-up's — the largest
    // std::set Sim of any other procedure of the target.
    firmware::CorpusOptions corpus_options;
    corpus_options.num_devices = 6;
    const firmware::Corpus corpus =
        firmware::build_corpus(corpus_options);
    const std::vector<CorpusTarget> targets = corpus_targets(corpus);
    ASSERT_FALSE(targets.empty());
    Driver driver;
    const SearchOptions &opt = driver.options();
    int pairs = 0, fallback_accepts = 0, fallback_rejects = 0;
    for (const firmware::CveRecord &cve : firmware::cve_database()) {
        const std::map<isa::Arch, Query> queries =
            driver.build_queries(cve, targets, 2);
        for (const CorpusTarget &corpus_target : targets) {
            const sim::ExecutableIndex *target =
                driver.index_target(*corpus_target.exe);
            if (target == nullptr) {
                continue;
            }
            const auto qit = queries.find(target->arch);
            if (qit == queries.end()) {
                continue;
            }
            const Query &query = qit->second;
            const std::string context =
                cve.cve_id + " vs " + corpus_target.exe->name;
            ++pairs;
            const SearchOutcome game = driver.match_outcome(query, *target);
            const SearchOutcome confirmed =
                driver.search_outcome(query, *target);
            if (!game.detected) {
                EXPECT_FALSE(confirmed.detected) << context;
                continue;
            }
            const std::set<std::uint64_t> q = strand_tree(
                query.index.procs[static_cast<std::size_t>(query.qv)]
                    .strands);
            int sim = -1;
            int runner_up = 0;
            for (const sim::ProcEntry &proc : target->procs) {
                const int s = tree_sim(q, strand_tree(proc.strands));
                if (proc.entry == game.matched_entry) {
                    sim = s;
                } else {
                    runner_up = std::max(runner_up, s);
                }
            }
            ASSERT_EQ(sim, game.sim) << context;
            const double qn = static_cast<double>(q.size());
            const int ratio_floor =
                std::max(opt.min_confirm_sim,
                         static_cast<int>(opt.min_confirm_ratio * qn));
            const int margin_floor =
                std::max(opt.min_confirm_sim,
                         static_cast<int>(opt.min_margin_ratio * qn));
            bool accept = sim >= ratio_floor;
            if (!accept && sim >= margin_floor) {
                accept = static_cast<double>(sim) >=
                         opt.margin_factor * static_cast<double>(runner_up);
                ++(accept ? fallback_accepts : fallback_rejects);
            }
            EXPECT_EQ(confirmed.detected, accept)
                << context << ": sim " << sim << "/" << q.size()
                << ", runner-up " << runner_up;
            if (accept) {
                EXPECT_EQ(confirmed.matched_entry, game.matched_entry)
                    << context;
                EXPECT_EQ(confirmed.sim, game.sim) << context;
            }
        }
    }
    EXPECT_GT(pairs, 0);
    // Not vacuous: the dominance branch decided pairs both ways.
    EXPECT_GT(fallback_accepts, 0);
    EXPECT_GT(fallback_rejects, 0);
}

TEST(Report, TableRendersAligned)
{
    Table table({"a", "long-header"});
    table.add_row({"xxxx", "1"});
    table.add_row({"y", "22"});
    const std::string out = table.render();
    // Every line is equally wide.
    std::size_t width = out.find('\n');
    std::size_t pos = 0;
    while (pos < out.size()) {
        const std::size_t next = out.find('\n', pos);
        EXPECT_EQ(next - pos, width);
        pos = next + 1;
    }
}

TEST(Report, Percent)
{
    EXPECT_EQ(percent(0.5), "50.0%");
    EXPECT_EQ(percent(0.0), "0.0%");
    EXPECT_EQ(percent(0.966), "96.6%");
}

}  // namespace
}  // namespace firmup::eval
