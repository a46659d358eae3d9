#include "eval/experiments.h"

#include <algorithm>
#include <chrono>
#include <map>

#include "codegen/build.h"
#include "eval/flags.h"
#include "support/error.h"

namespace firmup::eval {

namespace {

/** One target instance for a given CVE query. */
struct Trial
{
    int image_index = -1;
    const loader::Executable *exe = nullptr;
    const firmware::TruthExe *truth = nullptr;
    std::uint32_t truth_entry = 0;  ///< 0 when the procedure is absent
    bool vulnerable = false;
};

/** All corpus executables built from @p cve's package. */
std::vector<Trial>
collect_trials(const firmware::Corpus &corpus,
               const firmware::CveRecord &cve)
{
    const firmware::PackageSpec &pkg =
        firmware::package_by_name(cve.package);
    std::vector<Trial> trials;
    for (std::size_t i = 0; i < corpus.images.size(); ++i) {
        for (const loader::Executable &exe :
             corpus.images[i].executables) {
            const firmware::TruthExe *truth =
                corpus.find_truth(static_cast<int>(i), exe.name);
            if (truth == nullptr || truth->package != cve.package) {
                continue;
            }
            Trial trial;
            trial.image_index = static_cast<int>(i);
            trial.exe = &exe;
            trial.truth = truth;
            trial.truth_entry = truth->entry_of(cve.procedure);
            trial.vulnerable = trial.truth_entry != 0 &&
                               cve.affects(pkg, truth->pkg_version);
            trials.push_back(trial);
        }
    }
    return trials;
}

}  // namespace

std::vector<CveHuntRow>
run_cve_hunt(Driver &driver, const firmware::Corpus &corpus,
             unsigned threads)
{
    std::vector<CveHuntRow> rows;
    // The wild hunt scans *every* executable in every image; the
    // detection threshold rejects executables that do not contain the
    // package at all. The whole CVE list goes through one batched hunt
    // (search_corpus_batch): every target indexes once, and all games
    // against a target run while its index is hot — findings are
    // bit-identical to per-CVE scans (the determinism test's bar).
    const std::vector<CorpusTarget> targets = corpus_targets(corpus);
    const std::vector<firmware::CveRecord> &cves =
        firmware::cve_database();
    const auto start = std::chrono::steady_clock::now();
    const std::vector<std::vector<CorpusOutcome>> grid =
        driver.search_corpus_batch(cves, targets, threads);
    // Per-row wall-clock is no longer separable in a batched hunt;
    // report each CVE's amortized share of the batch wall.
    const double batch_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    for (std::size_t q = 0; q < cves.size(); ++q) {
        const firmware::CveRecord &cve = cves[q];
        CveHuntRow row;
        row.cve = cve;

        const std::vector<CorpusOutcome> &outcomes = grid[q];
        for (const CorpusOutcome &co : outcomes) {
            if (!co.indexed) {
                ++row.skipped;  // quarantined; scan continues
                continue;
            }
            const firmware::FirmwareImage &image =
                corpus.images[static_cast<std::size_t>(
                    co.target.image_index)];
            const SearchOutcome &outcome = co.outcome;

            const firmware::TruthExe *truth = corpus.find_truth(
                co.target.image_index, co.target.exe->name);
            const std::uint32_t truth_entry =
                truth != nullptr && truth->package == cve.package
                    ? truth->entry_of(cve.procedure)
                    : 0;
            const bool vulnerable =
                truth_entry != 0 &&
                cve.affects(firmware::package_by_name(cve.package),
                            truth->pkg_version);
            if (outcome.detected) {
                if (truth_entry != 0 &&
                    outcome.matched_entry == truth_entry) {
                    if (vulnerable) {
                        ++row.confirmed;
                        row.vendors.insert(image.vendor);
                        if (image.is_latest) {
                            ++row.latest;
                        }
                    } else {
                        ++row.benign;
                    }
                } else {
                    ++row.fps;
                }
            } else if (vulnerable) {
                ++row.missed;
            }
        }
        row.seconds = batch_seconds / static_cast<double>(cves.size());
        rows.push_back(std::move(row));
    }
    return rows;
}

Tally
LabeledResult::firmup_total() const
{
    Tally t;
    for (const QueryTally &row : rows) {
        t.p += row.firmup.p;
        t.fn += row.firmup.fn;
        t.fp += row.firmup.fp;
    }
    return t;
}

Tally
LabeledResult::bindiff_total() const
{
    Tally t;
    for (const QueryTally &row : rows) {
        t.p += row.bindiff.p;
        t.fn += row.bindiff.fn;
        t.fp += row.bindiff.fp;
    }
    return t;
}

Tally
LabeledResult::gitz_total() const
{
    Tally t;
    for (const QueryTally &row : rows) {
        t.p += row.gitz.p;
        t.fn += row.gitz.fn;
        t.fp += row.gitz.fp;
    }
    return t;
}

baseline::GraphIndex
query_graph(const Query &query)
{
    const QueryRecipe recipe =
        query_recipe(query.package, query.version, query.index.arch);
    const loader::Executable exe =
        codegen::build_executable(recipe.source, recipe.request);
    auto lifted = lifter::lift_executable(exe);
    FIRMUP_ASSERT(lifted.ok(),
                  "query lift failed: " + lifted.error_message());
    return baseline::graph_index(lifted.value());
}

LabeledResult
run_labeled(Driver &driver, const firmware::Corpus &corpus,
            const LabeledOptions &options)
{
    std::vector<std::string> cve_ids = options.cve_ids;
    if (cve_ids.empty()) {
        for (const firmware::CveRecord &cve : firmware::cve_database()) {
            cve_ids.push_back(cve.cve_id);
        }
    }

    LabeledResult result;
    // GitZ global contexts, trained lazily per architecture over the
    // corpus targets of that architecture (section 5.3: "we trained a
    // global context ... for each architecture separately").
    std::map<isa::Arch, sim::GlobalContext> contexts;

    const auto cves = resolve_cves(cve_ids);
    FIRMUP_ASSERT(cves.ok(), cves.error_message());
    for (const firmware::CveRecord &cve : cves.value()) {
        QueryTally tally;
        tally.query = cve.procedure;

        // The labeled experiment runs on name-less copies so no tool
        // can cheat (the paper's group-1 protocol). Copies must outlive
        // the parallel fan-out, so they live in one stable vector.
        std::vector<Trial> trials;
        for (const Trial &trial : collect_trials(corpus, cve)) {
            if (trial.truth_entry != 0) {
                trials.push_back(trial);
            }
            // else: procedure compiled out of this build
        }
        std::vector<loader::Executable> stripped;
        stripped.reserve(trials.size());
        std::vector<CorpusTarget> targets;
        targets.reserve(trials.size());
        for (const Trial &trial : trials) {
            stripped.push_back(*trial.exe);
            loader::strip_executable(stripped.back(),
                                     !options.strip_all_names);
            targets.push_back({&stripped.back(), trial.image_index});
        }

        // ---- FirmUp (parallel fan-out, no detection threshold) ----
        const std::map<isa::Arch, Query> queries =
            driver.build_queries(cve, targets, options.threads);
        const std::vector<CorpusOutcome> outcomes = driver.search_corpus(
            queries, targets, options.threads, /*confirm=*/false);
        std::map<isa::Arch, baseline::GraphIndex> query_graphs;
        if (options.run_bindiff) {
            for (const auto &[arch, query] : queries) {
                query_graphs.emplace(arch, query_graph(query));
            }
        }

        for (std::size_t t = 0; t < trials.size(); ++t) {
            const Trial &trial = trials[t];
            if (!outcomes[t].indexed) {
                continue;  // quarantined; reported via health
            }
            const sim::ExecutableIndex *target =
                driver.index_target(stripped[t]);
            ++tally.targets;
            const Query &query = queries.at(target->arch);

            const SearchOutcome &outcome = outcomes[t].outcome;
            if (!outcome.detected) {
                ++tally.firmup.fn;
            } else if (outcome.matched_entry == trial.truth_entry) {
                ++tally.firmup.p;
                result.game_steps.push_back(outcome.steps);
            } else {
                ++tally.firmup.fp;
            }

            // ---- BinDiff ----
            if (options.run_bindiff) {
                // The target indexed (target != nullptr), so its bytes
                // lift and the graph index cannot be quarantined here.
                const baseline::GraphIndex &tgraph =
                    *driver.graph_target(stripped[t]);
                const baseline::GraphIndex &qgraph =
                    query_graphs.at(target->arch);
                const auto matches = baseline::bindiff_match(qgraph, tgraph);
                const std::uint64_t q_entry =
                    query.index
                        .procs[static_cast<std::size_t>(query.qv)]
                        .entry;
                const auto q_graph_it = qgraph.by_entry.find(q_entry);
                bool matched = false;
                if (q_graph_it != qgraph.by_entry.end()) {
                    const auto m = matches.find(q_graph_it->second);
                    if (m != matches.end()) {
                        matched = true;
                        const std::uint64_t entry =
                            tgraph
                                .procs[static_cast<std::size_t>(
                                    m->second)]
                                .entry;
                        if (entry == trial.truth_entry) {
                            ++tally.bindiff.p;
                        } else {
                            ++tally.bindiff.fp;
                        }
                    }
                }
                if (!matched) {
                    // Paper: "for BinDiff we consider an unmatched
                    // procedure to be a false positive (because we know
                    // it is there)".
                    ++tally.bindiff.fp;
                }
            }

            // ---- GitZ ----
            if (options.run_gitz) {
                auto cit = contexts.find(target->arch);
                if (cit == contexts.end()) {
                    // Train on all corpus executables of this arch.
                    std::vector<const sim::ExecutableIndex *> sample;
                    for (const firmware::FirmwareImage &image :
                         corpus.images) {
                        for (const loader::Executable &exe :
                             image.executables) {
                            const sim::ExecutableIndex *index =
                                driver.index_target(exe);
                            if (index != nullptr &&
                                index->arch == target->arch) {
                                sample.push_back(index);
                            }
                        }
                    }
                    cit = contexts
                              .emplace(target->arch,
                                       sim::train_global_context(sample))
                              .first;
                }
                const int top = baseline::gitz_top1(
                    query.index, query.qv, *target, &cit->second);
                // Fig. 8 folds FN into FP: top-1 is right or it is not.
                if (top >= 0 &&
                    target->procs[static_cast<std::size_t>(top)].entry ==
                        trial.truth_entry) {
                    ++tally.gitz.p;
                } else {
                    ++tally.gitz.fp;
                }
            }
        }
        result.rows.push_back(std::move(tally));
    }
    result.health = driver.health();
    return result;
}

std::vector<int>
gitz_topk_hits(Driver &driver, const firmware::Corpus &corpus, int max_k)
{
    std::vector<int> hits(static_cast<std::size_t>(max_k), 0);
    std::map<isa::Arch, sim::GlobalContext> contexts;
    for (const firmware::CveRecord &cve : firmware::cve_database()) {
        std::map<isa::Arch, Query> queries;
        for (const Trial &trial : collect_trials(corpus, cve)) {
            if (trial.truth_entry == 0) {
                continue;
            }
            loader::Executable stripped = *trial.exe;
            loader::strip_executable(stripped, false);
            const sim::ExecutableIndex *target =
                driver.index_target(stripped);
            if (target == nullptr) {
                continue;  // quarantined; reported via health
            }
            auto qit = queries.find(target->arch);
            if (qit == queries.end()) {
                qit = queries
                          .emplace(target->arch,
                                   driver.build_query(cve, target->arch))
                          .first;
            }
            auto cit = contexts.find(target->arch);
            if (cit == contexts.end()) {
                std::vector<const sim::ExecutableIndex *> sample;
                for (const firmware::FirmwareImage &image :
                     corpus.images) {
                    for (const loader::Executable &exe :
                         image.executables) {
                        const sim::ExecutableIndex *index =
                            driver.index_target(exe);
                        if (index != nullptr &&
                            index->arch == target->arch) {
                            sample.push_back(index);
                        }
                    }
                }
                cit = contexts
                          .emplace(target->arch,
                                   sim::train_global_context(sample))
                          .first;
            }
            const auto ranked = baseline::gitz_rank(
                qit->second.index, qit->second.qv, *target,
                &cit->second);
            for (int k = 0;
                 k < max_k && k < static_cast<int>(ranked.size()); ++k) {
                const auto entry =
                    target->procs[static_cast<std::size_t>(
                        ranked[static_cast<std::size_t>(k)]
                            .target_index)].entry;
                if (entry == trial.truth_entry) {
                    for (int j = k; j < max_k; ++j) {
                        ++hits[static_cast<std::size_t>(j)];
                    }
                    break;
                }
            }
        }
    }
    return hits;
}

std::vector<std::pair<std::string, int>>
step_histogram(const std::vector<int> &steps)
{
    std::vector<std::pair<std::string, int>> buckets = {
        {"1", 0},    {"2", 0},     {"3-4", 0},
        {"5-8", 0},  {"9-16", 0},  {"17-32", 0},
        {">32", 0},
    };
    for (int s : steps) {
        std::size_t b = 0;
        if (s <= 1) {
            b = 0;
        } else if (s == 2) {
            b = 1;
        } else if (s <= 4) {
            b = 2;
        } else if (s <= 8) {
            b = 3;
        } else if (s <= 16) {
            b = 4;
        } else if (s <= 32) {
            b = 5;
        } else {
            b = 6;
        }
        ++buckets[b].second;
    }
    return buckets;
}

}  // namespace firmup::eval
