/**
 * @file
 * Experiment runners regenerating the paper's tables and figures.
 *
 *  - run_cve_hunt: Table 2 — hunt every catalog CVE across the corpus.
 *  - run_labeled: the controlled experiment of section 5.3 — labeled
 *    targets with ground truth, FirmUp vs BinDiff (Fig. 6) and vs GitZ
 *    (Fig. 8), with game-step accounting (Fig. 9).
 */
#pragma once

#include <set>
#include <string>
#include <vector>

#include "eval/driver.h"
#include "firmware/corpus.h"

namespace firmup::eval {

/** Positive / false-negative / false-positive counts. */
struct Tally
{
    int p = 0;
    int fn = 0;
    int fp = 0;

    int total() const { return p + fn + fp; }
    double precision() const
    {
        return total() == 0 ? 0.0 : static_cast<double>(p) / total();
    }
};

/** One row of Table 2. */
struct CveHuntRow
{
    firmware::CveRecord cve;
    int confirmed = 0;  ///< right procedure, vulnerable version
    int benign = 0;     ///< right procedure, patched version
    int fps = 0;        ///< wrong procedure matched
    int missed = 0;     ///< vulnerable procedure present but not found
    int latest = 0;     ///< confirmed findings in latest-firmware images
    int skipped = 0;    ///< quarantined targets this CVE never scanned
    std::set<std::string> vendors;  ///< vendors with confirmed findings
    double seconds = 0.0;
};

/**
 * Run the Table 2 hunt: every CVE against every corpus executable, via
 * the driver's parallel search_corpus fan-out (@p threads 0 = hardware
 * concurrency; results are identical at any thread count). Quarantined
 * executables are skipped (per-row `skipped`); coverage for the whole
 * scan is in driver.health().
 */
std::vector<CveHuntRow> run_cve_hunt(Driver &driver,
                                     const firmware::Corpus &corpus,
                                     unsigned threads = 0);

/** Per-query outcome of the controlled experiment. */
struct QueryTally
{
    std::string query;  ///< procedure name, as in Fig. 6 / Fig. 8
    Tally firmup;
    Tally bindiff;
    Tally gitz;
    int targets = 0;
};

/** Controlled-experiment configuration. */
struct LabeledOptions
{
    std::vector<std::string> cve_ids;  ///< queries (default: all)
    bool run_bindiff = false;
    bool run_gitz = false;
    /**
     * Strip ALL names from target copies (the paper's group-1 setup;
     * required for a fair BinDiff run). When false, exported names are
     * left in place (group-2 setup).
     */
    bool strip_all_names = true;
    /** FirmUp game fan-out width; 0 = hardware concurrency. */
    unsigned threads = 0;
};

/** Result of the controlled experiment. */
struct LabeledResult
{
    std::vector<QueryTally> rows;
    std::vector<int> game_steps;  ///< per correct FirmUp match (Fig. 9)
    /** Coverage snapshot (driver.health()) taken after the run. */
    ScanHealth health;

    Tally firmup_total() const;
    Tally bindiff_total() const;
    Tally gitz_total() const;
};

/** Run the section 5.3 controlled experiment. */
LabeledResult run_labeled(Driver &driver, const firmware::Corpus &corpus,
                          const LabeledOptions &options);

/**
 * Structural (BinDiff) index of @p query's executable, which run_labeled
 * matches against target graphs. A Query keeps only its strand index,
 * so this compiles and lifts the query's recipe again.
 */
baseline::GraphIndex query_graph(const Query &query);

/** Fig. 9 buckets: 1, 2, 3-4, 5-8, 9-16, 17-32 steps. */
std::vector<std::pair<std::string, int>> step_histogram(
    const std::vector<int> &steps);

/**
 * GitZ top-k accuracy over the labeled set (the paper's Fig. 9
 * discussion: "considering the top-2 results from GitZ will reduce the
 * number of false positives by approximately 50").
 * @return hits[k-1] = targets whose true procedure is in GitZ's top-k.
 */
std::vector<int> gitz_topk_hits(Driver &driver,
                                const firmware::Corpus &corpus,
                                int max_k);

}  // namespace firmup::eval
