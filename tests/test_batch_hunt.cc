/**
 * @file
 * Determinism and crash-recovery properties of the batched multi-CVE
 * hunt (Driver::search_corpus_batch).
 *
 * The batch scheduler fans a (query, target) grid across work-stealing
 * workers and plays every game against a target while its index is
 * live. None of that may show in the findings: the per-(q, t) outcome
 * grid must be bit-identical to N independent single-CVE scans, at any
 * worker count and for any split of the CVE list into sub-batches. The
 * journal property extends the single-scan one: a batch hunt killed
 * mid-flight must resume into exactly the uninterrupted grid.
 */
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "eval/driver.h"
#include "firmware/catalog.h"
#include "firmware/corpus.h"
#include "support/cancel.h"

namespace firmup::eval {
namespace {

namespace fs = std::filesystem;

std::string
fresh_journal_path(const std::string &tag)
{
    const fs::path path = fs::path(testing::TempDir()) /
                          ("firmup-batch-" + tag + ".fwsj");
    fs::remove(path);
    return path.string();
}

/** The hunted CVE subset: enough for a 3+-query grid, fast to build. */
std::vector<firmware::CveRecord>
hunt_cves()
{
    const std::vector<firmware::CveRecord> &all =
        firmware::cve_database();
    return {all.begin(), all.begin() + 3};
}

void
expect_rows_equal(const std::vector<CorpusOutcome> &want,
                  const std::vector<CorpusOutcome> &got,
                  const std::string &context)
{
    ASSERT_EQ(got.size(), want.size()) << context;
    for (std::size_t t = 0; t < want.size(); ++t) {
        const SearchOutcome &a = want[t].outcome;
        const SearchOutcome &b = got[t].outcome;
        EXPECT_EQ(got[t].indexed, want[t].indexed)
            << context << " target " << t;
        EXPECT_EQ(b.detected, a.detected) << context << " target " << t;
        EXPECT_EQ(b.matched_entry, a.matched_entry)
            << context << " target " << t;
        EXPECT_EQ(b.sim, a.sim) << context << " target " << t;
        EXPECT_EQ(b.steps, a.steps) << context << " target " << t;
        EXPECT_EQ(b.unresolved, a.unresolved)
            << context << " target " << t;
    }
}

void
expect_grids_equal(
    const std::vector<std::vector<CorpusOutcome>> &want,
    const std::vector<std::vector<CorpusOutcome>> &got,
    const std::string &context)
{
    ASSERT_EQ(got.size(), want.size()) << context;
    for (std::size_t q = 0; q < want.size(); ++q) {
        expect_rows_equal(want[q], got[q],
                          context + " query " + std::to_string(q));
    }
}

TEST(BatchHunt, GridMatchesIndependentSingleCveScans)
{
    firmware::CorpusOptions corpus_options;
    corpus_options.num_devices = 3;
    const firmware::Corpus corpus =
        firmware::build_corpus(corpus_options);
    const std::vector<CorpusTarget> targets = corpus_targets(corpus);
    ASSERT_GT(targets.size(), 4u);
    const std::vector<firmware::CveRecord> cves = hunt_cves();

    // Reference: one fresh driver per CVE, serial — the pre-batch shape.
    std::vector<std::vector<CorpusOutcome>> reference;
    for (const firmware::CveRecord &cve : cves) {
        Driver single((SearchOptions()));
        reference.push_back(single.search_corpus(cve, targets, 1));
    }

    for (const unsigned threads : {1u, 2u, 8u}) {
        Driver batch((SearchOptions()));
        const std::vector<std::vector<CorpusOutcome>> grid =
            batch.search_corpus_batch(cves, targets, threads);
        expect_grids_equal(reference, grid,
                           "threads=" + std::to_string(threads));
        EXPECT_TRUE(batch.health().sane());
    }
}

TEST(BatchHunt, AnyBatchSplitYieldsTheSameGrid)
{
    firmware::CorpusOptions corpus_options;
    corpus_options.num_devices = 2;
    const firmware::Corpus corpus =
        firmware::build_corpus(corpus_options);
    const std::vector<CorpusTarget> targets = corpus_targets(corpus);
    ASSERT_FALSE(targets.empty());
    const std::vector<firmware::CveRecord> cves = hunt_cves();

    std::vector<std::vector<CorpusOutcome>> whole;
    {
        Driver driver((SearchOptions()));
        whole = driver.search_corpus_batch(cves, targets, 2);
    }

    // Split the CVE list into sub-batches of every size; concatenated
    // sub-grids must equal the one-shot grid row for row.
    for (const std::size_t split : {std::size_t{1}, std::size_t{2}}) {
        std::vector<std::vector<CorpusOutcome>> stitched;
        for (std::size_t at = 0; at < cves.size(); at += split) {
            const std::size_t end = std::min(at + split, cves.size());
            const std::vector<firmware::CveRecord> part{
                cves.begin() + static_cast<std::ptrdiff_t>(at),
                cves.begin() + static_cast<std::ptrdiff_t>(end)};
            Driver driver((SearchOptions()));
            for (auto &row : driver.search_corpus_batch(part, targets, 2)) {
                stitched.push_back(std::move(row));
            }
        }
        expect_grids_equal(whole, stitched,
                           "split=" + std::to_string(split));
    }
}

TEST(BatchHunt, KilledBatchHuntResumesBitIdentically)
{
    firmware::CorpusOptions corpus_options;
    corpus_options.num_devices = 3;
    const firmware::Corpus corpus =
        firmware::build_corpus(corpus_options);
    const std::vector<CorpusTarget> targets = corpus_targets(corpus);
    ASSERT_GT(targets.size(), 4u);
    const std::vector<firmware::CveRecord> cves = hunt_cves();

    std::vector<std::vector<CorpusOutcome>> fresh;
    {
        Driver driver((SearchOptions()));
        fresh = driver.search_corpus_batch(cves, targets, 2);
    }

    for (const unsigned threads : {1u, 2u}) {
        const std::string path =
            fresh_journal_path("kill-" + std::to_string(threads));
        // Phase 1: hunt until a few grid records are journaled, then
        // take the cooperative-cancellation path a SIGTERM would.
        CancelToken token;
        SearchOptions interrupted;
        interrupted.journal_path = path;
        interrupted.cancel = &token;
        interrupted.cancel_after_appends = 2;
        {
            Driver driver(interrupted);
            driver.search_corpus_batch(cves, targets, threads);
            EXPECT_TRUE(token.requested());
            EXPECT_TRUE(driver.health().cancelled);
            EXPECT_TRUE(driver.health().sane());
        }

        // Phase 2: resume. Replayed (q, t) records and freshly hunted
        // ones must merge into exactly the uninterrupted grid.
        SearchOptions resume_options;
        resume_options.journal_path = path;
        resume_options.resume = true;
        Driver resumed(resume_options);
        const std::vector<std::vector<CorpusOutcome>> grid =
            resumed.search_corpus_batch(cves, targets, threads);
        expect_grids_equal(fresh, grid,
                           "resume threads=" + std::to_string(threads));
        EXPECT_FALSE(resumed.health().cancelled);
        EXPECT_GT(resumed.health().resumed_targets, 0u)
            << "threads=" << threads;
        EXPECT_TRUE(resumed.health().sane());
    }
}

TEST(BatchHunt, ResumeUnderOtherConfirmRatioIsRejected)
{
    // The scan fingerprint folds in every deterministic matching knob,
    // so a journal written under one confirm threshold cannot be
    // silently continued under another — half the grid confirmed one
    // way, half the other. The mismatch must surface as a hard
    // rejection with an empty (pre-shaped) grid, not a degrade-and-
    // restart like a corrupt journal does.
    firmware::CorpusOptions corpus_options;
    corpus_options.num_devices = 2;
    const firmware::Corpus corpus =
        firmware::build_corpus(corpus_options);
    const std::vector<CorpusTarget> targets = corpus_targets(corpus);
    ASSERT_FALSE(targets.empty());
    const std::vector<firmware::CveRecord> cves = hunt_cves();

    // Write a partial journal under the defaults (cancel mid-hunt so a
    // resume would actually have records to replay).
    const std::string path = fresh_journal_path("cross-ratio");
    CancelToken token;
    SearchOptions original;
    original.journal_path = path;
    original.cancel = &token;
    original.cancel_after_appends = 1;
    {
        Driver driver(original);
        driver.search_corpus_batch(cves, targets, 2);
        EXPECT_TRUE(driver.health().cancelled);
    }

    // Resuming it under another confirm ratio must be refused outright.
    SearchOptions cross;
    cross.min_confirm_ratio = 0.4;
    cross.journal_path = path;
    cross.resume = true;
    Driver rejected(cross);
    const std::vector<std::vector<CorpusOutcome>> grid =
        rejected.search_corpus_batch(cves, targets, 2);
    EXPECT_TRUE(rejected.health().resume_rejected);
    EXPECT_FALSE(rejected.health().resume_reject_reason.empty());
    ASSERT_EQ(grid.size(), cves.size());
    for (const auto &row : grid) {
        ASSERT_EQ(row.size(), targets.size());
        for (const CorpusOutcome &out : row) {
            EXPECT_FALSE(out.indexed);
            EXPECT_FALSE(out.outcome.detected);
        }
    }

    // The original configuration still resumes the journal it wrote.
    SearchOptions good;
    good.journal_path = path;
    good.resume = true;
    Driver accepted(good);
    accepted.search_corpus_batch(cves, targets, 2);
    EXPECT_FALSE(accepted.health().resume_rejected);
    EXPECT_GT(accepted.health().resumed_targets, 0u);
    EXPECT_TRUE(accepted.health().sane());
}

TEST(BatchHunt, DefaultScanFingerprintIsPinned)
{
    // Journals and --state manifests written by earlier builds carry
    // these values; a change to what the default options hash would
    // refuse every one of them on resume, so they must never move.
    EXPECT_EQ(scan_fingerprint(SearchOptions{}, "cve:pin", true),
              0xbfad562b95e33f76ull);
    EXPECT_EQ(scan_fingerprint(SearchOptions{},
                               batch_scan_label(hunt_cves()), true),
              0xc4dfae61af449e0cull);
    EXPECT_EQ(scan_fingerprint(SearchOptions{},
                               batch_scan_label(hunt_cves()), false),
              0x916fdbc7d68d7e94ull);
}

}  // namespace
}  // namespace firmup::eval
