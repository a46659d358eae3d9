/**
 * @file
 * Property tests for the flat-vector similarity kernel and the
 * posting-list GetBestMatch path.
 *
 * The reference implementations below keep the original `std::set`
 * semantics: per-hash tree lookups for Sim, ascending-set iteration for
 * weighted Sim, and a dense argmax (lowest-index tie-break) for
 * GetBestMatch. On randomized strand sets, the vector/posting-list
 * kernel must return bit-identical results — including the floating-
 * point sum of weighted_sim, which both sides accumulate in ascending
 * hash order, and the zero-Sim fallback of the dense argmax.
 */
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "game/game.h"
#include "sim/similarity.h"
#include "strand/canon.h"
#include "support/rng.h"

namespace firmup {
namespace {

constexpr std::uint64_t kUniverse = 48;  ///< small => frequent overlap

std::set<std::uint64_t>
random_set(Rng &rng, std::size_t max_size)
{
    std::set<std::uint64_t> out;
    const std::size_t n = rng.index(max_size + 1);
    for (std::size_t i = 0; i < n; ++i) {
        out.insert(rng.next() % kUniverse);
    }
    return out;
}

strand::ProcedureStrands
to_strands(const std::set<std::uint64_t> &s)
{
    return strand::strand_set({s.begin(), s.end()});
}

/** Reference Sim: per-hash set lookups, as the original kernel did. */
int
ref_sim(const std::set<std::uint64_t> &a, const std::set<std::uint64_t> &b)
{
    const auto &small = a.size() <= b.size() ? a : b;
    const auto &large = a.size() <= b.size() ? b : a;
    int shared = 0;
    for (std::uint64_t h : small) {
        shared += large.contains(h) ? 1 : 0;
    }
    return shared;
}

/** Reference weighted Sim: iterate the set ascending, sum weights. */
double
ref_weighted(const std::set<std::uint64_t> &a,
             const std::set<std::uint64_t> &b,
             const sim::GlobalContext &context)
{
    const auto &small = a.size() <= b.size() ? a : b;
    const auto &large = a.size() <= b.size() ? b : a;
    double score = 0.0;
    for (std::uint64_t h : small) {
        if (large.contains(h)) {
            score += context.weight_of(h);
        }
    }
    return score;
}

/** Reference GetBestMatch: dense argmax, lowest index wins ties. */
int
ref_best(const std::vector<std::set<std::uint64_t>> &others,
         const std::set<std::uint64_t> &q,
         const std::vector<bool> &excluded, int &best_sim)
{
    best_sim = -1;
    int best = -1;
    for (std::size_t i = 0; i < others.size(); ++i) {
        if (excluded[i]) {
            continue;
        }
        const int s = ref_sim(q, others[i]);
        if (s > best_sim) {
            best_sim = s;
            best = static_cast<int>(i);
        }
    }
    return best;
}

/** The game's candidate-based argmax, incl. the zero-Sim fallback. */
int
fast_best(const sim::ExecutableIndex &T,
          const strand::ProcedureStrands &q,
          const std::vector<bool> &excluded, int &best_sim)
{
    best_sim = -1;
    int best = -1;
    for (const sim::Candidate &c : sim::shared_candidates(T, q)) {
        if (excluded[static_cast<std::size_t>(c.index)]) {
            continue;
        }
        if (c.sim > best_sim) {
            best_sim = c.sim;
            best = c.index;
        }
    }
    if (best >= 0) {
        return best;
    }
    for (std::size_t i = 0; i < T.procs.size(); ++i) {
        if (!excluded[i]) {
            best_sim = 0;
            return static_cast<int>(i);
        }
    }
    best_sim = -1;
    return -1;
}

/** Random executable index + the reference sets it was built from. */
struct RandomExe
{
    std::vector<std::set<std::uint64_t>> sets;
    sim::ExecutableIndex finalized;
    sim::ExecutableIndex dense;  ///< same procs, finalize() never run
};

RandomExe
random_exe(Rng &rng, std::size_t max_procs, std::size_t max_strands)
{
    RandomExe exe;
    const std::size_t n = 1 + rng.index(max_procs);
    for (std::size_t i = 0; i < n; ++i) {
        exe.sets.push_back(random_set(rng, max_strands));
        sim::ProcEntry pe;
        pe.entry = 0x1000 + 0x40 * i;
        pe.repr = to_strands(exe.sets.back());
        exe.dense.procs.push_back(pe);
        exe.finalized.procs.push_back(std::move(pe));
    }
    exe.finalized.finalize();
    return exe;
}

TEST(SimKernelProperty, SimScoreMatchesSetReference)
{
    Rng rng(0x51f7);
    for (int trial = 0; trial < 2000; ++trial) {
        const auto a = random_set(rng, 24);
        const auto b = random_set(rng, 24);
        const auto fa = to_strands(a);
        const auto fb = to_strands(b);
        EXPECT_EQ(sim::sim_score(fa, fb), ref_sim(a, b));
        EXPECT_EQ(sim::sim_score(fb, fa), ref_sim(a, b));
    }
}

TEST(SimKernelProperty, GallopingPathMatchesSetReference)
{
    // Force the lopsided branch: one side far beyond the gallop ratio.
    Rng rng(0x9a11);
    for (int trial = 0; trial < 200; ++trial) {
        std::set<std::uint64_t> big;
        for (int i = 0; i < 600; ++i) {
            big.insert(rng.next() % 4096);
        }
        const auto small = random_set(rng, 8);
        EXPECT_EQ(sim::sim_score(to_strands(small), to_strands(big)),
                  ref_sim(small, big));
    }
}

TEST(SimKernelProperty, WeightedSimIsBitIdentical)
{
    Rng rng(0x3e19);
    sim::GlobalContext context;
    context.default_weight = 0.731;
    for (std::uint64_t h = 0; h < kUniverse; ++h) {
        if (rng.chance(3, 4)) {
            context.weights[h] =
                static_cast<double>(rng.index(10000)) / 997.0;
        }
    }
    for (int trial = 0; trial < 2000; ++trial) {
        const auto a = random_set(rng, 24);
        const auto b = random_set(rng, 24);
        // Exact equality on doubles: both sides must add the shared
        // weights in ascending hash order.
        EXPECT_EQ(sim::weighted_sim(to_strands(a), to_strands(b), context),
                  ref_weighted(a, b, context));
        EXPECT_EQ(sim::weighted_sim(to_strands(b), to_strands(a), context),
                  ref_weighted(a, b, context));
    }
}

TEST(SimKernelProperty, SharedCandidatesAreExactAndOrdered)
{
    Rng rng(0xca4d);
    for (int trial = 0; trial < 300; ++trial) {
        const RandomExe T = random_exe(rng, 12, 16);
        const auto q = random_set(rng, 16);
        const auto fq = to_strands(q);

        const auto fast = sim::shared_candidates(T.finalized, fq);
        const auto dense = sim::shared_candidates(T.dense, fq);
        ASSERT_EQ(fast.size(), dense.size());
        int prev = -1;
        for (std::size_t i = 0; i < fast.size(); ++i) {
            EXPECT_EQ(fast[i].index, dense[i].index);
            EXPECT_EQ(fast[i].sim, dense[i].sim);
            EXPECT_GT(fast[i].index, prev);  // ascending proc order
            prev = fast[i].index;
            EXPECT_EQ(fast[i].sim,
                      ref_sim(q, T.sets[static_cast<std::size_t>(
                                     fast[i].index)]));
            EXPECT_GT(fast[i].sim, 0);
        }
    }
}

TEST(SimKernelProperty, BestMatchWinnerAndTieBreakMatchReference)
{
    Rng rng(0xbe57);
    for (int trial = 0; trial < 500; ++trial) {
        const RandomExe T = random_exe(rng, 10, 12);
        const auto q = random_set(rng, 12);
        std::vector<bool> excluded(T.sets.size());
        for (std::size_t i = 0; i < excluded.size(); ++i) {
            excluded[i] = rng.chance(1, 4);
        }
        int want_sim = 0, got_sim = 0;
        const int want =
            ref_best(T.sets, q, excluded, want_sim);
        const int got =
            fast_best(T.finalized, to_strands(q), excluded, got_sim);
        EXPECT_EQ(got, want);
        EXPECT_EQ(got_sim, want_sim);
    }
}

TEST(SimKernelProperty, GameIsIdenticalOnPostingAndDenseIndexes)
{
    Rng rng(0x6a3e);
    for (int trial = 0; trial < 120; ++trial) {
        const RandomExe Q = random_exe(rng, 8, 12);
        const RandomExe T = random_exe(rng, 8, 12);
        for (std::size_t qv = 0; qv < Q.sets.size(); ++qv) {
            const game::GameResult fast = game::match_query(
                Q.finalized, static_cast<int>(qv), T.finalized);
            const game::GameResult dense = game::match_query(
                Q.dense, static_cast<int>(qv), T.dense);
            EXPECT_EQ(fast.matched, dense.matched);
            EXPECT_EQ(fast.ending, dense.ending);
            EXPECT_EQ(fast.target_index, dense.target_index);
            EXPECT_EQ(fast.target_entry, dense.target_entry);
            EXPECT_EQ(fast.sim, dense.sim);
            EXPECT_EQ(fast.steps, dense.steps);
            EXPECT_EQ(fast.q_to_t, dense.q_to_t);
            // Note: pairs_scored units differ between the paths (dense
            // counts one op per procedure, posting counts per-incidence
            // accumulations), so only the outcomes are compared.
        }
    }
}

/** sim_score, both argument orders, against the std::set oracle. */
void
expect_sim_matches(const std::set<std::uint64_t> &a,
                   const std::set<std::uint64_t> &b)
{
    const int want = ref_sim(a, b);
    const auto fa = to_strands(a);
    const auto fb = to_strands(b);
    EXPECT_EQ(sim::sim_score(fa, fb), want);
    EXPECT_EQ(sim::sim_score(fb, fa), want);
}

TEST(SimKernelProperty, AdversarialBucketPatternsMatchReference)
{
    // Clustered hash patterns: every hash sharing one top byte (dense
    // low bits => heavy collisions), hashes straddling the top-byte
    // boundaries 63/64, 127/128 and 191/192, and both-empty / one-empty
    // pairs.
    const auto with_top = [](std::uint64_t top, std::uint64_t low) {
        return (top << 56) | (low & 0x00ffffffffffffffull);
    };
    Rng rng(0xadb1);
    for (int trial = 0; trial < 80; ++trial) {
        std::set<std::uint64_t> a, b;
        const std::uint64_t top = rng.index(256);
        const std::size_t na = rng.index(32);
        const std::size_t nb = rng.index(32);
        for (std::size_t i = 0; i < na; ++i) {
            a.insert(with_top(top, rng.index(64)));
        }
        for (std::size_t i = 0; i < nb; ++i) {
            b.insert(with_top(top, rng.index(64)));
        }
        expect_sim_matches(a, b);
    }
    for (int trial = 0; trial < 40; ++trial) {
        std::set<std::uint64_t> a, b;
        for (const std::uint64_t top :
             {0ull, 63ull, 64ull, 127ull, 128ull, 191ull, 192ull, 255ull}) {
            if (rng.chance(1, 2)) {
                a.insert(with_top(top, rng.index(8)));
            }
            if (rng.chance(1, 2)) {
                b.insert(with_top(top, rng.index(8)));
            }
        }
        expect_sim_matches(a, b);
    }
    expect_sim_matches({}, {});
    expect_sim_matches({}, {1, 2, 3});
    expect_sim_matches({42}, {});
}

TEST(SimKernelProperty, DuplicateHeavyInputsDedupAndMatch)
{
    // strand_set takes arbitrary, possibly duplicated hashes; the flat
    // set must come out sorted-unique and score like the std::set.
    Rng rng(0xd0b1);
    for (int trial = 0; trial < 300; ++trial) {
        std::vector<std::uint64_t> raw_a, raw_b;
        const auto a = random_set(rng, 16);
        const auto b = random_set(rng, 16);
        for (const std::uint64_t h : a) {
            for (std::size_t r = 1 + rng.index(4); r > 0; --r) {
                raw_a.push_back(h);
            }
        }
        for (const std::uint64_t h : b) {
            for (std::size_t r = 1 + rng.index(4); r > 0; --r) {
                raw_b.push_back(h);
            }
        }
        const auto fa = strand::strand_set(std::move(raw_a));
        const auto fb = strand::strand_set(std::move(raw_b));
        EXPECT_EQ(fa.size(), a.size());
        EXPECT_EQ(fb.size(), b.size());
        EXPECT_EQ(sim::sim_score(fa, fb), ref_sim(a, b));
        EXPECT_EQ(sim::sim_score(fb, fa), ref_sim(a, b));
    }
}

TEST(SimKernelProperty, HandBuiltSetsWithoutSummaryMatchReference)
{
    // Hand-assembled sets that never went through finalize() or
    // strand_set() must score exactly too, alone and mixed with
    // finalized ones.
    Rng rng(0x4a5d);
    for (int trial = 0; trial < 300; ++trial) {
        const auto a = random_set(rng, 24);
        const auto b = random_set(rng, 24);
        strand::ProcedureStrands raw_a, raw_b;
        for (const std::uint64_t h : a) {
            raw_a.add(h);  // std::set iterates ascending: flat invariant
        }
        for (const std::uint64_t h : b) {
            raw_b.add(h);
        }
        const int want = ref_sim(a, b);
        EXPECT_EQ(sim::sim_score(raw_a, raw_b), want);
        EXPECT_EQ(sim::sim_score(raw_a, to_strands(b)), want);
        EXPECT_EQ(sim::sim_score(to_strands(a), raw_b), want);
    }
}

TEST(SimKernelProperty, FindByEntryAndNameMatchLinearScan)
{
    Rng rng(0xf1dd);
    for (int trial = 0; trial < 100; ++trial) {
        RandomExe T = random_exe(rng, 12, 8);
        for (std::size_t i = 0; i < T.dense.procs.size(); ++i) {
            // Duplicate names now and then: first occurrence must win.
            T.dense.procs[i].name =
                "p" + std::to_string(rng.index(6));
            T.finalized.procs[i].name = T.dense.procs[i].name;
        }
        T.finalized.finalize();  // rebuild maps after renaming
        for (std::size_t i = 0; i < T.dense.procs.size(); ++i) {
            EXPECT_EQ(
                T.finalized.find_by_entry(T.dense.procs[i].entry),
                T.dense.find_by_entry(T.dense.procs[i].entry));
            EXPECT_EQ(T.finalized.find_by_name(T.dense.procs[i].name),
                      T.dense.find_by_name(T.dense.procs[i].name));
        }
        EXPECT_EQ(T.finalized.find_by_entry(0xdead), -1);
        EXPECT_EQ(T.finalized.find_by_name("nope"), -1);
    }
}

}  // namespace
}  // namespace firmup
