/**
 * @file
 * Property tests for the flat-vector similarity kernel, the posting
 * lists and the game's posting join.
 *
 * The reference implementations below keep the paper's literal
 * semantics: per-hash `std::set` lookups for Sim, ascending-set
 * iteration for weighted Sim, a dense Sim over every procedure for
 * candidate lists, Alg. 2 played on those dense Sims (GetBestMatch as a
 * dense argmax with a lowest-index tie-break and a zero-Sim fallback,
 * confirm's runner-up as a max over them), and linear first-occurrence
 * scans for the lookup maps. On randomized strand sets — and, for the
 * game, on every game of a real 9-CVE hunt — the vector/posting-list
 * kernels must return bit-identical results, including the
 * floating-point sum of weighted_sim, which both sides accumulate in
 * ascending hash order.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "eval/driver.h"
#include "firmware/catalog.h"
#include "firmware/corpus.h"
#include "game/game.h"
#include "sim/persist.h"
#include "sim/similarity.h"
#include "strand/canon.h"
#include "support/rng.h"

namespace firmup {
namespace {

constexpr std::uint64_t kUniverse = 48;  ///< small => frequent overlap

std::set<std::uint64_t>
random_set(Rng &rng, std::size_t max_size,
           std::uint64_t universe = kUniverse)
{
    std::set<std::uint64_t> out;
    const std::size_t n = rng.index(max_size + 1);
    for (std::size_t i = 0; i < n; ++i) {
        out.insert(rng.next() % universe);
    }
    return out;
}

/** The flat (sorted, unique) form of @p s. */
std::vector<std::uint64_t>
to_strands(const std::set<std::uint64_t> &s)
{
    return {s.begin(), s.end()};
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

/** Reference candidate list: a dense std::set Sim over every proc. */
std::vector<sim::Candidate>
ref_candidates(const std::vector<std::set<std::uint64_t>> &others,
               const std::set<std::uint64_t> &q)
{
    std::vector<sim::Candidate> out;
    for (std::size_t i = 0; i < others.size(); ++i) {
        const int s = ref_sim(q, others[i]);
        if (s > 0) {
            out.push_back({static_cast<int>(i), s});
        }
    }
    return out;
}

/** Random executable index + the reference sets it was built from. */
struct RandomExe
{
    std::vector<std::set<std::uint64_t>> sets;
    std::vector<sim::ProcInput> procs;  ///< what `index` was built from
    sim::ExecutableIndex index;
};

/** An executable over the given strand sets, at entries 0x1000 + 0x40i. */
RandomExe
exe_of(std::vector<std::set<std::uint64_t>> sets)
{
    RandomExe exe;
    exe.sets = std::move(sets);
    for (std::size_t i = 0; i < exe.sets.size(); ++i) {
        exe.procs.push_back({0x1000 + 0x40 * i, "",
                             strand::strand_set(to_strands(exe.sets[i]))});
    }
    exe.index = sim::build_index("random", isa::Arch::Mips32, exe.procs);
    return exe;
}

RandomExe
random_exe(Rng &rng, std::size_t max_procs, std::size_t max_strands,
           std::uint64_t universe = kUniverse)
{
    std::vector<std::set<std::uint64_t>> sets(1 + rng.index(max_procs));
    for (auto &set : sets) {
        set = random_set(rng, max_strands, universe);
    }
    return exe_of(std::move(sets));
}

/** The strand sets of every procedure of @p index, as std::sets. */
std::vector<std::set<std::uint64_t>>
index_sets(const sim::ExecutableIndex &index)
{
    std::vector<std::set<std::uint64_t>> out;
    for (const sim::ProcEntry &proc : index.procs) {
        out.emplace_back(proc.strands.begin(), proc.strands.end());
    }
    return out;
}

/** Outcome of one literal Alg. 2 game (the fields match_query sets). */
struct RefGame
{
    bool matched = false;
    game::GameEnding ending = game::GameEnding::NoMatch;
    int target_index = -1;
    int sim = 0;
    int steps = 0;
    std::map<int, int> q_to_t;
};

/**
 * Alg. 2 as written, over dense std::set Sims: GetBestMatch rescans
 * every unmatched, not-unmatchable procedure on the other side (highest
 * Sim, lowest index on ties, Sim 0 when nothing is shared).
 */
RefGame
ref_game(const std::vector<std::set<std::uint64_t>> &Q, int qv,
         const std::vector<std::set<std::uint64_t>> &T,
         const game::GameOptions &options = {})
{
    struct Side
    {
        const std::vector<std::set<std::uint64_t>> &sets;
        std::vector<int> match;
        std::vector<bool> unmatchable;
    };
    Side q{Q, std::vector<int>(Q.size(), -1),
           std::vector<bool>(Q.size(), false)};
    Side t{T, std::vector<int>(T.size(), -1),
           std::vector<bool>(T.size(), false)};
    using Ref = std::pair<bool, int>;  // (in Q, index)
    const auto side = [&](bool in_q) -> Side & { return in_q ? q : t; };
    const auto matched = [&](const Ref &r) {
        return side(r.first).match[static_cast<std::size_t>(r.second)] >=
               0;
    };
    const auto best_match = [&](const Ref &m, int &best_sim) {
        const std::set<std::uint64_t> &mine =
            side(m.first).sets[static_cast<std::size_t>(m.second)];
        Side &other = side(!m.first);
        best_sim = -1;
        int best = -1;
        for (std::size_t i = 0; i < other.sets.size(); ++i) {
            if (other.match[i] >= 0 || other.unmatchable[i]) {
                continue;
            }
            const int s = ref_sim(mine, other.sets[i]);
            if (s > best_sim) {
                best_sim = s;
                best = static_cast<int>(i);
            }
        }
        return best;
    };
    RefGame result;
    const Ref root{true, qv};
    std::vector<Ref> stack{root};
    std::size_t matched_count = 0;
    while (!stack.empty()) {
        if (result.steps >= options.max_steps) {
            result.ending = game::GameEnding::Unresolved;
            break;
        }
        const Ref m = stack.back();
        if (matched(m)) {
            stack.pop_back();
            continue;
        }
        ++result.steps;
        int forward_sim = 0;
        const int forward = best_match(m, forward_sim);
        if (forward < 0 || forward_sim < options.min_sim) {
            if (m == root) {
                break;
            }
            side(m.first).unmatchable[static_cast<std::size_t>(m.second)] =
                true;
            stack.pop_back();
            continue;
        }
        const Ref fwd{!m.first, forward};
        int back_sim = 0;
        const int back = best_match(fwd, back_sim);
        if (back == m.second) {
            const int qi = m.first ? m.second : forward;
            const int ti = m.first ? forward : m.second;
            q.match[static_cast<std::size_t>(qi)] = ti;
            t.match[static_cast<std::size_t>(ti)] = qi;
            ++matched_count;
            if (m == root || fwd == root) {
                result.matched = true;
                result.ending = game::GameEnding::Matched;
                result.target_index = ti;
                result.sim = forward_sim;
                break;
            }
            stack.pop_back();
            if (matched_count >= options.max_matches) {
                result.ending = game::GameEnding::Unresolved;
                break;
            }
            continue;
        }
        bool pushed = false;
        for (const Ref &r : {fwd, Ref{m.first, back}}) {
            if (!matched(r) &&
                std::find(stack.begin(), stack.end(), r) == stack.end()) {
                stack.push_back(r);
                pushed = true;
            }
        }
        if (!pushed) {
            break;
        }
    }
    for (std::size_t qi = 0; qi < q.match.size(); ++qi) {
        if (q.match[qi] >= 0) {
            result.q_to_t.emplace(static_cast<int>(qi), q.match[qi]);
        }
    }
    return result;
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

        const auto fast = sim::shared_candidates(T.index, fq);
        const auto want = ref_candidates(T.sets, q);
        ASSERT_EQ(fast.size(), want.size());
        for (std::size_t i = 0; i < fast.size(); ++i) {
            // The oracle lists procs in ascending order, Sim > 0 only.
            EXPECT_EQ(fast[i].index, want[i].index);
            EXPECT_EQ(fast[i].sim, want[i].sim);
        }
    }
}

/**
 * Confirm's runner-up, literally: the best std::set Sim of @p q against
 * any procedure of @p T whose entry is not @p entry.
 */
int
ref_runner_up(const std::set<std::uint64_t> &q,
              const std::vector<std::set<std::uint64_t>> &T_sets,
              const sim::ExecutableIndex &T, std::uint64_t entry)
{
    int second = 0;
    for (std::size_t i = 0; i < T_sets.size(); ++i) {
        if (T.procs[i].entry != entry) {
            second = std::max(second, ref_sim(q, T_sets[i]));
        }
    }
    return second;
}

/** One game of match_query against Alg. 2 as written; its result. */
game::GameResult
expect_game_matches_oracle(const sim::ExecutableIndex &Q,
                           const std::vector<std::set<std::uint64_t>> &Q_sets,
                           int qv, const sim::ExecutableIndex &T,
                           const std::vector<std::set<std::uint64_t>> &T_sets,
                           const game::GameOptions &options,
                           const std::string &label)
{
    const game::GameResult fast = game::match_query(Q, qv, T, options);
    const RefGame want = ref_game(Q_sets, qv, T_sets, options);
    EXPECT_EQ(fast.matched, want.matched) << label;
    EXPECT_EQ(fast.ending, want.ending) << label;
    EXPECT_EQ(fast.target_index, want.target_index) << label;
    EXPECT_EQ(fast.sim, want.sim) << label;
    EXPECT_EQ(fast.steps, want.steps) << label;
    EXPECT_EQ(fast.q_to_t, want.q_to_t) << label;
    if (want.matched) {
        const std::uint64_t entry =
            T.procs[static_cast<std::size_t>(want.target_index)].entry;
        EXPECT_EQ(fast.target_entry, entry) << label;
        EXPECT_EQ(fast.runner_up_sim,
                  ref_runner_up(Q_sets[static_cast<std::size_t>(qv)],
                                T_sets, T, entry))
            << label;
    }
    return fast;
}

/** Every qv of @p Q against @p T, through the oracle. */
void
expect_games_match_oracle(const RandomExe &Q, const RandomExe &T,
                          const std::string &label)
{
    for (std::size_t qv = 0; qv < Q.sets.size(); ++qv) {
        expect_game_matches_oracle(Q.index, Q.sets, static_cast<int>(qv),
                                   T.index, T.sets, {},
                                   label + " qv " + std::to_string(qv));
    }
}

/** Longest posting list of @p index. */
std::uint32_t
longest_posting(const sim::ExecutableIndex &index)
{
    std::uint32_t longest = 0;
    for (std::size_t h = 0; h < index.posting_hashes.size(); ++h) {
        longest = std::max(longest, index.posting_offsets[h + 1] -
                                        index.posting_offsets[h]);
    }
    return longest;
}

/**
 * A small executable whose strands mostly come from @p big's, so the
 * games it plays against @p big share strands.
 */
RandomExe
small_exe_within(Rng &rng, const RandomExe &big)
{
    std::vector<std::set<std::uint64_t>> sets(1 + rng.index(2));
    for (auto &set : sets) {
        for (std::size_t n = 1 + rng.index(3); n > 0; --n) {
            const auto &from = big.sets[rng.index(big.sets.size())];
            if (!from.empty() && rng.chance(3, 4)) {
                set.insert(*std::next(from.begin(),
                                      static_cast<std::ptrdiff_t>(
                                          rng.index(from.size()))));
            } else {
                set.insert(rng.next() % 4096);
            }
        }
    }
    return exe_of(std::move(sets));
}

TEST(SimKernelProperty, GameMatchesDenseAlgorithm2Oracle)
{
    Rng rng(0x6a3e);
    for (int trial = 0; trial < 120; ++trial) {
        const RandomExe Q = random_exe(rng, 8, 12);
        const RandomExe T = random_exe(rng, 8, 12);
        expect_games_match_oracle(Q, T, "trial " + std::to_string(trial));
    }
    // Lopsided dictionaries: one side holds >= 16x the other's posting
    // hashes, so the posting join gallops, in both argument orders.
    for (int trial = 0; trial < 60; ++trial) {
        std::vector<std::set<std::uint64_t>> big_sets(6 + rng.index(5));
        for (auto &set : big_sets) {
            for (std::size_t n = 40 + rng.index(60); n > 0; --n) {
                set.insert(rng.next() % 4096);
            }
        }
        const RandomExe big = exe_of(std::move(big_sets));
        const RandomExe small = small_exe_within(rng, big);
        ASSERT_GE(big.index.posting_hashes.size(),
                  16 * small.index.posting_hashes.size())
            << "lopsided trial " << trial;
        const std::string label = "lopsided trial " + std::to_string(trial);
        expect_games_match_oracle(small, big, label + " small vs big");
        expect_games_match_oracle(big, small, label + " big vs small");
    }
    // Strands shared by many procedures: a tiny hash universe makes
    // most posting lists several procedures long on both sides.
    std::uint32_t longest = 0;
    for (int trial = 0; trial < 60; ++trial) {
        const RandomExe Q = random_exe(rng, 12, 8, 10);
        const RandomExe T = random_exe(rng, 12, 8, 10);
        longest = std::max({longest, longest_posting(Q.index),
                            longest_posting(T.index)});
        expect_games_match_oracle(Q, T,
                                  "shared trial " + std::to_string(trial));
    }
    EXPECT_GE(longest, 4u);
}

TEST(SimKernelProperty, HuntGamesMatchAlgorithm2OnRealIndexes)
{
    // Every (query, target) game of a 9-CVE hunt over a small seed
    // corpus, played by match_query and by Alg. 2 as written over the
    // std::set strand sets of the same indexes.
    firmware::CorpusOptions corpus_options;
    corpus_options.num_devices = 3;
    const firmware::Corpus corpus =
        firmware::build_corpus(corpus_options);
    const std::vector<eval::CorpusTarget> targets =
        eval::corpus_targets(corpus);
    ASSERT_FALSE(targets.empty());
    eval::Driver driver;
    const game::GameOptions &options = driver.options().game;
    std::map<const sim::ExecutableIndex *,
             std::vector<std::set<std::uint64_t>>>
        target_sets;
    int games = 0, matched = 0, contested = 0;
    for (const firmware::CveRecord &cve : firmware::cve_database()) {
        const std::map<isa::Arch, eval::Query> queries =
            driver.build_queries(cve, targets, 2);
        for (const auto &[arch, query] : queries) {
            const auto query_sets = index_sets(query.index);
            for (const eval::CorpusTarget &corpus_target : targets) {
                const sim::ExecutableIndex *target =
                    driver.index_target(*corpus_target.exe);
                if (target == nullptr || target->arch != arch ||
                    target->procs.empty()) {
                    continue;
                }
                auto [it, fresh] = target_sets.try_emplace(target);
                if (fresh) {
                    it->second = index_sets(*target);
                }
                const game::GameResult result = expect_game_matches_oracle(
                    query.index, query_sets, query.qv, *target, it->second,
                    options, cve.cve_id + " vs " + target->name);
                ++games;
                matched += result.matched ? 1 : 0;
                contested += result.steps > 1 ? 1 : 0;
            }
        }
    }
    // The hunt played real, contested games.
    EXPECT_GT(games, 100);
    EXPECT_GT(matched, 0);
    EXPECT_GT(contested, 0);
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
        EXPECT_EQ(sim::sim_score(fa.hashes, fb.hashes), ref_sim(a, b));
        EXPECT_EQ(sim::sim_score(fb.hashes, fa.hashes), ref_sim(a, b));
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
        EXPECT_EQ(sim::sim_score(raw_a.hashes, raw_b.hashes), want);
        EXPECT_EQ(sim::sim_score(raw_a.hashes, to_strands(b)), want);
        EXPECT_EQ(sim::sim_score(to_strands(a), raw_b.hashes), want);
    }
}

/** Reference lookup: the first procedure satisfying @p match, or -1. */
template <typename Match>
int
first_where(const std::vector<sim::ProcInput> &procs, Match match)
{
    for (std::size_t i = 0; i < procs.size(); ++i) {
        if (match(procs[i])) {
            return static_cast<int>(i);
        }
    }
    return -1;
}

TEST(SimKernelProperty, FindByEntryAndNameMatchLinearScan)
{
    Rng rng(0xf1dd);
    for (int trial = 0; trial < 100; ++trial) {
        RandomExe T = random_exe(rng, 12, 8);
        for (sim::ProcInput &proc : T.procs) {
            // Duplicate names and entries now and then: the first
            // occurrence must win.
            proc.name = "p" + std::to_string(rng.index(6));
            proc.entry = 0x1000 + 0x40 * rng.index(T.procs.size());
        }
        const sim::ExecutableIndex index =
            sim::build_index("named", isa::Arch::Mips32, T.procs);
        for (const sim::ProcInput &proc : T.procs) {
            EXPECT_EQ(index.find_by_entry(proc.entry),
                      first_where(T.procs, [&](const sim::ProcInput &p) {
                          return p.entry == proc.entry;
                      }));
            EXPECT_EQ(index.find_by_name(proc.name),
                      first_where(T.procs, [&](const sim::ProcInput &p) {
                          return p.name == proc.name;
                      }));
        }
        EXPECT_EQ(index.find_by_entry(0xdead), -1);
        EXPECT_EQ(index.find_by_name("nope"), -1);
    }
}

}  // namespace
}  // namespace firmup
