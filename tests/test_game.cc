/**
 * @file
 * Back-and-forth game tests: the paper's Fig. 4 scenario, Eq. 1
 * consistency of the produced matching, termination on adversarial
 * inputs, and determinism.
 */
#include <gtest/gtest.h>

#include "game/game.h"
#include "sim/persist.h"

namespace firmup::game {
namespace {

sim::ExecutableIndex
make_index(const char *name,
           std::vector<std::pair<std::string,
                                 std::vector<std::uint64_t>>> procs)
{
    std::vector<sim::ProcInput> inputs;
    std::uint64_t entry = 0x1000;
    for (auto &[proc_name, strands] : procs) {
        inputs.push_back({entry, proc_name, strand::strand_set(strands)});
        entry += 0x100;
    }
    return sim::build_index(name, isa::Arch::Mips32, inputs);
}

TEST(Game, Fig4ConceptualExample)
{
    const auto Q = make_index("Q", {{"q1", {1, 2, 3}},
                                    {"q2", {1, 3, 4, 5}}});
    const auto T = make_index("T", {{"t1", {1, 2, 3, 4, 5}},
                                    {"t2", {2, 3}}});
    const GameResult result = match_query(Q, 0, T);
    ASSERT_TRUE(result.matched);
    // q1 must end on t2 (index 1), not the bigger t1.
    EXPECT_EQ(result.target_index, 1);
    EXPECT_EQ(result.sim, 2);
    EXPECT_GT(result.steps, 1);
    // The partial matching must contain the q2<->t1 pair that forced it.
    ASSERT_TRUE(result.q_to_t.contains(1));
    EXPECT_EQ(result.q_to_t.at(1), 0);
}

TEST(Game, PerfectSelfMatch)
{
    const auto Q = make_index("Q", {{"a", {1, 2, 3}},
                                    {"b", {4, 5, 6}},
                                    {"c", {7, 8}}});
    for (int qv = 0; qv < 3; ++qv) {
        const GameResult result = match_query(Q, qv, Q);
        ASSERT_TRUE(result.matched) << qv;
        EXPECT_EQ(result.target_index, qv);
    }
}

TEST(Game, MatchingIsConsistentEq1)
{
    // Every matched pair (q, t) must satisfy: no unmatched q' beats q on
    // t, and no unmatched t' beats t on q — Eq. 1 restricted to the
    // partial matching the game produced.
    const auto Q = make_index(
        "Q", {{"q1", {1, 2, 3, 9}}, {"q2", {1, 3, 4, 5}},
              {"q3", {6, 7}}, {"q4", {8, 10, 11}}});
    const auto T = make_index(
        "T", {{"t1", {1, 2, 3, 4, 5}}, {"t2", {2, 3, 9}},
              {"t3", {6, 7, 11}}, {"t4", {8, 10}}});
    const GameResult result = match_query(Q, 0, T);
    ASSERT_TRUE(result.matched);
    std::set<int> matched_q, matched_t;
    for (const auto &[qi, ti] : result.q_to_t) {
        matched_q.insert(qi);
        matched_t.insert(ti);
    }
    for (const auto &[qi, ti] : result.q_to_t) {
        const int s = sim::sim_score(
            Q.procs[static_cast<std::size_t>(qi)].strands,
            T.procs[static_cast<std::size_t>(ti)].strands);
        for (std::size_t j = 0; j < Q.procs.size(); ++j) {
            if (matched_q.contains(static_cast<int>(j))) {
                continue;
            }
            EXPECT_LE(sim::sim_score(Q.procs[j].strands,
                                     T.procs[static_cast<std::size_t>(
                                         ti)].strands),
                      s)
                << "unmatched q" << j << " beats the pair (" << qi
                << "," << ti << ")";
        }
    }
}

TEST(Game, NoSharedStrandsMeansNoMatch)
{
    const auto Q = make_index("Q", {{"q1", {1, 2}}});
    const auto T = make_index("T", {{"t1", {3, 4}}});
    const GameResult result = match_query(Q, 0, T);
    EXPECT_FALSE(result.matched);
}

TEST(Game, EmptyTargetExecutable)
{
    const auto Q = make_index("Q", {{"q1", {1}}});
    const sim::ExecutableIndex T;
    const GameResult result = match_query(Q, 0, T);
    EXPECT_FALSE(result.matched);
}

TEST(Game, TerminatesWithinStepBudget)
{
    // Adversarial: many procedures sharing the same strand set → every
    // pick contested by ties. The game must stop at a fixed state or
    // within the step budget, never hang.
    std::vector<std::pair<std::string, std::vector<std::uint64_t>>> qs,
        ts;
    for (int i = 0; i < 20; ++i) {
        qs.emplace_back("q" + std::to_string(i),
                        std::vector<std::uint64_t>{1, 2, 3});
        ts.emplace_back("t" + std::to_string(i),
                        std::vector<std::uint64_t>{1, 2, 3});
    }
    const auto Q = make_index("Q", qs);
    const auto T = make_index("T", ts);
    GameOptions options;
    options.max_steps = 100;
    const GameResult result = match_query(Q, 0, T, options);
    EXPECT_LE(result.steps, 100);
}

TEST(Game, ExhaustedStepBudgetIsUnresolved)
{
    // A one-step budget on a contested pair: the game must come back
    // with the graceful Unresolved ending, not Matched or NoMatch.
    const auto Q = make_index("Q", {{"q1", {1, 2, 3}},
                                    {"q2", {1, 3, 4, 5}}});
    const auto T = make_index("T", {{"t1", {1, 2, 3, 4, 5}},
                                    {"t2", {2, 3}}});
    GameOptions options;
    options.max_steps = 1;
    const GameResult result = match_query(Q, 0, T, options);
    EXPECT_FALSE(result.matched);
    EXPECT_EQ(result.ending, GameEnding::Unresolved);

    // With the default budget the same pair resolves.
    const GameResult full = match_query(Q, 0, T);
    EXPECT_TRUE(full.matched);
    EXPECT_EQ(full.ending, GameEnding::Matched);
}

TEST(Game, ExpiredDeadlineIsUnresolved)
{
    const auto Q = make_index("Q", {{"q1", {1, 2, 3}},
                                    {"q2", {1, 3, 4, 5}}});
    const auto T = make_index("T", {{"t1", {1, 2, 3, 4, 5}},
                                    {"t2", {2, 3}}});
    GameOptions options;
    options.max_seconds = 1e-12;  // expires before the first step
    const GameResult result = match_query(Q, 0, T, options);
    EXPECT_FALSE(result.matched);
    EXPECT_EQ(result.ending, GameEnding::Unresolved);
    EXPECT_EQ(result.steps, 0);
}

TEST(Game, Deterministic)
{
    const auto Q = make_index(
        "Q", {{"q1", {1, 2, 3}}, {"q2", {1, 3, 4, 5}}, {"q3", {2, 5}}});
    const auto T = make_index(
        "T", {{"t1", {1, 2, 3, 4, 5}}, {"t2", {2, 3}}, {"t3", {5}}});
    const GameResult a = match_query(Q, 0, T);
    const GameResult b = match_query(Q, 0, T);
    EXPECT_EQ(a.matched, b.matched);
    EXPECT_EQ(a.target_index, b.target_index);
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.q_to_t, b.q_to_t);
}

TEST(Game, MinSimGate)
{
    const auto Q = make_index("Q", {{"q1", {1, 2}}});
    const auto T = make_index("T", {{"t1", {1, 9}}});
    GameOptions options;
    options.min_sim = 2;
    EXPECT_FALSE(match_query(Q, 0, T, options).matched);
    options.min_sim = 1;
    EXPECT_TRUE(match_query(Q, 0, T, options).matched);
}

TEST(Game, TraceRecordsMoves)
{
    const auto Q = make_index("Q", {{"q1", {1, 2, 3}},
                                    {"q2", {1, 3, 4, 5}}});
    const auto T = make_index("T", {{"t1", {1, 2, 3, 4, 5}},
                                    {"t2", {2, 3}}});
    GameOptions options;
    options.record_trace = true;
    const GameResult result = match_query(Q, 0, T, options);
    EXPECT_TRUE(result.matched);
    EXPECT_GE(result.trace.size(), 4u);  // player/rival alternation
    // Without the flag no trace accumulates.
    const GameResult silent = match_query(Q, 0, T);
    EXPECT_TRUE(silent.trace.empty());
}

TEST(Game, QvCanBeClaimedFromTheTargetSide)
{
    // qv's match may be established while settling a target procedure.
    const auto Q = make_index("Q", {{"q1", {1, 2, 3, 4}},
                                    {"q2", {5, 6}}});
    const auto T = make_index("T", {{"t1", {1, 2, 3, 4}},
                                    {"t2", {5, 6}}});
    const GameResult result = match_query(Q, 0, T);
    ASSERT_TRUE(result.matched);
    EXPECT_EQ(result.target_index, 0);
    EXPECT_EQ(result.sim, 4);
}

}  // namespace
}  // namespace firmup::game
