#include "game/game.h"

#include <algorithm>
#include <chrono>

#include "support/str.h"
#include "support/trace.h"

namespace firmup::game {

namespace {

// Registry-backed mirrors of the per-game GameResult accounting: the
// corpus-wide totals every scan accumulates, readable via one
// MetricsRegistry snapshot instead of threading sums by hand. Flushed
// once per game (not per iteration) to keep the enabled path cheap.
const trace::Counter c_games("game.games");
const trace::Counter c_steps("game.steps");
const trace::Counter c_pairs_scored("game.pairs_scored");
const trace::Counter c_pairs_pruned("game.pairs_pruned");
const trace::Counter c_elem_ops("game.scoring_elem_ops");
const trace::Counter c_rival_turns("game.rival_turns");
const trace::Counter c_deadline_samples("game.deadline_samples");
const trace::Counter c_matched("game.matched");
const trace::Counter c_unresolved("game.unresolved");
const trace::Histogram h_steps("game.steps_per_game");

/** A procedure reference: which executable, which index. */
struct Ref
{
    bool in_q = true;
    int index = -1;

    bool operator==(const Ref &) const = default;
    auto operator<=>(const Ref &) const = default;
};

/**
 * Player state for one game. All bookkeeping is flat, sized to the two
 * executables: match arrays (-1 = unmatched), unmatchable byte arrays,
 * and a per-game memo of candidate lists. Candidate lists come from the
 * target's inverted index and never change during a game — only the
 * exclusion state does — so GetBestMatch is a cheap re-argmax over a
 * cached list instead of a full rescore of the other side.
 */
class Game
{
  public:
    Game(const sim::ExecutableIndex &Q, const sim::ExecutableIndex &T,
         const GameOptions &options)
        : q_(Q), t_(T), opt_(options),
          match_q_(Q.procs.size(), -1), match_t_(T.procs.size(), -1),
          unmatchable_q_(Q.procs.size(), 0),
          unmatchable_t_(T.procs.size(), 0),
          cand_q_(Q.procs.size()), cand_t_(T.procs.size()),
          cand_ready_q_(Q.procs.size(), 0),
          cand_ready_t_(T.procs.size(), 0)
    {
    }

    GameResult
    run(int qv_index)
    {
        GameResult result;
        const Ref qv{true, qv_index};
        std::vector<Ref> stack{qv};
        auto name_of = [this](const Ref &r) {
            const auto &procs = r.in_q ? q_.procs : t_.procs;
            const auto &p = procs[static_cast<std::size_t>(r.index)];
            if (!p.name.empty()) {
                return p.name;
            }
            return "sub_" + to_hex(p.entry);
        };
        auto note = [&result, this](const std::string &line) {
            if (opt_.record_trace) {
                result.trace.push_back(line);
            }
        };

        const bool deadline_set = opt_.max_seconds > 0.0;
        const auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::duration_cast<
                std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(
                    deadline_set ? opt_.max_seconds : 0.0));
        std::uint64_t loop_iter = 0;
        while (!stack.empty()) {
            if (result.steps >= opt_.max_steps) {
                result.ending = GameEnding::Unresolved;
                note("budget: step limit reached, game unresolved");
                break;
            }
            // The clock syscall would dominate a cheap step; sample it
            // every 64 iterations (and always on the first, so a
            // pre-expired deadline still ends the game at step 0). The
            // cancel token shares the sample point: polling an atomic is
            // cheap, but checking it on every step would still pay a
            // cache-line load inside the hottest loop.
            if ((deadline_set || opt_.cancel != nullptr) &&
                (loop_iter++ & 63) == 0) {
                if (opt_.cancel != nullptr && opt_.cancel->requested()) {
                    result.ending = GameEnding::Unresolved;
                    result.cancelled = true;
                    note("cancel: shutdown requested, game unresolved");
                    break;
                }
                if (deadline_set) {
                    ++deadline_samples_;
                    if (std::chrono::steady_clock::now() >= deadline) {
                        result.ending = GameEnding::Unresolved;
                        result.deadline_expired = true;
                        note("budget: deadline reached, game unresolved");
                        break;
                    }
                }
            }
            const Ref m = stack.back();
            if (is_matched(m)) {
                stack.pop_back();
                continue;
            }
            ++result.steps;

            int forward_sim = 0;
            const int forward = best_match(m, forward_sim);
            if (forward < 0 || forward_sim < opt_.min_sim) {
                // No usable candidate: qv loses outright, other
                // procedures are simply set aside.
                if (m == qv) {
                    break;
                }
                mark_unmatchable(m);
                stack.pop_back();
                continue;
            }
            const Ref fwd{!m.in_q, forward};

            int back_sim = 0;
            const int back = best_match(fwd, back_sim);
            if (opt_.record_trace) {
                note(strprintf(
                    "player: matches %s with %s (Sim=%d)",
                    name_of(m).c_str(), name_of(fwd).c_str(),
                    forward_sim));
            }
            // Eq. 1 lets the rival counter with any pick at least as
            // good (>=), so ties are contested; the deterministic
            // best_match tie-break keeps the game finite.
            const bool consistent = back == m.index;
            if (consistent) {
                note("rival: no better pick for " + name_of(fwd) +
                     "; pair accepted");
                record(m, fwd);
                if (m == qv || fwd == qv) {
                    result.matched = true;
                    result.ending = GameEnding::Matched;
                    const int t_index = m == qv ? forward : m.index;
                    result.target_index = t_index;
                    result.target_entry =
                        t_.procs[static_cast<std::size_t>(t_index)].entry;
                    result.sim = forward_sim;
                    break;
                }
                stack.pop_back();
                if (matched_count_ >= opt_.max_matches) {
                    // Heuristic cut-off (paper's third condition).
                    result.ending = GameEnding::Unresolved;
                    break;
                }
                continue;
            }
            // Rival found a strictly better owner for `forward`; push the
            // contested procedures and retry from the top of the stack.
            const Ref bck{m.in_q, back};
            ++rival_turns_;
            note(strprintf("rival: counters with %s (Sim=%d > %d)",
                           name_of(bck).c_str(), back_sim, forward_sim));
            bool pushed = false;
            for (const Ref &r : {fwd, bck}) {
                if (!is_matched(r) &&
                    std::find(stack.begin(), stack.end(), r) ==
                        stack.end()) {
                    stack.push_back(r);
                    pushed = true;
                }
            }
            if (!pushed) {
                break;  // fixed state: the game cannot make progress
            }
        }

        for (std::size_t qi = 0; qi < match_q_.size(); ++qi) {
            if (match_q_[qi] >= 0) {
                result.q_to_t.emplace(static_cast<int>(qi), match_q_[qi]);
            }
        }
        result.pairs_scored = stats_.pairs_scored;
        result.pairs_pruned = pairs_pruned_;
        result.scoring_elem_ops = stats_.elem_ops;
        // One registry flush per game: the hot loop only bumps plain
        // locals, so the Level::Off cost of a game is this single check.
        if (trace::level() != trace::Level::Off) {
            c_games.add();
            c_steps.add(static_cast<std::uint64_t>(result.steps));
            c_pairs_scored.add(result.pairs_scored);
            c_pairs_pruned.add(result.pairs_pruned);
            c_elem_ops.add(result.scoring_elem_ops);
            c_rival_turns.add(rival_turns_);
            c_deadline_samples.add(deadline_samples_);
            if (result.matched) {
                c_matched.add();
            }
            if (result.ending == GameEnding::Unresolved) {
                c_unresolved.add();
            }
            h_steps.observe(static_cast<std::uint64_t>(result.steps));
        }
        return result;
    }

  private:
    std::span<const std::uint64_t>
    strands(const Ref &r) const
    {
        const auto &procs = r.in_q ? q_.procs : t_.procs;
        return procs[static_cast<std::size_t>(r.index)].strands;
    }

    bool
    is_matched(const Ref &r) const
    {
        const auto &matched = r.in_q ? match_q_ : match_t_;
        return matched[static_cast<std::size_t>(r.index)] >= 0;
    }

    void
    mark_unmatchable(const Ref &r)
    {
        auto &unmatchable = r.in_q ? unmatchable_q_ : unmatchable_t_;
        unmatchable[static_cast<std::size_t>(r.index)] = 1;
    }

    /**
     * Candidate list of @p m against the other executable, computed at
     * most once per game (exclusion state changes between calls, the raw
     * Sim counts never do).
     */
    const std::vector<sim::Candidate> &
    candidates_of(const Ref &m)
    {
        auto &memo = m.in_q ? cand_q_ : cand_t_;
        auto &ready = m.in_q ? cand_ready_q_ : cand_ready_t_;
        const std::size_t i = static_cast<std::size_t>(m.index);
        if (!ready[i]) {
            const sim::ExecutableIndex &other = m.in_q ? t_ : q_;
            memo[i] = sim::shared_candidates(other, strands(m), &stats_);
            ready[i] = 1;
        }
        return memo[i];
    }

    /**
     * GetBestMatch: the highest-Sim procedure on the other side that is
     * not already matched. Ties break to the lowest index. Procedures
     * sharing zero strands are never touched; when every candidate is
     * excluded, the dense semantics are preserved by falling back to the
     * lowest eligible index with Sim 0.
     */
    int
    best_match(const Ref &m, int &best_sim)
    {
        const auto &others = m.in_q ? t_.procs : q_.procs;
        const auto &match_other = m.in_q ? match_t_ : match_q_;
        const auto &unmatchable_other =
            m.in_q ? unmatchable_t_ : unmatchable_q_;
        const auto &ready = m.in_q ? cand_ready_q_ : cand_ready_t_;
        const bool fresh = !ready[static_cast<std::size_t>(m.index)];
        const std::vector<sim::Candidate> &cands = candidates_of(m);
        // Dense GetBestMatch rescored every procedure on every call —
        // a full (|m|+|other|)-element merge per pair; this path pays
        // only for candidates, and only on a memo miss.
        pairs_pruned_ += others.size() - (fresh ? cands.size() : 0);
        best_sim = -1;
        int best = -1;
        for (const sim::Candidate &c : cands) {
            const std::size_t i = static_cast<std::size_t>(c.index);
            if (match_other[i] >= 0 || unmatchable_other[i]) {
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
        for (std::size_t i = 0; i < others.size(); ++i) {
            if (match_other[i] < 0 && !unmatchable_other[i]) {
                best_sim = 0;
                return static_cast<int>(i);
            }
        }
        best_sim = -1;
        return -1;
    }

    void
    record(const Ref &m, const Ref &other)
    {
        const int qi = m.in_q ? m.index : other.index;
        const int ti = m.in_q ? other.index : m.index;
        match_q_[static_cast<std::size_t>(qi)] = ti;
        match_t_[static_cast<std::size_t>(ti)] = qi;
        ++matched_count_;
    }

    const sim::ExecutableIndex &q_;
    const sim::ExecutableIndex &t_;
    const GameOptions &opt_;
    std::vector<int> match_q_;  ///< Q index -> T index, -1 = unmatched
    std::vector<int> match_t_;  ///< T index -> Q index, -1 = unmatched
    std::vector<std::uint8_t> unmatchable_q_;
    std::vector<std::uint8_t> unmatchable_t_;
    std::vector<std::vector<sim::Candidate>> cand_q_;  ///< memo: Q vs T
    std::vector<std::vector<sim::Candidate>> cand_t_;  ///< memo: T vs Q
    std::vector<std::uint8_t> cand_ready_q_;
    std::vector<std::uint8_t> cand_ready_t_;
    std::size_t matched_count_ = 0;
    sim::ScoringStats stats_;         ///< actual scoring work
    std::uint64_t pairs_pruned_ = 0;
    std::uint64_t rival_turns_ = 0;      ///< back-and-forth counters
    std::uint64_t deadline_samples_ = 0; ///< deadline clock reads
};

}  // namespace

GameResult
match_query(const sim::ExecutableIndex &Q, int qv_index,
            const sim::ExecutableIndex &T, const GameOptions &options)
{
    const trace::TraceSpan span("game", T.name);
    Game game(Q, T, options);
    return game.run(qv_index);
}

}  // namespace firmup::game
