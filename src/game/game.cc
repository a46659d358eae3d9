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
 * and the |Q|x|T| table of every Sim(q, t), filled once by the
 * constructor's posting join. Raw Sims never change during a game —
 * only the exclusion state does — so GetBestMatch is an argmax over
 * one row or column of that table instead of a rescore of the other
 * side.
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
          read_q_(Q.procs.size(), 0), read_t_(T.procs.size(), 0),
          sims_(Q.procs.size() * T.procs.size(), 0)
    {
        join();
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
                if (opt_.record_trace) {
                    note("rival: no better pick for " + name_of(fwd) +
                         "; pair accepted");
                }
                record(m, fwd);
                if (m == qv || fwd == qv) {
                    result.matched = true;
                    result.ending = GameEnding::Matched;
                    const int t_index = m == qv ? forward : m.index;
                    result.target_index = t_index;
                    result.target_entry =
                        t_.procs[static_cast<std::size_t>(t_index)].entry;
                    result.sim = forward_sim;
                    result.runner_up_sim =
                        runner_up(qv_index, result.target_entry);
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
            if (opt_.record_trace) {
                note(strprintf("rival: counters with %s (Sim=%d > %d)",
                               name_of(bck).c_str(), back_sim,
                               forward_sim));
            }
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
        result.pairs_scored = pairs_scored_;
        result.pairs_pruned = pairs_pruned_;
        result.scoring_elem_ops = elem_ops_;
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
    /**
     * Fill sims_ with one sorted join of the two posting dictionaries:
     * every hash both executables hold adds the product of its two
     * posting lists into the table, so each cell ends at
     * |Strands(q) ∩ Strands(t)|. Cost: the dictionary elements the join
     * visits plus one increment per (q, t) incidence pair — the
     * game's scoring_elem_ops.
     */
    void
    join()
    {
        const std::size_t nt = t_.procs.size();
        std::uint64_t increments = 0;
        const std::size_t visits = sim::for_each_shared(
            q_.posting_hashes, t_.posting_hashes,
            [&](std::size_t qh, std::size_t th) {
                const std::uint32_t *const tp =
                    t_.posting_procs.data() + t_.posting_offsets[th];
                const std::uint32_t *const te =
                    t_.posting_procs.data() + t_.posting_offsets[th + 1];
                const std::uint32_t qlo = q_.posting_offsets[qh];
                const std::uint32_t qhi = q_.posting_offsets[qh + 1];
                for (std::uint32_t k = qlo; k < qhi; ++k) {
                    std::int32_t *const row =
                        sims_.data() + q_.posting_procs[k] * nt;
                    for (const std::uint32_t *t = tp; t != te; ++t) {
                        ++row[*t];
                    }
                }
                increments += static_cast<std::uint64_t>(qhi - qlo) *
                              static_cast<std::uint64_t>(te - tp);
            });
        elem_ops_ = visits + increments;
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
     * GetBestMatch: the highest-Sim procedure on the other side that is
     * not already matched or unmatchable, read from @p m's row (a Q
     * procedure) or column (a T procedure) of the Sim table. Strict `>`
     * breaks ties to the lowest index; when nothing eligible shares a
     * strand, that is the lowest eligible index at Sim 0.
     */
    int
    best_match(const Ref &m, int &best_sim)
    {
        const std::size_t nt = t_.procs.size();
        const std::size_t i = static_cast<std::size_t>(m.index);
        const std::size_t n = m.in_q ? nt : q_.procs.size();
        const std::int32_t *const sims =
            m.in_q ? sims_.data() + i * nt : sims_.data() + i;
        const std::size_t stride = m.in_q ? 1 : nt;
        const auto &match_other = m.in_q ? match_t_ : match_q_;
        const auto &unmatchable_other =
            m.in_q ? unmatchable_t_ : unmatchable_q_;
        // Dense GetBestMatch rescored every procedure on every call. A
        // row's nonzero Sims count as scored on its first read — the
        // pairs the posting join actually produced for it — and every
        // other pair of every read as pruned.
        auto &read = m.in_q ? read_q_ : read_t_;
        std::size_t scored = 0;
        if (!read[i]) {
            read[i] = 1;
            for (std::size_t o = 0; o < n; ++o) {
                scored += sims[o * stride] != 0 ? 1 : 0;
            }
        }
        pairs_scored_ += scored;
        pairs_pruned_ += n - scored;
        best_sim = -1;
        int best = -1;
        for (std::size_t o = 0; o < n; ++o) {
            if (match_other[o] >= 0 || unmatchable_other[o]) {
                continue;
            }
            if (sims[o * stride] > best_sim) {
                best_sim = sims[o * stride];
                best = static_cast<int>(o);
            }
        }
        return best;
    }

    /**
     * Confirm's runner-up for a match of @p qv at @p entry: the best
     * Sim(qv, t) over target procedures at any other entry, matched or
     * not (0 when none shares a strand).
     */
    int
    runner_up(int qv, std::uint64_t entry) const
    {
        const std::size_t nt = t_.procs.size();
        const std::int32_t *const row =
            sims_.data() + static_cast<std::size_t>(qv) * nt;
        int second = 0;
        for (std::size_t t = 0; t < nt; ++t) {
            if (t_.procs[t].entry != entry) {
                second = std::max(second, row[t]);
            }
        }
        return second;
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
    std::vector<std::uint8_t> read_q_;  ///< row already read once
    std::vector<std::uint8_t> read_t_;  ///< column already read once
    /** Sim(q, t) at [q * |T| + t]: linear in T, since Q is a query. */
    std::vector<std::int32_t> sims_;
    std::size_t matched_count_ = 0;
    std::uint64_t pairs_scored_ = 0;
    std::uint64_t pairs_pruned_ = 0;
    std::uint64_t elem_ops_ = 0;         ///< join visits + increments
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
