/**
 * @file
 * Binary similarity as a back-and-forth game — Algorithm 2 of the paper.
 *
 * The player tries to match the query procedure qv ∈ Q with a procedure
 * of the target executable T; the rival counters by exhibiting a better
 * match for the player's pick. The implementation is the player's winning
 * strategy: a stack of procedures to match, where a procedure is settled
 * only when the best match of its best match is itself (forward/backward
 * consistency), building the partial matching of Eq. 1 without ever
 * requiring a full matching of the two executables.
 *
 * Termination (GameDidntEnd in the paper):
 *   - qv acquires a match            → success;
 *   - the stack reaches a fixed state → failure (no consistent match);
 *   - too many matches or steps       → heuristic cut-off.
 */
#pragma once

#include <map>
#include <string>
#include <vector>

#include "sim/similarity.h"
#include "support/cancel.h"

namespace firmup::game {

/**
 * Game budgets and cut-off heuristics (the paper's third ending
 * condition, GameDidntEnd). Every budget ends the game with a graceful
 * `Unresolved` outcome rather than unbounded iteration — a corpus scan
 * must never hang on one pathological executable pair.
 */
struct GameOptions
{
    int max_steps = 512;        ///< step budget; always enforced
    std::size_t max_matches = 128;  ///< partial-matching size budget
    /** Wall-clock budget in seconds; 0 disables the deadline. */
    double max_seconds = 0.0;
    int min_sim = 1;  ///< below this, a pair shares nothing usable
    bool record_trace = false;  ///< narrate moves (Table 1 style)
    /**
     * Cooperative cancellation: polled at the same 64-iteration sample
     * point as the wall-clock deadline, so a SIGTERM'd scan drains each
     * in-flight game within a bounded number of cheap steps instead of
     * running it to completion. A cancelled game ends Unresolved with
     * GameResult::cancelled set.
     */
    const CancelToken *cancel = nullptr;
};

/** How a game ended. */
enum class GameEnding : std::uint8_t {
    Matched,     ///< qv acquired a consistent match
    NoMatch,     ///< fixed state: no consistent match exists
    Unresolved,  ///< a step/match/deadline budget expired first
};

/** Outcome of one query-vs-executable game. */
struct GameResult
{
    bool matched = false;
    GameEnding ending = GameEnding::NoMatch;
    /** The game was cut short by GameOptions::cancel, not a budget. */
    bool cancelled = false;
    /**
     * Unresolved specifically because the wall-clock deadline expired —
     * the only Unresolved cause that is machine-load-dependent rather
     * than deterministic, and therefore the only one worth retrying
     * (the driver's transient-failure policy keys off this).
     */
    bool deadline_expired = false;
    int target_index = -1;       ///< index into T.procs when matched
    std::uint64_t target_entry = 0;
    int sim = 0;                 ///< Sim(qv, match)
    int steps = 0;               ///< loop iterations (Fig. 9 metric)
    /**
     * Pairwise similarity scores actually computed: one per candidate
     * pair on a candidate-list memo miss (lists are memoized per game).
     */
    std::uint64_t pairs_scored = 0;
    /**
     * Pair scores a dense GetBestMatch (rescoring every procedure on
     * every call) would have computed but this game skipped, via the
     * inverted index's zero-share pruning and the per-game memo.
     * pairs_scored + pairs_pruned is the dense-equivalent pair count.
     */
    std::uint64_t pairs_pruned = 0;
    /**
     * Element-level scoring operations actually performed (posting
     * accumulations + query-hash probes; see sim::ScoringStats).
     */
    std::uint64_t scoring_elem_ops = 0;
    /** The partial matching built along the way: Q index ↔ T index. */
    std::map<int, int> q_to_t;
    /** Player/rival narration when GameOptions::record_trace is set. */
    std::vector<std::string> trace;
};

/**
 * Run the game matching @p qv_index (into Q.procs) against T.
 */
GameResult match_query(const sim::ExecutableIndex &Q, int qv_index,
                       const sim::ExecutableIndex &T,
                       const GameOptions &options = {});

}  // namespace firmup::game
