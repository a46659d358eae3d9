/**
 * @file
 * Pairwise procedure similarity (paper section 3.3) and executable
 * indexes.
 *
 * Sim(q, t) = |Strands(q) ∩ Strands(t)| over hashed canonical strands —
 * a plain set intersection with no counts, exactly as the paper defines
 * it. Strand sets are sorted flat vectors, so the intersection is a
 * two-pointer merge (with galloping when the sizes are lopsided) rather
 * than per-hash tree lookups.
 *
 * An ExecutableIndex is the unit both the game and the baselines operate
 * on: every procedure of one executable, represented as strand hash
 * sets, plus the search acceleration structures that make corpus-scale
 * matching cheap: a CSR inverted index (strand hash → posting list of
 * procedure indices) and hashed entry/name lookup maps. Most (q, t)
 * procedure pairs in a corpus share zero strands; joining two posting
 * dictionaries touches only the pairs that share at least one.
 */
#pragma once

#include <algorithm>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "lifter/cfg.h"
#include "strand/canon.h"

namespace firmup::sim {

/** One indexed procedure. */
struct ProcEntry
{
    std::uint64_t entry = 0;
    std::string name;  ///< empty when stripped
    /** Sorted, unique strand hashes: a span into the index's blob. */
    std::span<const std::uint64_t> strands;
    std::uint32_t block_count = 0;
    std::uint32_t stmt_count = 0;
};

/** One candidate from the inverted index: a procedure and its exact Sim. */
struct Candidate
{
    int index = -1;  ///< into ExecutableIndex::procs
    int sim = 0;     ///< |shared strands| — exact, not an estimate
};

/**
 * All procedures of one executable, represented for similarity search:
 * a read-only view over one FWIX v6 blob (sim/persist.h). A fresh build
 * packs the blob (build_index); a store load maps or reads it; both
 * open it with open_index_view. Strand sets and postings are spans into
 * the blob; only entries, names and the lookup maps are materialized.
 */
struct ExecutableIndex
{
    std::string name;
    isa::Arch arch = isa::Arch::Mips32;
    std::vector<ProcEntry> procs;

    /**
     * CSR inverted index: posting_hashes is the sorted union of all
     * strand hashes; the procedures containing posting_hashes[i] are
     * posting_procs[posting_offsets[i] .. posting_offsets[i+1]), in
     * ascending procedure order. posting_offsets has
     * posting_hashes.size() + 1 entries.
     */
    std::span<const std::uint64_t> posting_hashes;
    std::span<const std::uint32_t> posting_offsets;
    std::span<const std::uint32_t> posting_procs;

    /** The FWIX bytes every span above points into. */
    std::span<const std::uint8_t> blob;

    /**
     * Keeps `blob` alive: the heap buffer of a fresh build, or the
     * MappedFile or read buffer of a store load. Copying the index
     * shares it, so a copy stays valid after the store that loaded it
     * is gone.
     */
    std::shared_ptr<const void> backing;

    /** Hashed lookup maps; the first occurrence of a key wins. */
    std::unordered_map<std::uint64_t, int> entry_map;
    std::unordered_map<std::string, int> name_map;

    /** Index of the procedure whose entry is @p addr, or -1. */
    int find_by_entry(std::uint64_t addr) const;
    /** Index of the first procedure named @p name, or -1. */
    int find_by_name(const std::string &name) const;
};

/**
 * Build the index of a lifted executable. Canonicalization knobs are
 * taken from @p options; section ranges are filled in from @p lifted and
 * the memo context is pinned to the executable's ISA.
 *
 * @param threads fan procedure canonicalization across this many worker
 *        threads. The result is bit-identical for every thread count:
 *        procedures are written into pre-sized slots, so the merge order
 *        is the deterministic procedure order of @p lifted. Values <= 1
 *        (and small executables) run inline.
 */
ExecutableIndex index_executable(const lifter::LiftedExecutable &lifted,
                                 strand::CanonOptions options = {},
                                 unsigned threads = 1);

namespace detail {

/**
 * First position in [first, last) not less than @p key, found by
 * exponential (galloping) probing followed by a bounded binary search.
 * Beats std::lower_bound when the answer is near the front — which it
 * is when intersecting a small sorted set against a huge one.
 */
inline const std::uint64_t *
gallop_lower_bound(const std::uint64_t *first, const std::uint64_t *last,
                   std::uint64_t key)
{
    const std::size_t n = static_cast<std::size_t>(last - first);
    std::size_t bound = 1;
    while (bound < n && first[bound] < key) {
        bound <<= 1;
    }
    return std::lower_bound(first + (bound >> 1),
                            first + std::min(bound + 1, n), key);
}

}  // namespace detail

/**
 * The one intersection kernel: visit every hash two sorted, unique hash
 * sets share as @p on(i, j), where a[i] == b[j], in ascending hash order
 * (the order matters: weighted_sim must accumulate bit-identically no
 * matter which side is smaller). Linear two-pointer merge for
 * comparable sizes, galloping from the smaller side when lopsided
 * (>= 16x). sim_score, weighted_sim and the game's posting join
 * (game/game.cc) all run on it.
 *
 * @return the set elements the kernel visited: in a merge, every
 *         element either cursor steps past; in a gallop, two per probe
 *         (the smaller side's element and the one it lands on).
 */
template <typename OnShared>
std::size_t
for_each_shared(std::span<const std::uint64_t> a,
                std::span<const std::uint64_t> b, OnShared &&on)
{
    const bool swapped = a.size() > b.size();
    if (swapped) {
        std::swap(a, b);
    }
    if (a.empty()) {
        return 0;
    }
    const std::uint64_t *const s0 = a.data();
    const std::uint64_t *const se = s0 + a.size();
    const std::uint64_t *const l0 = b.data();
    const std::uint64_t *const le = l0 + b.size();
    const std::uint64_t *s = s0;
    const std::uint64_t *l = l0;
    const auto emit = [&] {
        const auto i = static_cast<std::size_t>(s - s0);
        const auto j = static_cast<std::size_t>(l - l0);
        if (swapped) {
            on(j, i);
        } else {
            on(i, j);
        }
    };
    constexpr std::size_t kGallopRatio = 16;
    if (b.size() / a.size() >= kGallopRatio) {
        for (; s != se && l != le; ++s) {
            l = detail::gallop_lower_bound(l, le, *s);
            if (l != le && *l == *s) {
                emit();
                ++l;
            }
        }
        return 2 * static_cast<std::size_t>(s - s0);
    }
    while (s != se && l != le) {
        if (*s < *l) {
            ++s;
        } else if (*l < *s) {
            ++l;
        } else {
            emit();
            ++s;
            ++l;
        }
    }
    return static_cast<std::size_t>((s - s0) + (l - l0));
}

/**
 * Sim(q, t): the number of shared canonical strands of two sorted,
 * unique hash sets (for_each_shared). The game computes the same count
 * for every procedure pair of two executables at once, by joining their
 * posting dictionaries; this pairwise form serves the baselines and the
 * procedure-centric ablation.
 */
int sim_score(std::span<const std::uint64_t> q,
              std::span<const std::uint64_t> t);

/**
 * Every procedure of @p T sharing at least one strand with @p q (sorted,
 * unique), with its exact Sim, in ascending procedure-index order. Reads
 * the posting lists, so it touches only procedures that share a strand
 * (the VulMatch-style signature pruning). Serves the GitZ-style baseline
 * and the use_game = false ablation; the game joins whole posting
 * dictionaries instead (game/game.h).
 */
std::vector<Candidate> shared_candidates(const ExecutableIndex &T,
                                         std::span<const std::uint64_t> q);

/**
 * Statistical strand weights trained from a sample of procedures — the
 * "global context" of GitZ: common strands (prologue shapes, trivial
 * moves) carry little evidence, rare strands carry much.
 */
struct GlobalContext
{
    std::map<std::uint64_t, double> weights;
    double default_weight = 1.0;

    double weight_of(std::uint64_t hash) const;
};

/** Train a global context over all procedures in @p sample. */
GlobalContext train_global_context(
    const std::vector<const ExecutableIndex *> &sample);

/** Weighted similarity: sum of weights of shared strands. */
double weighted_sim(std::span<const std::uint64_t> q,
                    std::span<const std::uint64_t> t,
                    const GlobalContext &context);

}  // namespace firmup::sim
