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
 * procedure pairs in a corpus share zero strands; the posting lists let
 * GetBestMatch touch only the pairs that share at least one.
 */
#pragma once

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
     * shares it, so resident-cache eviction can never invalidate an
     * in-use index.
     */
    std::shared_ptr<const void> backing;

    /** Hashed lookup maps; the first occurrence of a key wins. */
    std::unordered_map<std::uint64_t, int> entry_map;
    std::unordered_map<std::string, int> name_map;

    /** Index of the procedure whose entry is @p addr, or -1. */
    int find_by_entry(std::uint64_t addr) const;
    /** Index of the first procedure named @p name, or -1. */
    int find_by_name(const std::string &name) const;

    /**
     * Approximate bytes this index keeps resident — the accounting
     * unit of the ResidentIndexCache byte budget: the blob, the
     * per-procedure entries and the lookup maps.
     */
    std::size_t memory_bytes() const;
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

/**
 * Sim(q, t): the number of shared canonical strands of two sorted,
 * unique hash sets. A two-pointer merge, galloping from the smaller
 * side when the sizes are lopsided (>= 16x). The posting-list path
 * (shared_candidates) computes the same count for every procedure of an
 * executable at once; this pairwise form serves the baselines and the
 * procedure-centric ablation.
 */
int sim_score(std::span<const std::uint64_t> q,
              std::span<const std::uint64_t> t);

/** Work accounting for one or more shared_candidates calls. */
struct ScoringStats
{
    /** Pair scores produced: one per procedure whose Sim was computed. */
    std::uint64_t pairs_scored = 0;
    /**
     * Element-level scoring operations: posting-list accumulations plus
     * query-hash probes. The old dense GetBestMatch paid |q|+|t| per
     * pair per call in the same unit.
     */
    std::uint64_t elem_ops = 0;
};

/**
 * Every procedure of @p T sharing at least one strand with @p q (sorted,
 * unique), with its exact Sim, in ascending procedure-index order. Reads
 * the posting lists, so it touches only procedures that share a strand
 * (the VulMatch-style signature pruning).
 * @param stats when non-null, accumulates the scoring work performed —
 *        the game's "pairwise scoring operations" metric.
 */
std::vector<Candidate> shared_candidates(const ExecutableIndex &T,
                                         std::span<const std::uint64_t> q,
                                         ScoringStats *stats = nullptr);

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
