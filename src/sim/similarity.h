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
 * sets, plus — once finalize() has run — the search acceleration
 * structures that make corpus-scale matching cheap: a CSR inverted index
 * (strand hash → posting list of procedure indices) and hashed
 * entry/name lookup maps. Most (q, t) procedure pairs in a corpus share
 * zero strands; the posting lists let GetBestMatch touch only the pairs
 * that share at least one.
 */
#pragma once

#include <map>
#include <memory>
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
    strand::ProcedureStrands repr;
};

/** One candidate from the inverted index: a procedure and its exact Sim. */
struct Candidate
{
    int index = -1;  ///< into ExecutableIndex::procs
    int sim = 0;     ///< |shared strands| — exact, not an estimate
};

/** All procedures of one executable, represented for similarity search. */
struct ExecutableIndex
{
    std::string name;
    isa::Arch arch = isa::Arch::Mips32;
    std::vector<ProcEntry> procs;

    /**
     * CSR inverted index, built by finalize(): posting_hashes is the
     * sorted union of all strand hashes; the procedures containing
     * posting_hashes[i] are posting_procs[posting_offsets[i] ..
     * posting_offsets[i+1]), in ascending procedure order. Hand-built
     * indexes that never call finalize() still work — every consumer
     * falls back to a dense scan — but corpus-scale search wants this.
     *
     * Owning mode only: a view-mode index (FWIX mmap load) leaves
     * these empty and points the *_view members into the mapped blob.
     * Consumers go through the posting_*_data()/count() accessors.
     */
    std::vector<std::uint64_t> posting_hashes;
    std::vector<std::uint32_t> posting_offsets;
    std::vector<std::uint32_t> posting_procs;
    bool search_ready = false;  ///< postings + lookup maps are built

    /**
     * Non-owning CSR views over an mmap'ed FWIX blob, pinned alive
     * by `backing`. posting_offsets_view has posting_count_view + 1
     * entries when set.
     */
    const std::uint64_t *posting_hashes_view = nullptr;
    const std::uint32_t *posting_offsets_view = nullptr;
    const std::uint32_t *posting_procs_view = nullptr;
    std::uint32_t posting_count_view = 0;       ///< distinct hashes
    std::uint32_t posting_procs_count_view = 0; ///< total incidences

    /**
     * Keepalive for view mode: holds the MappedFile (or byte buffer)
     * every *_view pointer and every procs[i].repr.hash_view points
     * into. Copying the index shares the mapping; the pages outlive
     * every copy, so resident-cache eviction can never invalidate an
     * in-use view. Null for owning-mode indexes.
     */
    std::shared_ptr<const void> backing;
    std::size_t mapped_bytes = 0;  ///< blob size behind `backing`

    /** Hashed lookup maps (satellite of the posting build). */
    std::unordered_map<std::uint64_t, int> entry_map;
    std::unordered_map<std::string, int> name_map;

    /**
     * Build the posting lists and lookup maps. Called by
     * index_executable() and parse_index(); call it yourself after
     * assembling an index by hand to get the fast paths.
     */
    void finalize();

    /** Index of the procedure whose entry is @p addr, or -1. */
    int find_by_entry(std::uint64_t addr) const;
    /** Index of the first procedure named @p name, or -1. */
    int find_by_name(const std::string &name) const;

    /** True when this index borrows its arenas from a mapped blob. */
    bool view_mode() const { return posting_hashes_view != nullptr; }

    /** Sorted union of strand hashes (owning or view storage). */
    const std::uint64_t *
    posting_hash_data() const
    {
        return posting_hashes_view != nullptr ? posting_hashes_view
                                              : posting_hashes.data();
    }

    std::size_t
    posting_hash_count() const
    {
        return posting_hashes_view != nullptr
                   ? std::size_t{posting_count_view}
                   : posting_hashes.size();
    }

    /** CSR row offsets; posting_hash_count() + 1 entries when built. */
    const std::uint32_t *
    posting_offset_data() const
    {
        return posting_offsets_view != nullptr ? posting_offsets_view
                                               : posting_offsets.data();
    }

    /** CSR column (procedure) indices. */
    const std::uint32_t *
    posting_proc_data() const
    {
        return posting_procs_view != nullptr ? posting_procs_view
                                             : posting_procs.data();
    }

    std::size_t
    posting_proc_count() const
    {
        return posting_procs_view != nullptr
                   ? std::size_t{posting_procs_count_view}
                   : posting_procs.size();
    }

    /**
     * Approximate bytes this index keeps resident — the accounting
     * unit of the ResidentIndexCache byte budget. View mode charges
     * the mapped blob plus the materialized per-procedure entries;
     * owning mode sums the vectors.
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
 * Sim(q, t): the number of shared canonical strands. A two-pointer
 * merge over the sorted flat hash vectors, galloping from the smaller
 * side when the sizes are lopsided (>= 16x). The posting-list path
 * (shared_candidates) computes the same count for every procedure of an
 * executable at once; this pairwise form serves the baselines, the
 * procedure-centric ablation and indexes that never ran finalize().
 */
int sim_score(const strand::ProcedureStrands &q,
              const strand::ProcedureStrands &t);

/** Work accounting for one or more shared_candidates calls. */
struct ScoringStats
{
    /** Pair scores produced: one per procedure whose Sim was computed. */
    std::uint64_t pairs_scored = 0;
    /**
     * Element-level scoring operations: posting-list accumulations plus
     * query-hash probes on the fast path; merge-length (|q|+|t|) per
     * pair on the dense fallback. This is the unit in which the old
     * dense GetBestMatch paid |q|+|t| per pair per call.
     */
    std::uint64_t elem_ops = 0;
};

/**
 * Every procedure of @p T sharing at least one strand with @p q, with
 * its exact Sim, in ascending procedure-index order. Uses the posting
 * lists when built (touching only procedures that share a strand, the
 * VulMatch-style signature pruning); otherwise scores every procedure
 * with sim_score.
 * @param stats when non-null, accumulates the scoring work performed —
 *        the game's "pairwise scoring operations" metric.
 */
std::vector<Candidate> shared_candidates(
    const ExecutableIndex &T, const strand::ProcedureStrands &q,
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
double weighted_sim(const strand::ProcedureStrands &q,
                    const strand::ProcedureStrands &t,
                    const GlobalContext &context);

}  // namespace firmup::sim
