/**
 * @file
 * Strand canonicalization (paper section 3.2.1).
 *
 * Transforms a sliced strand into a canonical string so that semantically
 * equivalent fragments from different compilations — and different ISAs —
 * become syntactically equal. The pipeline applies exactly the steps the
 * paper lists:
 *
 *  1. **Offset elimination** — constants that point into the text or data
 *     sections (jump targets, static-data addresses) are replaced by
 *     anonymous offset tokens; stack/struct displacement constants are
 *     kept, as they describe the data the procedure manipulates.
 *  2. **Register folding** — registers read before written become the
 *     strand's inputs; the value computed by the strand's root statement
 *     is its output ("return value").
 *  3. **Compiler optimization** — symbolic re-optimization standing in
 *     for LLVM `opt`: constant folding and propagation, expression
 *     simplification, instruction combining (compare/flag idioms folded
 *     to a single comparison), common subexpression elimination (via hash
 *     consing) and dead code elimination (implicit: only the root's
 *     dataflow is printed).
 *  4. **Variable name normalization** — inputs and offsets are renamed by
 *     order of appearance in the canonical print (reg0, reg1, ..., off0).
 *
 * Each step can be disabled independently for the ablation benchmarks.
 *
 * The canonical form is a byte sequence with a pinned, explicitly
 * left-to-right emission order (DESIGN.md section 12): hashing streams
 * exactly those bytes into the FNV-1a state without materializing the
 * string, and `canonical_strand` / `canonical_strings` render the same
 * bytes — the reference oracle the tests hold every hash to.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/uir.h"
#include "strand/slice.h"

namespace firmup::strand {

class CanonMemo;

/** Section geometry used by offset elimination. */
struct SectionRanges
{
    std::uint64_t text_lo = 0, text_hi = 0;
    std::uint64_t data_lo = 0, data_hi = 0;

    bool
    contains(std::uint64_t value) const
    {
        return (value >= text_lo && value < text_hi) ||
               (value >= data_lo && value < data_hi);
    }
};

/** Canonicalization configuration (all knobs default to the paper's). */
struct CanonOptions
{
    SectionRanges sections;
    bool eliminate_offsets = true;
    bool optimize = true;
    bool normalize_names = true;
    /**
     * Optional cross-executable block memo (see strand/memo.h). When
     * set, represent_procedure() reuses the memoized strand-hash span
     * of any block already canonicalized under equivalent options.
     * Never part of hash identity: memo-on and memo-off produce
     * bit-identical representations. No product path sets it (every
     * scan canonicalizes each block directly); only perfbench's replay
     * does, and the option goes with that replay.
     */
    CanonMemo *memo = nullptr;
    /**
     * Extra disambiguation folded into memo keys — the indexers put
     * the ISA here. Semantically redundant (µIR statements plus the
     * knobs above fully determine the canonical form), but kept in the
     * key so sharing across architectures is conservative by
     * construction. Ignored when `memo` is null.
     */
    std::uint64_t memo_context = 0;
};

/** Canonical string form of one strand; fnv1a64 of it is strand_hash. */
std::string canonical_strand(const Strand &strand,
                             const CanonOptions &options);

/** 64-bit hash of the canonical form. */
std::uint64_t strand_hash(const Strand &strand,
                          const CanonOptions &options);

/**
 * A procedure represented as its set of hashed canonical strands.
 *
 * The set is stored flat — a sorted, deduplicated vector — so that
 * Sim(q, t) is a cache-friendly merge intersection instead of per-hash
 * tree lookups. Mutate via add() and restore the invariant with
 * finalize(); represent_procedure() and strand_set() do this for you.
 * An ExecutableIndex packs these sets into its FWIX blob
 * (sim::build_index) and hands them out as spans.
 */
struct ProcedureStrands
{
    std::vector<std::uint64_t> hashes;  ///< sorted, unique (finalize())
    std::size_t block_count = 0;
    std::size_t stmt_count = 0;

    /** Append a hash; the set is unordered until finalize() runs. */
    void add(std::uint64_t h) { hashes.push_back(h); }

    /** Sort + deduplicate — restores the flat-set invariant. */
    void finalize();

    /** Membership by binary search (requires the flat-set invariant). */
    bool contains(std::uint64_t h) const;

    std::size_t size() const { return hashes.size(); }
};

/** Flat strand set from arbitrary, possibly duplicated hashes. */
ProcedureStrands strand_set(std::vector<std::uint64_t> hashes);

/** Decompose, canonicalize and hash every block of @p proc (section 3.3). */
ProcedureStrands represent_procedure(const ir::Procedure &proc,
                                     const CanonOptions &options);

/**
 * All canonical strand strings of @p proc, through the reference
 * decompose_block (debugging, Fig. 3 demo, and the oracle for
 * represent_procedure: fnv1a64 of each string is a member of its set).
 */
std::vector<std::string> canonical_strings(const ir::Procedure &proc,
                                           const CanonOptions &options);

}  // namespace firmup::strand
