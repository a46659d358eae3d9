/**
 * @file
 * The FWIX executable-index format: the one representation of an
 * ExecutableIndex, in memory and on disk.
 *
 * The paper's crawl indexes ~200k executables once and then answers many
 * CVE queries against the stored strand sets (section 5.1: "the
 * procedures were indexed as a set of strands"). Here every index *is*
 * its FWIX blob: build_index() packs a fresh one into a heap buffer, the
 * index store (sim/index_cache.h) maps or reads a stored one, and both
 * open it with open_index_view(), which hands out an ExecutableIndex
 * whose strand sets and posting lists are spans into the bytes. Storing
 * an index writes its blob as it is.
 *
 * Format history: v2 added the search-acceleration state (the CSR
 * posting lists); v3 and v4 added per-procedure data for the SIMD
 * pairwise kernels and the MinHash prefilter; v5 moved to a **flat
 * relocatable layout**. Format v6 keeps the v5 layout minus that
 * per-procedure data, which nothing reads now that the posting lists
 * are the one scoring path. A fixed directory of absolute offsets points
 * at typed arenas (exe/proc names, a packed 40-byte procedure table, one
 * hash arena, the three CSR posting arrays), with every u64 arena 8-byte
 * aligned. Header, directory and procedure records are little-endian;
 * the hash and posting arenas, which the view reads in place, are in
 * host byte order (identical bytes on little-endian hosts).
 *
 * The header guards against stale or damaged blobs three ways:
 *
 *  - a format **version** (older blobs are rejected with a distinct
 *    ErrorCode::StaleFormat "stale format" error, never misparsed —
 *    a v5 store self-invalidates into cache misses),
 *  - a **layout hash** — a constant digest of the byte-layout
 *    descriptor, bumped whenever any field changes width or meaning, so
 *    a same-version blob written by an incompatible build is also
 *    rejected as stale,
 *  - a **payload checksum** (over every byte after the header), so bit
 *    flips, splices and truncations inside the payload are detected
 *    instead of producing a silently wrong index.
 *
 * Every failure path returns a clean Result error (MalformedContainer /
 * TruncatedMember / StaleFormat); callers treat any of them as a cache
 * miss and re-lift.
 */
#pragma once

#include <memory>

#include "sim/similarity.h"
#include "support/bytes.h"
#include "support/error.h"

namespace firmup::sim {

/** Current FWIX format version (build_index always writes this). */
inline constexpr std::uint16_t kFwixVersion = 6;

/**
 * Digest of the v6 byte-layout descriptor. Written into every blob and
 * compared on open; a mismatch means the blob was written by an
 * incompatible layout and is rejected as ErrorCode::StaleFormat.
 */
std::uint64_t fwix_layout_hash();

/** One procedure handed to build_index(). */
struct ProcInput
{
    std::uint64_t entry = 0;
    std::string name;  ///< empty when stripped
    /** Strand set; its hashes must be sorted and unique. */
    strand::ProcedureStrands repr;
};

/**
 * Pack @p procs into a fresh FWIX v6 blob — procedure table, strand
 * hashes, and the CSR posting lists built by sorting every (hash,
 * procedure) incidence — and open it with open_index_view(). The blob
 * lives in an 8-byte-aligned heap buffer held by the index's `backing`.
 * The bytes depend only on the arguments (and the host byte order), so
 * the blob is what IndexCacheStore::store writes unchanged.
 */
ExecutableIndex build_index(const std::string &name, isa::Arch arch,
                            const std::vector<ProcInput> &procs);

/**
 * Container-level guards alone: magic, version, layout hash and the
 * full payload checksum. open_index_view() runs this unless told the
 * caller already did; it is split out so the load path can attribute
 * checksum time separately from open time (IndexCacheStore::LoadStats).
 */
Result<bool> check_container(const std::uint8_t *bytes, std::size_t size);

/**
 * Open an FWIX v6 blob as an index: the returned index's procedure
 * strand sets and CSR posting arrays are spans into @p bytes, and
 * @p backing is retained on the index to pin those bytes alive for as
 * long as any copy of the index exists. @p bytes must be 8-byte aligned.
 *
 * Validation: the container guards (check_container, unless
 * @p checked), then every memory-safety invariant — arena bounds and
 * alignment, zero padding, posting offsets starting at 0, nondecreasing
 * and ending at the incidence count, posting procedure indices in range
 * — and the order invariants the search kernels rely on: posting hashes
 * and each procedure's hashes strictly ascending. A blob failing any of
 * them is rejected, never repaired; so is one without the search-ready
 * flag.
 */
Result<ExecutableIndex> open_index_view(
    const std::uint8_t *bytes, std::size_t size,
    std::shared_ptr<const void> backing, bool checked = false);

}  // namespace firmup::sim
