/**
 * @file
 * Serialization of executable indexes.
 *
 * The paper's crawl indexes ~200k executables once and then answers many
 * CVE queries against the stored strand sets (section 5.1: "the
 * procedures were indexed as a set of strands"). This module provides
 * that persistence layer: an ExecutableIndex round-trips through a
 * compact binary format (magic "FWIX"), so a corpus can be lifted and
 * canonicalized once and searched many times.
 *
 * Format history: v2 added the finalized search-acceleration state (the
 * CSR posting lists built by ExecutableIndex::finalize()); v3 and v4
 * added per-procedure data for the SIMD pairwise kernels and the MinHash
 * prefilter; v5 moved to a **flat relocatable layout**. Format v6 keeps
 * the v5 layout minus that per-procedure data, which nothing reads now
 * that the posting lists are the one scoring path. A fixed directory of
 * absolute offsets points at typed arenas (exe/proc names, a packed
 * 40-byte procedure table, one hash arena, the three CSR posting
 * arrays), with every u64 arena 8-byte aligned. Nothing is
 * length-prefixed inline — the blob can be consumed two ways:
 *
 *  - open_index_view(): hand an ExecutableIndex *views* into the blob
 *    (procedure hash sets and posting arrays point straight at the
 *    mapped bytes; only the O(procs) fixed-size state — entries, names,
 *    counts — is materialized). This is the mmap warm path: opening an
 *    index costs a checksum pass plus O(procs), not a full re-parse
 *    into freshly allocated vectors.
 *  - parse_index(): the classic copying parser (the --no-mmap ablation
 *    baseline and the portability fallback for hosts where the direct
 *    view is unavailable — see open_view_supported()).
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
 *  - a **payload checksum** (FNV-1a over every byte after the header),
 *    so bit flips, splices and truncations inside the payload are
 *    detected instead of producing a silently wrong index.
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

/** Current FWIX format version (serialize_index always writes this). */
inline constexpr std::uint16_t kFwixVersion = 6;

/**
 * Digest of the v6 byte-layout descriptor. Serialized into every blob
 * and compared on parse; a mismatch means the blob was written by an
 * incompatible layout and is rejected as ErrorCode::StaleFormat.
 */
std::uint64_t fwix_layout_hash();

/** Serialize @p index into the FWIX v6 binary format. */
ByteBuffer serialize_index(const ExecutableIndex &index);

/**
 * Container-level guards alone: magic, version, layout hash and the
 * full payload checksum. Both consumers run this before touching the
 * payload; it is split out so the load path can attribute checksum time
 * separately from parse/open time (IndexCacheStore::LoadStats).
 */
Result<bool> check_container(const std::uint8_t *bytes, std::size_t size);

/**
 * Parse an FWIX v6 blob into an owning index (every arena copied into
 * vectors). A blob serialized from a finalized index parses straight to
 * `search_ready` (no finalize() re-run); one serialized from a
 * hand-built index is finalized on load. Runs check_container() first.
 */
Result<ExecutableIndex> parse_index(const std::uint8_t *bytes,
                                    std::size_t size);

/** Convenience overload. */
Result<ExecutableIndex> parse_index(const ByteBuffer &bytes);

/**
 * True when this host can serve FWIX views directly over mapped
 * bytes (little-endian byte order — the arenas are reinterpreted as
 * u64/u32 arrays in place). On other hosts open_index_view() fails and
 * callers fall back to parse_index().
 */
bool open_view_supported();

/**
 * Open a zero-copy *view* of an FWIX v6 blob: the returned index's
 * procedure hash sets and CSR posting arrays point into @p bytes, and
 * @p backing is retained on the index to pin those bytes alive for as
 * long as any copy of the index (or of its procedures) exists.
 *
 * Validation contract: all container guards (check_container, run
 * here unless the caller already did — see @p checked) plus every
 * memory-safety invariant — arena bounds and alignment, posting offset
 * monotonicity and endpoints, posting procedure indices in range.
 * Semantic invariants vouched for by the checksum (hash
 * sortedness inside an arena) are not re-scanned; that O(payload) work
 * is exactly what the view path exists to skip.
 *
 * Only `search_ready` blobs are viewable (a non-finalized blob needs
 * finalize(), which mutates — callers fall back to parse_index()).
 */
Result<ExecutableIndex> open_index_view(
    const std::uint8_t *bytes, std::size_t size,
    std::shared_ptr<const void> backing, bool checked = false);

}  // namespace firmup::sim
