/**
 * @file
 * Persistent, content-addressed cache of serialized executable indexes:
 * the one warm tier of a scan.
 *
 * The paper's evaluation machine indexes its ~200k-executable corpus
 * once and then serves every CVE hunt as pure lookups (section 5.1);
 * this store is that shape for our pipeline. Each entry is one FWIX v6
 * file (sim/persist.h) named by the executable's content key
 * (eval::content_key — name + text bytes, so byte-identical executables
 * re-shipped across firmware versions share one entry, the section 5.2
 * observation). An index is its FWIX blob, so a store write publishes
 * the blob as it is, and a warm scan opens the stored bytes as an index
 * — procedure strand sets and CSR postings straight from disk — skipping
 * lift + canonicalize + pack entirely; entries written by older layouts
 * (e.g. FWIX v5) fail the open guards as StaleFormat and are
 * transparently re-indexed.
 *
 * load() maps an entry and opens the mapped bytes with open_index_view
 * after a checksum pass — no copies. The mapping is pinned by the
 * index's `backing` and unmapped when the last copy drops it, so a
 * loaded index stays valid after its store is destroyed and its file
 * removed. `use_mmap = false` (--no-mmap), or a map that fails, reads
 * the file into a heap buffer and opens that instead.
 *
 * Robustness contract:
 *  - writes are atomic AND durable: write to `<entry>.tmp-<tid>`,
 *    fsync the temp file, rename over the final path, then fsync the
 *    parent directory — a crash at any point leaves either the old
 *    entry, the complete new entry, or nothing (never a torn file, and
 *    never a rename the directory forgot). A rename refused with
 *    cross-device EXDEV is retried through a dir-local copy.
 *  - loads never trust the bytes: any missing, truncated, corrupted or
 *    stale-format file surfaces as a clean Result error (the FWIX
 *    version/layout/checksum guards), which callers treat as a cache
 *    miss and re-lift — never a crash or a silently wrong index.
 */
#pragma once

#include <string>

#include "sim/persist.h"
#include "support/error.h"

namespace firmup::sim {

/** One-file-per-content-key FWIX store under a cache directory. */
class IndexCacheStore
{
  public:
    /**
     * Per-load timing attribution for ScanHealth's cache_load split:
     * open (file open + mmap or read), checksum (the container guards),
     * parse (open_index_view). `mapped` is set when a mapped file
     * served the returned index — a failed map falls back to a read.
     */
    struct LoadStats
    {
        double open_seconds = 0.0;
        double checksum_seconds = 0.0;
        double parse_seconds = 0.0;
        bool mapped = false;
    };

    /**
     * Bind the store to @p dir, creating it (and parents) when absent.
     * A directory that cannot be created is not fatal here: every
     * subsequent load misses and every store reports IoError.
     */
    explicit IndexCacheStore(std::string dir);

    const std::string &dir() const { return dir_; }

    /** Entry path for @p content_key: `<dir>/<hex-key>.fwix`. */
    std::string path_for(std::uint64_t content_key) const;

    /**
     * Load the entry for @p content_key. With @p use_mmap the entry is
     * mapped, otherwise (or when the map fails) it is read into a heap
     * buffer; either way the bytes are opened with open_index_view and
     * live exactly as long as the returned index (or any copy of it).
     * Errors: IoError when the entry does not exist or cannot be read;
     * MalformedContainer / TruncatedMember / StaleFormat when it fails
     * the FWIX guards. All of them mean "cache miss" to the caller.
     */
    Result<ExecutableIndex> load(std::uint64_t content_key, bool use_mmap,
                                 LoadStats *stats = nullptr) const;

    /**
     * Atomically publish @p index's blob as the entry for
     * @p content_key (write temp + fsync + rename + fsync parent dir).
     * Safe to call from worker threads. @return bytes written.
     */
    Result<std::size_t> store(std::uint64_t content_key,
                              const ExecutableIndex &index) const;

  private:
    std::string dir_;
};

}  // namespace firmup::sim
