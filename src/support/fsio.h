/**
 * @file
 * File reads, and durability helpers for crash-safe persistence.
 *
 * The atomic write-via-rename idiom (IndexCacheStore, ScanJournal) is
 * only crash-safe when the temp file's *contents* reach stable storage
 * before the rename publishes its name: without the fsync, a power loss
 * after the rename but before writeback can leave a fully-published
 * entry whose payload is a hole. These helpers are the missing half of
 * that idiom.
 */
#pragma once

#include <cstdio>
#include <string>

#include "support/bytes.h"
#include "support/error.h"

namespace firmup {

/**
 * Read the whole regular file @p path into a buffer sized by fstat.
 * Any failure — the path cannot be opened, is a directory or another
 * non-regular file, or the read errors or comes up short — is an
 * IoError, never an exception.
 */
Result<ByteBuffer> read_file_bytes(const std::string &path);

/**
 * Flush @p path's written contents to stable storage (POSIX fsync).
 * Returns false when the file cannot be opened or synced; callers on
 * the publish path should treat that as a failed write.
 */
bool fsync_path(const std::string &path);

/**
 * Flush @p dir's directory entries to stable storage. The rename that
 * publishes an atomic write is itself just a dirent update: without
 * syncing the parent directory a crash after the rename can forget the
 * published *name* even though the file contents are durable.
 */
bool fsync_dir(const std::string &dir);

/** fsync an already-open stdio stream (fflush + fsync of its fd). */
bool fsync_stream(std::FILE *stream);

/**
 * A fresh directory under the system temp dir, named
 * `<prefix>-<pid>-<n>` so that no two live ones collide across threads
 * or processes, and removed with everything in it on destruction.
 */
class ScopedTempDir
{
  public:
    explicit ScopedTempDir(const std::string &prefix);
    ~ScopedTempDir();
    ScopedTempDir(const ScopedTempDir &) = delete;
    ScopedTempDir &operator=(const ScopedTempDir &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

}  // namespace firmup
