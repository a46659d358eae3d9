/**
 * @file
 * File reads, and durability helpers for crash-safe persistence.
 *
 * The atomic write-via-rename idiom is only crash-safe when the temp
 * file's *contents* reach stable storage before the rename publishes
 * its name, and the rename itself is only durable once the directory
 * is synced: without those fsyncs a power loss can leave a published
 * entry whose payload is a hole, or forget the name altogether.
 * publish_file is that idiom, written once for every durable file
 * (IndexCacheStore entries and whole ScanJournal files).
 */
#pragma once

#include <cstdint>
#include <cstdio>
#include <span>
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

/** fsync an already-open stdio stream (fflush + fsync of its fd). */
bool fsync_stream(std::FILE *stream);

/**
 * Durably replace @p path with @p bytes: write them to a temp file
 * beside it (named per process and thread, so concurrent publishers of
 * one path never share a temp file and the last rename wins), fsync
 * it, rename it over @p path and fsync the directory. A rename refused
 * as cross-device is retried through a second, copied temp file. A
 * crash at any point leaves the previous file (or none) or the
 * complete new one. Any failure is an IoError that leaves no temp file
 * behind. Returns the bytes written.
 */
Result<std::size_t> publish_file(const std::string &path,
                                 std::span<const std::uint8_t> bytes);

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
