#include "sim/index_cache.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <system_error>
#include <thread>

#include "support/fsio.h"
#include "support/mmapfile.h"
#include "support/str.h"

namespace firmup::sim {

namespace fs = std::filesystem;

namespace {

double
seconds_since(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

}  // namespace

IndexCacheStore::IndexCacheStore(std::string dir) : dir_(std::move(dir))
{
    std::error_code ec;
    fs::create_directories(dir_, ec);
    // A failure here is deliberately not fatal: load() will miss and
    // store() will report IoError, so the scan degrades to cold.
}

std::string
IndexCacheStore::path_for(std::uint64_t content_key) const
{
    return strprintf("%s/%016llx.fwix", dir_.c_str(),
                     static_cast<unsigned long long>(content_key));
}

Result<ExecutableIndex>
IndexCacheStore::load(std::uint64_t content_key, bool use_mmap,
                      LoadStats *stats) const
{
    LoadStats local;
    const auto finish = [&](Result<ExecutableIndex> out) {
        if (stats != nullptr) {
            *stats = local;
        }
        return out;
    };
    const std::string path = path_for(content_key);
    auto t0 = std::chrono::steady_clock::now();
    const std::uint8_t *bytes = nullptr;
    std::size_t size = 0;
    std::shared_ptr<const void> backing;
    bool mapped = false;
    if (use_mmap) {
        auto file = MappedFile::map(path);
        if (file.ok()) {
            auto shared =
                std::make_shared<MappedFile>(std::move(file).take());
            bytes = shared->data();
            size = shared->size();
            backing = std::move(shared);
            mapped = true;
        }
    }
    if (!mapped) {
        // --no-mmap, or a map that failed: the same bytes, read into a
        // heap buffer (8-byte aligned, like every operator new block).
        auto read = read_file_bytes(path);
        if (!read.ok()) {
            local.open_seconds = seconds_since(t0);
            return finish(Result<ExecutableIndex>::error(
                ErrorCode::IoError, "index cache miss: " +
                                        read.error_message()));
        }
        auto buffer = std::make_shared<ByteBuffer>(std::move(read).take());
        bytes = buffer->data();
        size = buffer->size();
        backing = std::move(buffer);
    }
    local.open_seconds = seconds_since(t0);
    t0 = std::chrono::steady_clock::now();
    auto guard = check_container(bytes, size);
    local.checksum_seconds = seconds_since(t0);
    if (!guard.ok()) {
        return finish(Result<ExecutableIndex>::error_from(guard));
    }
    t0 = std::chrono::steady_clock::now();
    auto view = open_index_view(bytes, size, std::move(backing),
                                /*checked=*/true);
    local.parse_seconds = seconds_since(t0);
    local.mapped = mapped && view.ok();
    return finish(std::move(view));
}

Result<std::size_t>
IndexCacheStore::store(std::uint64_t content_key,
                       const ExecutableIndex &index) const
{
    const std::span<const std::uint8_t> bytes = index.blob;
    const std::string path = path_for(content_key);
    // Unique per writer: concurrent stores of the same key each write
    // their own temp file and the last rename wins atomically.
    const std::string tmp = strprintf(
        "%s.tmp-%llu", path.c_str(),
        static_cast<unsigned long long>(std::hash<std::thread::id>{}(
            std::this_thread::get_id())));
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
        if (!out) {
            std::error_code ec;
            fs::remove(tmp, ec);
            return Result<std::size_t>::error(
                ErrorCode::IoError, "index cache write failed: " + tmp);
        }
    }
    // Durability before publish: the rename is atomic in the namespace,
    // but without an fsync a crash shortly after can leave the *final*
    // path holding zero-length or partial data on some filesystems —
    // exactly the corrupt-entry class the loader then has to quarantine.
    // Sync the temp file so whatever gets renamed into place is the
    // complete blob or nothing.
    if (!fsync_path(tmp)) {
        std::error_code ec;
        fs::remove(tmp, ec);
        return Result<std::size_t>::error(
            ErrorCode::IoError, "index cache fsync failed: " + tmp);
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec == std::errc::cross_device_link) {
        // The temp normally shares the entry's directory, but callers
        // can hand a dir that is itself a mount boundary (overlay /
        // bind setups). Fall back to copying into a fresh dir-local
        // temp and renaming that — same atomicity, one extra copy.
        const std::string local_tmp = tmp + ".x";
        ec.clear();
        fs::copy_file(tmp, local_tmp,
                      fs::copy_options::overwrite_existing, ec);
        if (!ec && !fsync_path(local_tmp)) {
            ec = std::make_error_code(std::errc::io_error);
        }
        if (!ec) {
            fs::rename(local_tmp, path, ec);
        }
        std::error_code ec2;
        fs::remove(tmp, ec2);
        if (ec) {
            fs::remove(local_tmp, ec2);
        }
    }
    if (ec) {
        std::error_code ec2;
        fs::remove(tmp, ec2);
        return Result<std::size_t>::error(
            ErrorCode::IoError,
            "index cache publish failed: " + path + ": " + ec.message());
    }
    // The rename published a directory entry; fsync the directory so a
    // crash cannot roll the namespace back to "no such entry" while the
    // data blocks survive. Best-effort: a store that cannot sync its
    // directory still published a readable entry for this boot.
    fsync_dir(dir_);
    return bytes.size();
}

}  // namespace firmup::sim
