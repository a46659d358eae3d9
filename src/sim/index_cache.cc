#include "sim/index_cache.h"

#include <chrono>
#include <filesystem>
#include <memory>
#include <system_error>

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
    // Without the fsyncs a crash could publish a name over a hole: the
    // corrupt-entry class the loader would then have to quarantine.
    return publish_file(path_for(content_key), index.blob);
}

}  // namespace firmup::sim
