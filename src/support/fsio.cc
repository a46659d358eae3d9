#include "support/fsio.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <functional>
#include <system_error>
#include <thread>

#include "support/str.h"

namespace firmup {

namespace {

/**
 * Flush @p path's written contents to stable storage (POSIX fsync).
 * Returns false when the file cannot be opened or synced.
 */
bool
fsync_path(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_WRONLY);
    if (fd < 0) {
        return false;
    }
    const bool ok = ::fsync(fd) == 0;
    ::close(fd);
    return ok;
}

/**
 * Flush @p dir's directory entries to stable storage. The rename that
 * publishes an atomic write is itself just a dirent update: without
 * syncing the parent directory a crash after the rename can forget the
 * published *name* even though the file contents are durable.
 */
bool
fsync_dir(const std::string &dir)
{
#ifdef O_DIRECTORY
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
#else
    const int fd = ::open(dir.c_str(), O_RDONLY);
#endif
    if (fd < 0) {
        return false;
    }
    const bool ok = ::fsync(fd) == 0;
    ::close(fd);
    return ok;
}

}  // namespace

Result<ByteBuffer>
read_file_bytes(const std::string &path)
{
    const auto fail = [&path](const char *what, int err) {
        return Result<ByteBuffer>::error(
            ErrorCode::IoError, std::string("cannot ") + what + " " +
                                    path + ": " + std::strerror(err));
    };
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
        return fail("open", errno);
    }
    struct stat st{};
    if (::fstat(fd, &st) != 0) {
        const int err = errno;
        ::close(fd);
        return fail("stat", err);
    }
    if (!S_ISREG(st.st_mode)) {
        ::close(fd);
        return fail("read", S_ISDIR(st.st_mode) ? EISDIR : EINVAL);
    }
    ByteBuffer bytes(static_cast<std::size_t>(st.st_size));
    std::size_t done = 0;
    while (done < bytes.size()) {
        const ssize_t n =
            ::read(fd, bytes.data() + done, bytes.size() - done);
        if (n < 0 && errno == EINTR) {
            continue;
        }
        if (n <= 0) {
            // A read error, or the file shrank under us.
            const int err = n < 0 ? errno : EIO;
            ::close(fd);
            return fail("read", err);
        }
        done += static_cast<std::size_t>(n);
    }
    ::close(fd);
    return bytes;
}

bool
fsync_stream(std::FILE *stream)
{
    if (stream == nullptr || std::fflush(stream) != 0) {
        return false;
    }
    return ::fsync(fileno(stream)) == 0;
}

Result<std::size_t>
publish_file(const std::string &path, std::span<const std::uint8_t> bytes)
{
    namespace fs = std::filesystem;
    const auto fail = [](const char *what, const std::string &name,
                         const std::string &why) {
        return Result<std::size_t>::error(
            ErrorCode::IoError,
            std::string("cannot ") + what + " " + name + ": " + why);
    };
    const std::string tmp = strprintf(
        "%s.tmp-%d-%llx", path.c_str(), static_cast<int>(::getpid()),
        static_cast<unsigned long long>(std::hash<std::thread::id>{}(
            std::this_thread::get_id())));
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr) {
        return fail("create", tmp, std::strerror(errno));
    }
    const bool wrote =
        std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size() &&
        fsync_stream(f);
    const int write_errno = errno;
    std::fclose(f);
    std::error_code ec;
    if (!wrote) {
        fs::remove(tmp, ec);
        return fail("write", tmp, std::strerror(write_errno));
    }
    fs::rename(tmp, path, ec);
    if (ec == std::errc::cross_device_link) {
        // The temp shares the target's directory, but that directory
        // can itself be a mount boundary (overlay or bind setups): copy
        // into a second temp and rename that instead.
        const std::string copy = tmp + ".x";
        ec.clear();
        fs::copy_file(tmp, copy, fs::copy_options::overwrite_existing,
                      ec);
        if (!ec && !fsync_path(copy)) {
            ec = std::make_error_code(std::errc::io_error);
        }
        if (!ec) {
            fs::rename(copy, path, ec);
        }
        std::error_code ignored;
        fs::remove(copy, ignored);
        fs::remove(tmp, ignored);
    }
    if (ec) {
        const std::string why = ec.message();
        fs::remove(tmp, ec);
        return fail("publish", path, why);
    }
    // Best-effort: a directory that cannot be synced still holds a
    // readable file for this boot.
    const fs::path dir = fs::path(path).parent_path();
    fsync_dir(dir.empty() ? "." : dir.string());
    return bytes.size();
}

ScopedTempDir::ScopedTempDir(const std::string &prefix)
{
    static std::atomic<unsigned> next{0};
    path_ = (std::filesystem::temp_directory_path() /
             strprintf("%s-%d-%u", prefix.c_str(),
                       static_cast<int>(::getpid()), next++))
                .string();
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
    std::filesystem::create_directories(path_, ec);
}

ScopedTempDir::~ScopedTempDir()
{
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
}

}  // namespace firmup
