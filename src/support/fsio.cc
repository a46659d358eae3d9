#include "support/fsio.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include "support/str.h"

namespace firmup {

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

bool
fsync_stream(std::FILE *stream)
{
    if (stream == nullptr || std::fflush(stream) != 0) {
        return false;
    }
    return ::fsync(fileno(stream)) == 0;
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
