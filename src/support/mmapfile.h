/**
 * @file
 * Read-only memory-mapped files for the zero-copy index load path.
 *
 * The FWIX container (sim/persist.h) is a flat relocatable blob:
 * every arena is addressed by offset, so an entry can be served
 * straight from the page cache — map it, checksum it, hand out views —
 * instead of being streamed through a parser into freshly allocated
 * vectors. MappedFile is the RAII half of that path: it owns one
 * PROT_READ / MAP_PRIVATE mapping and unmaps on destruction, so an
 * ExecutableIndex view can pin the bytes alive with a
 * shared_ptr<MappedFile>: the pages stay mapped for as long as any
 * copy of the index lives, even after the store that loaded it is gone.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "support/error.h"

namespace firmup {

/** One read-only mapping of a whole file (move-only RAII). */
class MappedFile
{
  public:
    MappedFile() = default;
    ~MappedFile();

    MappedFile(MappedFile &&other) noexcept;
    MappedFile &operator=(MappedFile &&other) noexcept;
    MappedFile(const MappedFile &) = delete;
    MappedFile &operator=(const MappedFile &) = delete;

    /**
     * Map @p path read-only. A zero-length file maps successfully with
     * data() == nullptr and size() == 0 (callers' bounds checks reject
     * it like any other truncated container). Errors: IoError when the
     * file cannot be opened, stat'ed or mapped.
     */
    static Result<MappedFile> map(const std::string &path);

    const std::uint8_t *data() const { return data_; }
    std::size_t size() const { return size_; }

  private:
    const std::uint8_t *data_ = nullptr;
    std::size_t size_ = 0;
};

}  // namespace firmup
