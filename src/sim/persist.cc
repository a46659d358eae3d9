#include "sim/persist.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <string_view>

#include "support/hash.h"
#include "support/trace.h"

namespace firmup::sim {

namespace {

constexpr std::uint8_t kMagic[4] = {'F', 'W', 'I', 'X'};

/**
 * Header: magic(4) version(2) layout_hash(8) payload_checksum(8).
 * The checksum covers every byte from kHeaderSize to the end —
 * including the 2 alignment pad bytes before the directory.
 */
constexpr std::size_t kHeaderSize = 4 + 2 + 8 + 8;

/** The fixed offset directory starts 8-aligned, after 2 pad bytes. */
constexpr std::size_t kDirOffset = 24;

/** Directory field offsets (absolute; all u64 unless noted). */
constexpr std::size_t kDirTotalSize = kDirOffset + 0;
constexpr std::size_t kDirArch = kDirOffset + 8;       // u8
constexpr std::size_t kDirFlags = kDirOffset + 9;      // u8 (bit0 ready)
constexpr std::size_t kDirPad = kDirOffset + 10;       // u16, zero
constexpr std::size_t kDirProcCount = kDirOffset + 12; // u32
constexpr std::size_t kDirNameOff = kDirOffset + 16;
constexpr std::size_t kDirNameLen = kDirOffset + 24;
constexpr std::size_t kDirNamesOff = kDirOffset + 32;
constexpr std::size_t kDirNamesLen = kDirOffset + 40;
constexpr std::size_t kDirProcTableOff = kDirOffset + 48;
constexpr std::size_t kDirHashesOff = kDirOffset + 56;
constexpr std::size_t kDirHashesCount = kDirOffset + 64;
constexpr std::size_t kDirPhOff = kDirOffset + 72;
constexpr std::size_t kDirPhCount = kDirOffset + 80;
constexpr std::size_t kDirPoOff = kDirOffset + 88;
constexpr std::size_t kDirPoCount = kDirOffset + 96;
constexpr std::size_t kDirPpOff = kDirOffset + 104;
constexpr std::size_t kDirPpCount = kDirOffset + 112;
constexpr std::size_t kDirEnd = kDirOffset + 120;

/** Packed per-procedure record in the proc table (byte offsets). */
constexpr std::size_t kProcRecSize = 40;
constexpr std::size_t kProcEntry = 0;      // u64
constexpr std::size_t kProcHashOff = 8;    // u64, absolute, 8-aligned
constexpr std::size_t kProcHashCount = 16; // u32
constexpr std::size_t kProcNameOff = 20;   // u32, into names arena
constexpr std::size_t kProcNameLen = 24;   // u32
constexpr std::size_t kProcBlocks = 28;    // u32
constexpr std::size_t kProcStmts = 32;     // u32
constexpr std::size_t kProcPad = 36;       // u32, zero

constexpr std::uint8_t kDirFlagReady = 1u << 0;

const trace::Counter c_index_builds("index.builds");
const trace::Counter c_posting_hashes("index.posting_hashes");
const trace::Counter c_posting_incidences("index.posting_incidences");
const trace::Counter c_indexed_procs("index.procedures");

std::uint64_t
payload_checksum(const std::uint8_t *bytes, std::size_t size)
{
    // content_hash64, not fnv1a64: the checksum pass is the dominant
    // cost of a warm mmap open (the view fixups are near-free), and
    // byte-serial FNV runs at ~1 byte/cycle. Host-local like the rest
    // of the store — a blob checked on a host of the other endianness
    // mismatches and degrades to a miss, never a wrong index.
    return content_hash64(std::string_view(
        reinterpret_cast<const char *>(bytes), size));
}

template <typename T>
Result<T>
malformed(const std::string &what)
{
    return Result<T>::error(ErrorCode::MalformedContainer, "fwix: " + what);
}

template <typename T>
Result<T>
truncated(const std::string &what)
{
    return Result<T>::error(ErrorCode::TruncatedMember,
                            "fwix: truncated " + what);
}

void
poke_u64(std::uint8_t *at, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        at[i] = static_cast<std::uint8_t>(value >> (8 * i));
    }
}

void
poke_u32(std::uint8_t *at, std::uint32_t value)
{
    for (int i = 0; i < 4; ++i) {
        at[i] = static_cast<std::uint8_t>(value >> (8 * i));
    }
}

/** Store @p value in host byte order (the in-place arenas). */
template <typename T>
void
poke_host(std::uint8_t *at, T value)
{
    std::memcpy(at, &value, sizeof value);
}

constexpr std::size_t
align8(std::size_t n)
{
    return (n + 7) & ~std::size_t{7};
}

/** The arena at @p off, read in place as @p count Ts (validated). */
template <typename T>
std::span<const T>
arena(const std::uint8_t *bytes, std::uint64_t off, std::uint64_t count)
{
    return {reinterpret_cast<const T *>(bytes + off),
            static_cast<std::size_t>(count)};
}

bool
strictly_ascending(std::span<const std::uint64_t> hashes)
{
    return std::adjacent_find(hashes.begin(), hashes.end(),
                              std::greater_equal<>()) == hashes.end();
}

/**
 * The decoded v6 directory, bounds- and alignment-validated against the
 * blob size. Every offset is absolute; every count is in elements.
 */
struct Directory
{
    isa::Arch arch = isa::Arch::Mips32;
    std::uint32_t proc_count = 0;
    std::uint64_t name_off = 0, name_len = 0;
    std::uint64_t names_off = 0, names_len = 0;
    std::uint64_t proc_table_off = 0;
    std::uint64_t hashes_off = 0, hashes_count = 0;
    std::uint64_t ph_off = 0, ph_count = 0;
    std::uint64_t po_off = 0, po_count = 0;
    std::uint64_t pp_off = 0, pp_count = 0;
};

/**
 * Decode + validate the directory. Memory-safety contract: on success,
 * every arena [off, off + count * elem) lies within [kDirEnd, size) with
 * the alignment its element type needs, so the spans the view hands out
 * can never read out of bounds.
 */
Result<Directory>
read_directory(const std::uint8_t *bytes, std::size_t size)
{
    if (size < kDirEnd) {
        return truncated<Directory>("directory");
    }
    if (read_u64_le(bytes + kDirTotalSize) != size) {
        return malformed<Directory>("total size mismatch");
    }
    if (read_u16_le(bytes + kHeaderSize) != 0 ||
        read_u16_le(bytes + kDirPad) != 0) {
        return malformed<Directory>("bad padding");
    }
    Directory dir;
    const std::uint8_t arch_byte = bytes[kDirArch];
    if (arch_byte > static_cast<std::uint8_t>(isa::Arch::X86)) {
        return malformed<Directory>("bad arch");
    }
    dir.arch = static_cast<isa::Arch>(arch_byte);
    const std::uint8_t flags = bytes[kDirFlags];
    if ((flags & ~kDirFlagReady) != 0) {
        return malformed<Directory>("bad header flags");
    }
    if ((flags & kDirFlagReady) == 0) {
        // Only indexes hand-built without posting lists wrote these.
        return malformed<Directory>("blob is not search-ready");
    }
    dir.proc_count = read_u32_le(bytes + kDirProcCount);
    dir.name_off = read_u64_le(bytes + kDirNameOff);
    dir.name_len = read_u64_le(bytes + kDirNameLen);
    dir.names_off = read_u64_le(bytes + kDirNamesOff);
    dir.names_len = read_u64_le(bytes + kDirNamesLen);
    dir.proc_table_off = read_u64_le(bytes + kDirProcTableOff);
    dir.hashes_off = read_u64_le(bytes + kDirHashesOff);
    dir.hashes_count = read_u64_le(bytes + kDirHashesCount);
    dir.ph_off = read_u64_le(bytes + kDirPhOff);
    dir.ph_count = read_u64_le(bytes + kDirPhCount);
    dir.po_off = read_u64_le(bytes + kDirPoOff);
    dir.po_count = read_u64_le(bytes + kDirPoCount);
    dir.pp_off = read_u64_le(bytes + kDirPpOff);
    dir.pp_count = read_u64_le(bytes + kDirPpCount);

    // Overflow-safe "arena fits": off within the blob, aligned, and
    // count * elem representable within the remaining bytes.
    const auto arena_ok = [size](std::uint64_t off, std::uint64_t count,
                                 std::uint64_t elem, std::uint64_t align) {
        if (off < kDirEnd || off > size) {
            return false;
        }
        if ((off & (align - 1)) != 0) {
            return false;
        }
        return elem == 0 || count <= (size - off) / elem;
    };
    if (!arena_ok(dir.name_off, dir.name_len, 1, 1) ||
        !arena_ok(dir.names_off, dir.names_len, 1, 1)) {
        return truncated<Directory>("name arena");
    }
    if (!arena_ok(dir.proc_table_off, dir.proc_count, kProcRecSize, 8)) {
        return truncated<Directory>("proc table");
    }
    if (!arena_ok(dir.hashes_off, dir.hashes_count, 8, 8)) {
        return truncated<Directory>("hash arena");
    }
    if (!arena_ok(dir.ph_off, dir.ph_count, 8, 8) ||
        !arena_ok(dir.po_off, dir.po_count, 4, 4) ||
        !arena_ok(dir.pp_off, dir.pp_count, 4, 4)) {
        return truncated<Directory>("posting arena");
    }
    if (dir.po_count != dir.ph_count + 1) {
        return malformed<Directory>("inconsistent posting shape");
    }
    return dir;
}

/** One decoded proc-table record, validated against the directory. */
struct ProcRec
{
    std::uint64_t entry = 0;
    std::uint64_t hash_off = 0;
    std::uint32_t hash_count = 0;
    std::uint32_t name_off = 0;
    std::uint32_t name_len = 0;
    std::uint32_t block_count = 0;
    std::uint32_t stmt_count = 0;
};

Result<ProcRec>
read_proc_rec(const std::uint8_t *bytes, const Directory &dir,
              std::uint32_t i)
{
    const std::uint8_t *p =
        bytes + dir.proc_table_off +
        static_cast<std::size_t>(i) * kProcRecSize;
    ProcRec rec;
    rec.entry = read_u64_le(p + kProcEntry);
    rec.hash_off = read_u64_le(p + kProcHashOff);
    rec.hash_count = read_u32_le(p + kProcHashCount);
    rec.name_off = read_u32_le(p + kProcNameOff);
    rec.name_len = read_u32_le(p + kProcNameLen);
    rec.block_count = read_u32_le(p + kProcBlocks);
    rec.stmt_count = read_u32_le(p + kProcStmts);
    if (read_u32_le(p + kProcPad) != 0) {
        return malformed<ProcRec>("bad proc padding");
    }
    // Hash span: absolute, 8-aligned, wholly inside the hash arena.
    if (rec.hash_off < dir.hashes_off ||
        (rec.hash_off & 7) != 0 ||
        (rec.hash_off - dir.hashes_off) / 8 + rec.hash_count >
            dir.hashes_count) {
        return truncated<ProcRec>("proc hash span");
    }
    // Name span: relative, wholly inside the names arena.
    if (rec.name_off > dir.names_len ||
        rec.name_len > dir.names_len - rec.name_off) {
        return truncated<ProcRec>("proc name span");
    }
    return rec;
}

/**
 * CSR posting safety scan: offsets start at 0, never decrease, end
 * exactly at the incidence count, and every procedure index is in
 * range. These bound every downstream posting walk (e.g. the game's
 * Sim table rows and columns, and the accumulators in
 * shared_candidates).
 */
bool
postings_safe(const ExecutableIndex &index)
{
    const auto &offsets = index.posting_offsets;
    if (offsets.front() != 0 ||
        offsets.back() != index.posting_procs.size() ||
        !std::is_sorted(offsets.begin(), offsets.end())) {
        return false;
    }
    return std::all_of(index.posting_procs.begin(),
                       index.posting_procs.end(), [&](std::uint32_t p) {
                           return p < index.procs.size();
                       });
}

}  // namespace

std::uint64_t
fwix_layout_hash()
{
    // Descriptor of the byte layout; bump the string whenever any
    // field changes width, order or meaning so old caches read as stale
    // instead of misparsing. The canon(...) tag names the canonical
    // strand byte-format revision: cached hashes are only comparable to
    // freshly computed ones when the canonicalizer that produced them
    // emitted the same byte sequence, so a format change (e.g. the
    // pinned left-to-right emission order of stream-v2; DESIGN.md
    // section 12) must invalidate old caches the same way a layout
    // change does.
    static const std::uint64_t hash = fnv1a64(
        "fwix-v6:hdr(magic4,ver-u16,layout-u64,ch64lane-payload-u64,"
        "pad-u16);dir@24(total-u64,arch-u8,flags-u8,pad-u16,procs-u32,"
        "name-u64x2,names-u64x2,ptab-u64,hashes-u64x2,ph-u64x2,po-u64x2,"
        "pp-u64x2);prec40(entry-u64,hoff-u64,hcnt-u32,noff-u32,nlen-u32,"
        "blocks-u32,stmts-u32,pad-u32);canon(stream-v2,lr-names)");
    return hash;
}

ExecutableIndex
build_index(const std::string &name, isa::Arch arch,
            const std::vector<ProcInput> &procs)
{
    // CSR inverted index: one (hash, proc) incidence per strand, sorted
    // by hash then procedure so every posting list is ascending.
    std::size_t hash_total = 0;
    std::size_t names_len = 0;
    for (const ProcInput &proc : procs) {
        hash_total += proc.repr.hashes.size();
        names_len += proc.name.size();
    }
    std::vector<std::pair<std::uint64_t, std::uint32_t>> incidences;
    incidences.reserve(hash_total);
    for (std::size_t i = 0; i < procs.size(); ++i) {
        for (const std::uint64_t h : procs[i].repr.hashes) {
            incidences.emplace_back(h, static_cast<std::uint32_t>(i));
        }
    }
    std::sort(incidences.begin(), incidences.end());
    std::size_t rows = 0;
    for (std::size_t k = 0; k < incidences.size(); ++k) {
        rows += k == 0 || incidences[k].first != incidences[k - 1].first;
    }

    // Arenas in directory order, each aligned to its element type; the
    // buffer starts zeroed, so every pad byte is 0.
    const std::size_t name_off = kDirEnd;
    const std::size_t names_off = align8(name_off + name.size());
    const std::size_t proc_table_off = align8(names_off + names_len);
    const std::size_t hashes_off =
        proc_table_off + procs.size() * kProcRecSize;
    const std::size_t ph_off = hashes_off + hash_total * 8;
    const std::size_t po_off = ph_off + rows * 8;
    const std::size_t pp_off = po_off + (rows + 1) * 4;
    const std::size_t total = pp_off + incidences.size() * 4;
    auto blob = std::make_shared<ByteBuffer>(total, 0);
    std::uint8_t *out = blob->data();

    std::memcpy(out, kMagic, sizeof kMagic);
    out[4] = static_cast<std::uint8_t>(kFwixVersion);
    out[5] = static_cast<std::uint8_t>(kFwixVersion >> 8);
    poke_u64(out + 6, fwix_layout_hash());
    poke_u64(out + kDirTotalSize, total);
    out[kDirArch] = static_cast<std::uint8_t>(arch);
    out[kDirFlags] = kDirFlagReady;
    poke_u32(out + kDirProcCount, static_cast<std::uint32_t>(procs.size()));
    poke_u64(out + kDirNameOff, name_off);
    poke_u64(out + kDirNameLen, name.size());
    poke_u64(out + kDirNamesOff, names_off);
    poke_u64(out + kDirNamesLen, names_len);
    poke_u64(out + kDirProcTableOff, proc_table_off);
    poke_u64(out + kDirHashesOff, hashes_off);
    poke_u64(out + kDirHashesCount, hash_total);
    poke_u64(out + kDirPhOff, ph_off);
    poke_u64(out + kDirPhCount, rows);
    poke_u64(out + kDirPoOff, po_off);
    poke_u64(out + kDirPoCount, rows + 1);
    poke_u64(out + kDirPpOff, pp_off);
    poke_u64(out + kDirPpCount, incidences.size());
    std::memcpy(out + name_off, name.data(), name.size());

    std::size_t name_at = 0;  // relative to the names arena
    std::size_t hash_at = hashes_off;
    for (std::size_t i = 0; i < procs.size(); ++i) {
        const ProcInput &proc = procs[i];
        const std::vector<std::uint64_t> &hashes = proc.repr.hashes;
        std::uint8_t *rec = out + proc_table_off + i * kProcRecSize;
        poke_u64(rec + kProcEntry, proc.entry);
        poke_u64(rec + kProcHashOff, hash_at);
        poke_u32(rec + kProcHashCount,
                 static_cast<std::uint32_t>(hashes.size()));
        poke_u32(rec + kProcNameOff, static_cast<std::uint32_t>(name_at));
        poke_u32(rec + kProcNameLen,
                 static_cast<std::uint32_t>(proc.name.size()));
        poke_u32(rec + kProcBlocks,
                 static_cast<std::uint32_t>(proc.repr.block_count));
        poke_u32(rec + kProcStmts,
                 static_cast<std::uint32_t>(proc.repr.stmt_count));
        std::memcpy(out + names_off + name_at, proc.name.data(),
                    proc.name.size());
        name_at += proc.name.size();
        if (!hashes.empty()) {  // an empty vector's data() may be null
            std::memcpy(out + hash_at, hashes.data(), hashes.size() * 8);
        }
        hash_at += hashes.size() * 8;
    }
    std::size_t row = 0;
    for (std::size_t k = 0; k < incidences.size(); ++k) {
        const auto [hash, proc] = incidences[k];
        if (k == 0 || hash != incidences[k - 1].first) {
            poke_host(out + ph_off + 8 * row, hash);
            poke_host(out + po_off + 4 * row,
                      static_cast<std::uint32_t>(k));
            ++row;
        }
        poke_host(out + pp_off + 4 * k, proc);
    }
    poke_host(out + po_off + 4 * rows,
              static_cast<std::uint32_t>(incidences.size()));
    poke_u64(out + 14, payload_checksum(out + kHeaderSize,
                                        total - kHeaderSize));

    auto view = open_index_view(out, total, blob, /*checked=*/true);
    // A blob packed here fails to open only when a caller handed in
    // hashes that are not sorted and unique.
    FIRMUP_ASSERT(view.ok(), "build_index: " + view.error_message());
    c_index_builds.add();
    c_posting_hashes.add(rows);
    c_posting_incidences.add(incidences.size());
    c_indexed_procs.add(procs.size());
    return std::move(view).take();
}

Result<bool>
check_container(const std::uint8_t *bytes, std::size_t size)
{
    if (size < 6 || std::memcmp(bytes, kMagic, 4) != 0) {
        return Result<bool>::error(ErrorCode::MalformedContainer,
                                   "fwix: bad magic");
    }
    const std::uint16_t version = read_u16_le(bytes + 4);
    if (version != kFwixVersion) {
        return Result<bool>::error(
            ErrorCode::StaleFormat,
            "fwix: stale format version " + std::to_string(version) +
                " (want " + std::to_string(kFwixVersion) + ")");
    }
    if (size < kHeaderSize) {
        return Result<bool>::error(ErrorCode::TruncatedMember,
                                   "fwix: truncated header");
    }
    if (read_u64_le(bytes + 6) != fwix_layout_hash()) {
        return Result<bool>::error(ErrorCode::StaleFormat,
                                   "fwix: stale layout hash");
    }
    if (read_u64_le(bytes + 14) !=
        payload_checksum(bytes + kHeaderSize, size - kHeaderSize)) {
        return Result<bool>::error(ErrorCode::MalformedContainer,
                                   "fwix: payload checksum mismatch");
    }
    return true;
}

Result<ExecutableIndex>
open_index_view(const std::uint8_t *bytes, std::size_t size,
                std::shared_ptr<const void> backing, bool checked)
{
    if (reinterpret_cast<std::uintptr_t>(bytes) % 8 != 0) {
        return malformed<ExecutableIndex>("blob is not 8-byte aligned");
    }
    if (!checked) {
        auto guard = check_container(bytes, size);
        if (!guard.ok()) {
            return Result<ExecutableIndex>::error_from(guard);
        }
    }
    auto decoded = read_directory(bytes, size);
    if (!decoded.ok()) {
        return Result<ExecutableIndex>::error_from(decoded);
    }
    const Directory &dir = decoded.value();

    ExecutableIndex index;
    index.arch = dir.arch;
    index.name.assign(
        reinterpret_cast<const char *>(bytes + dir.name_off),
        dir.name_len);
    index.procs.reserve(dir.proc_count);
    for (std::uint32_t i = 0; i < dir.proc_count; ++i) {
        auto decoded_rec = read_proc_rec(bytes, dir, i);
        if (!decoded_rec.ok()) {
            return Result<ExecutableIndex>::error_from(decoded_rec);
        }
        const ProcRec &rec = decoded_rec.value();
        ProcEntry proc;
        proc.entry = rec.entry;
        proc.name.assign(reinterpret_cast<const char *>(
                             bytes + dir.names_off + rec.name_off),
                         rec.name_len);
        proc.strands =
            arena<std::uint64_t>(bytes, rec.hash_off, rec.hash_count);
        if (!strictly_ascending(proc.strands)) {
            return malformed<ExecutableIndex>("unsorted procedure hashes");
        }
        proc.block_count = rec.block_count;
        proc.stmt_count = rec.stmt_count;
        index.procs.push_back(std::move(proc));
    }
    index.posting_hashes =
        arena<std::uint64_t>(bytes, dir.ph_off, dir.ph_count);
    index.posting_offsets =
        arena<std::uint32_t>(bytes, dir.po_off, dir.po_count);
    index.posting_procs =
        arena<std::uint32_t>(bytes, dir.pp_off, dir.pp_count);
    if (!postings_safe(index)) {
        return malformed<ExecutableIndex>("inconsistent posting shape");
    }
    if (!strictly_ascending(index.posting_hashes)) {
        return malformed<ExecutableIndex>("unsorted posting hashes");
    }
    // The lookup maps are rebuilt here rather than stored, which keeps
    // the blob byte-deterministic (unordered_map order is not).
    index.entry_map.reserve(index.procs.size());
    index.name_map.reserve(index.procs.size());
    for (std::size_t i = 0; i < index.procs.size(); ++i) {
        index.entry_map.emplace(index.procs[i].entry, static_cast<int>(i));
        index.name_map.emplace(index.procs[i].name, static_cast<int>(i));
    }
    index.blob = {bytes, size};
    index.backing = std::move(backing);
    return index;
}

}  // namespace firmup::sim
