#include "sim/persist.h"

#include <algorithm>
#include <cstring>
#include <string_view>

#include "support/hash.h"

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

Result<ExecutableIndex>
malformed(const std::string &what)
{
    return Result<ExecutableIndex>::error(ErrorCode::MalformedContainer,
                                          "fwix: " + what);
}

Result<ExecutableIndex>
truncated(const std::string &what)
{
    return Result<ExecutableIndex>::error(ErrorCode::TruncatedMember,
                                          "fwix: truncated " + what);
}

/** Backpatch a u64 little-endian at a fixed position. */
void
poke_u64(ByteBuffer &out, std::size_t at, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        out[at + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(value >> (8 * i));
    }
}

void
poke_u32(ByteBuffer &out, std::size_t at, std::uint32_t value)
{
    for (int i = 0; i < 4; ++i) {
        out[at + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(value >> (8 * i));
    }
}

/** Append zero bytes until out.size() is a multiple of @p align. */
void
pad_to(ByteBuffer &out, std::size_t align)
{
    while (out.size() % align != 0) {
        out.push_back(0);
    }
}

/**
 * The decoded v6 directory, bounds- and alignment-validated against the
 * blob size. Every offset is absolute; every count is in elements.
 */
struct Directory
{
    isa::Arch arch = isa::Arch::Mips32;
    bool ready = false;
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
 * the alignment its element type needs, so arena pointers handed out by
 * the view path can never read out of bounds.
 */
Result<ExecutableIndex>
read_directory(const std::uint8_t *bytes, std::size_t size, Directory &dir,
               bool *ok)
{
    *ok = false;
    if (size < kDirEnd) {
        return truncated("directory");
    }
    if (read_u64_le(bytes + kDirTotalSize) != size) {
        return malformed("total size mismatch");
    }
    if (read_u16_le(bytes + kHeaderSize) != 0 ||
        read_u16_le(bytes + kDirPad) != 0) {
        return malformed("bad padding");
    }
    const std::uint8_t arch_byte = bytes[kDirArch];
    if (arch_byte > static_cast<std::uint8_t>(isa::Arch::X86)) {
        return malformed("bad arch");
    }
    dir.arch = static_cast<isa::Arch>(arch_byte);
    const std::uint8_t flags = bytes[kDirFlags];
    if ((flags & ~kDirFlagReady) != 0) {
        return malformed("bad header flags");
    }
    dir.ready = (flags & kDirFlagReady) != 0;
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
        return truncated("name arena");
    }
    if (!arena_ok(dir.proc_table_off, dir.proc_count, kProcRecSize, 8)) {
        return truncated("proc table");
    }
    if (!arena_ok(dir.hashes_off, dir.hashes_count, 8, 8)) {
        return truncated("hash arena");
    }
    if (!arena_ok(dir.ph_off, dir.ph_count, 8, 8) ||
        !arena_ok(dir.po_off, dir.po_count, 4, 4) ||
        !arena_ok(dir.pp_off, dir.pp_count, 4, 4)) {
        return truncated("posting arena");
    }
    if (dir.ready) {
        if (dir.po_count != dir.ph_count + 1) {
            return malformed("inconsistent posting shape");
        }
    } else if (dir.ph_count != 0 || dir.po_count != 0 ||
               dir.pp_count != 0) {
        return malformed("posting state without ready flag");
    }
    *ok = true;
    return malformed("unreachable");  // discarded when *ok
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

Result<ExecutableIndex>
read_proc_rec(const std::uint8_t *bytes, const Directory &dir,
              std::uint32_t i, ProcRec &rec, bool *ok)
{
    *ok = false;
    const std::uint8_t *p =
        bytes + dir.proc_table_off +
        static_cast<std::size_t>(i) * kProcRecSize;
    rec.entry = read_u64_le(p + kProcEntry);
    rec.hash_off = read_u64_le(p + kProcHashOff);
    rec.hash_count = read_u32_le(p + kProcHashCount);
    rec.name_off = read_u32_le(p + kProcNameOff);
    rec.name_len = read_u32_le(p + kProcNameLen);
    rec.block_count = read_u32_le(p + kProcBlocks);
    rec.stmt_count = read_u32_le(p + kProcStmts);
    if (read_u32_le(p + kProcPad) != 0) {
        return malformed("bad proc padding");
    }
    // Hash span: absolute, 8-aligned, wholly inside the hash arena.
    if (rec.hash_off < dir.hashes_off ||
        (rec.hash_off & 7) != 0 ||
        (rec.hash_off - dir.hashes_off) / 8 + rec.hash_count >
            dir.hashes_count) {
        return truncated("proc hash span");
    }
    // Name span: relative, wholly inside the names arena.
    if (rec.name_off > dir.names_len ||
        rec.name_len > dir.names_len - rec.name_off) {
        return truncated("proc name span");
    }
    *ok = true;
    return malformed("unreachable");  // discarded when *ok
}

/**
 * CSR posting safety scan, shared by both load paths: offsets start at
 * 0, never decrease, end exactly at pp_count, and every procedure index
 * is in range. These bound every downstream posting walk (e.g. the
 * per-procedure accumulators in shared_candidates), so they are
 * mandatory even on the zero-copy path. Strict ascending order of the
 * posting *hashes* is a semantic property the checksum vouches for; the
 * copying parser re-checks it (it is touching every byte anyway), the
 * view path does not.
 */
bool
postings_safe(const std::uint8_t *bytes, const Directory &dir)
{
    if (!dir.ready) {
        return true;
    }
    const std::uint8_t *po = bytes + dir.po_off;
    std::uint32_t prev = 0;
    for (std::uint64_t i = 0; i < dir.po_count; ++i) {
        const std::uint32_t o = read_u32_le(po + 4 * i);
        if (o < prev) {
            return false;
        }
        prev = o;
    }
    if (read_u32_le(po) != 0 ||
        read_u32_le(po + 4 * (dir.po_count - 1)) != dir.pp_count) {
        return false;
    }
    const std::uint8_t *pp = bytes + dir.pp_off;
    for (std::uint64_t i = 0; i < dir.pp_count; ++i) {
        if (read_u32_le(pp + 4 * i) >= dir.proc_count) {
            return false;
        }
    }
    return true;
}

/** Rebuild the O(procs) lookup maps (first occurrence wins). */
void
rebuild_maps(ExecutableIndex &index)
{
    index.entry_map.reserve(index.procs.size());
    index.name_map.reserve(index.procs.size());
    for (std::size_t i = 0; i < index.procs.size(); ++i) {
        index.entry_map.emplace(index.procs[i].entry,
                                static_cast<int>(i));
        index.name_map.emplace(index.procs[i].name,
                               static_cast<int>(i));
    }
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

ByteBuffer
serialize_index(const ExecutableIndex &index)
{
    ByteBuffer out;
    for (std::uint8_t byte : kMagic) {
        out.push_back(byte);
    }
    append_u16_le(out, kFwixVersion);
    append_u64_le(out, fwix_layout_hash());
    append_u64_le(out, 0);  // checksum backpatched below
    append_u16_le(out, 0);  // pad so the directory starts 8-aligned

    // Zeroed directory; every field is backpatched once the arena
    // offsets are known.
    out.resize(kDirEnd, 0);
    out[kDirArch] = static_cast<std::uint8_t>(index.arch);
    out[kDirFlags] = index.search_ready ? kDirFlagReady : 0;
    poke_u32(out, kDirProcCount,
             static_cast<std::uint32_t>(index.procs.size()));

    // Arena 1: executable name.
    poke_u64(out, kDirNameOff, out.size());
    poke_u64(out, kDirNameLen, index.name.size());
    out.insert(out.end(), index.name.begin(), index.name.end());

    // Arena 2: concatenated procedure names (per-proc u32 spans).
    pad_to(out, 8);
    const std::size_t names_off = out.size();
    std::vector<std::uint32_t> proc_name_offs(index.procs.size());
    for (std::size_t i = 0; i < index.procs.size(); ++i) {
        proc_name_offs[i] =
            static_cast<std::uint32_t>(out.size() - names_off);
        out.insert(out.end(), index.procs[i].name.begin(),
                   index.procs[i].name.end());
    }
    poke_u64(out, kDirNamesOff, names_off);
    poke_u64(out, kDirNamesLen, out.size() - names_off);

    // Arena 3: the packed proc table (hash offsets backpatched after
    // the hash arena is laid out).
    pad_to(out, 8);
    const std::size_t proc_table_off = out.size();
    poke_u64(out, kDirProcTableOff, proc_table_off);
    out.resize(proc_table_off + index.procs.size() * kProcRecSize, 0);

    // Arena 4: every procedure's hashes, concatenated.
    const std::size_t hashes_off = out.size();  // 8-aligned: table end
    for (std::size_t i = 0; i < index.procs.size(); ++i) {
        const ProcEntry &proc = index.procs[i];
        const std::size_t rec = proc_table_off + i * kProcRecSize;
        poke_u64(out, rec + kProcEntry, proc.entry);
        poke_u64(out, rec + kProcHashOff, out.size());
        poke_u32(out, rec + kProcHashCount,
                 static_cast<std::uint32_t>(proc.repr.hash_count()));
        poke_u32(out, rec + kProcNameOff, proc_name_offs[i]);
        poke_u32(out, rec + kProcNameLen,
                 static_cast<std::uint32_t>(proc.name.size()));
        poke_u32(out, rec + kProcBlocks,
                 static_cast<std::uint32_t>(proc.repr.block_count));
        poke_u32(out, rec + kProcStmts,
                 static_cast<std::uint32_t>(proc.repr.stmt_count));
        const std::uint64_t *hashes = proc.repr.hash_data();
        for (std::size_t h = 0; h < proc.repr.hash_count(); ++h) {
            append_u64_le(out, hashes[h]);
        }
    }
    poke_u64(out, kDirHashesOff, hashes_off);
    poke_u64(out, kDirHashesCount, (out.size() - hashes_off) / 8);

    // Arenas 5-7: the CSR posting triple. The entry/name maps are not
    // serialized — they are rebuilt in O(procs) at load, which keeps
    // the blob byte-deterministic (unordered_map iteration order is
    // not).
    poke_u64(out, kDirPhOff, out.size());
    if (index.search_ready) {
        poke_u64(out, kDirPhCount, index.posting_hash_count());
        const std::uint64_t *ph = index.posting_hash_data();
        for (std::size_t i = 0; i < index.posting_hash_count(); ++i) {
            append_u64_le(out, ph[i]);
        }
        poke_u64(out, kDirPoOff, out.size());
        poke_u64(out, kDirPoCount, index.posting_hash_count() + 1);
        const std::uint32_t *po = index.posting_offset_data();
        for (std::size_t i = 0; i <= index.posting_hash_count(); ++i) {
            append_u32_le(out, po[i]);
        }
        poke_u64(out, kDirPpOff, out.size());
        poke_u64(out, kDirPpCount, index.posting_proc_count());
        const std::uint32_t *pp = index.posting_proc_data();
        for (std::size_t i = 0; i < index.posting_proc_count(); ++i) {
            append_u32_le(out, pp[i]);
        }
    } else {
        poke_u64(out, kDirPoOff, out.size());
        poke_u64(out, kDirPpOff, out.size());
    }

    poke_u64(out, kDirTotalSize, out.size());
    const std::uint64_t checksum = payload_checksum(
        out.data() + kHeaderSize, out.size() - kHeaderSize);
    poke_u64(out, 4 + 2 + 8, checksum);
    return out;
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
parse_index(const std::uint8_t *bytes, std::size_t size)
{
    auto checked = check_container(bytes, size);
    if (!checked.ok()) {
        return Result<ExecutableIndex>::error_from(checked);
    }
    Directory dir;
    bool dir_ok = false;
    auto dir_err = read_directory(bytes, size, dir, &dir_ok);
    if (!dir_ok) {
        return dir_err;
    }

    ExecutableIndex index;
    index.arch = dir.arch;
    index.name.assign(
        reinterpret_cast<const char *>(bytes + dir.name_off),
        dir.name_len);
    index.procs.reserve(dir.proc_count);
    for (std::uint32_t i = 0; i < dir.proc_count; ++i) {
        ProcRec rec;
        bool rec_ok = false;
        auto rec_err = read_proc_rec(bytes, dir, i, rec, &rec_ok);
        if (!rec_ok) {
            return rec_err;
        }
        ProcEntry proc;
        proc.entry = rec.entry;
        proc.name.assign(reinterpret_cast<const char *>(
                             bytes + dir.names_off + rec.name_off),
                         rec.name_len);
        proc.repr.block_count = rec.block_count;
        proc.repr.stmt_count = rec.stmt_count;
        proc.repr.hashes.reserve(rec.hash_count);
        bool sorted = true;
        for (std::uint32_t h = 0; h < rec.hash_count; ++h) {
            const std::uint64_t value =
                read_u64_le(bytes + rec.hash_off + 8ull * h);
            sorted &= proc.repr.hashes.empty() ||
                      proc.repr.hashes.back() < value;
            proc.repr.add(value);
        }
        if (!sorted) {
            // Only blobs serialized from hand-built, never-finalized
            // indexes land here (the checksum vouches these are the
            // bytes serialize_index wrote); restore the flat-set
            // invariant for them.
            proc.repr.finalize();
        }
        index.procs.push_back(std::move(proc));
    }

    if (!dir.ready) {
        index.finalize();
        return index;
    }
    if (!postings_safe(bytes, dir)) {
        return malformed("inconsistent posting shape");
    }
    index.posting_hashes.reserve(dir.ph_count);
    for (std::uint64_t i = 0; i < dir.ph_count; ++i) {
        index.posting_hashes.push_back(
            read_u64_le(bytes + dir.ph_off + 8 * i));
    }
    // Semantic re-check the view path skips: the posting hash union is
    // strictly ascending. The copying parser touches every byte anyway,
    // so it keeps the v2-era strictness.
    for (std::size_t i = 1; i < index.posting_hashes.size(); ++i) {
        if (index.posting_hashes[i] <= index.posting_hashes[i - 1]) {
            return malformed("unsorted posting hashes");
        }
    }
    index.posting_offsets.reserve(dir.po_count);
    for (std::uint64_t i = 0; i < dir.po_count; ++i) {
        index.posting_offsets.push_back(
            read_u32_le(bytes + dir.po_off + 4 * i));
    }
    index.posting_procs.reserve(dir.pp_count);
    for (std::uint64_t i = 0; i < dir.pp_count; ++i) {
        index.posting_procs.push_back(
            read_u32_le(bytes + dir.pp_off + 4 * i));
    }
    rebuild_maps(index);
    index.search_ready = true;
    return index;
}

Result<ExecutableIndex>
parse_index(const ByteBuffer &bytes)
{
    return parse_index(bytes.data(), bytes.size());
}

bool
open_view_supported()
{
#if defined(__BYTE_ORDER__) && defined(__ORDER_LITTLE_ENDIAN__)
    return __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__;
#else
    return false;
#endif
}

Result<ExecutableIndex>
open_index_view(const std::uint8_t *bytes, std::size_t size,
                std::shared_ptr<const void> backing, bool checked)
{
    if (!open_view_supported()) {
        return malformed("view unsupported on this host");
    }
    if (!checked) {
        auto guard = check_container(bytes, size);
        if (!guard.ok()) {
            return Result<ExecutableIndex>::error_from(guard);
        }
    }
    Directory dir;
    bool dir_ok = false;
    auto dir_err = read_directory(bytes, size, dir, &dir_ok);
    if (!dir_ok) {
        return dir_err;
    }
    if (!dir.ready) {
        // A non-finalized blob needs finalize(), which builds vectors;
        // callers fall back to the copying parser.
        return malformed("view requires a search-ready blob");
    }
    if (!postings_safe(bytes, dir)) {
        return malformed("inconsistent posting shape");
    }

    ExecutableIndex index;
    index.arch = dir.arch;
    index.name.assign(
        reinterpret_cast<const char *>(bytes + dir.name_off),
        dir.name_len);
    index.procs.reserve(dir.proc_count);
    for (std::uint32_t i = 0; i < dir.proc_count; ++i) {
        ProcRec rec;
        bool rec_ok = false;
        auto rec_err = read_proc_rec(bytes, dir, i, rec, &rec_ok);
        if (!rec_ok) {
            return rec_err;
        }
        ProcEntry proc;
        proc.entry = rec.entry;
        proc.name.assign(reinterpret_cast<const char *>(
                             bytes + dir.names_off + rec.name_off),
                         rec.name_len);
        proc.repr.hash_view = reinterpret_cast<const std::uint64_t *>(
            bytes + rec.hash_off);
        proc.repr.hash_view_count = rec.hash_count;
        proc.repr.block_count = rec.block_count;
        proc.repr.stmt_count = rec.stmt_count;
        index.procs.push_back(std::move(proc));
    }
    index.posting_hashes_view =
        reinterpret_cast<const std::uint64_t *>(bytes + dir.ph_off);
    index.posting_offsets_view =
        reinterpret_cast<const std::uint32_t *>(bytes + dir.po_off);
    index.posting_procs_view =
        reinterpret_cast<const std::uint32_t *>(bytes + dir.pp_off);
    index.posting_count_view = static_cast<std::uint32_t>(dir.ph_count);
    index.posting_procs_count_view =
        static_cast<std::uint32_t>(dir.pp_count);
    rebuild_maps(index);
    index.search_ready = true;
    index.backing = std::move(backing);
    index.mapped_bytes = size;
    return index;
}

}  // namespace firmup::sim
