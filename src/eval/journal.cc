#include "eval/journal.h"

#include <cstring>
#include <filesystem>
#include <string_view>
#include <utility>

#include "support/fsio.h"
#include "support/hash.h"
#include "support/trace.h"

namespace firmup::eval {

namespace {

namespace fs = std::filesystem;

constexpr std::uint8_t kMagic[4] = {'F', 'W', 'S', 'J'};
constexpr std::uint16_t kJournalVersion = 2;

/**
 * Header: magic(4) version(2) layout_hash(8) fingerprint(8) checksum(8).
 * The checksum covers the preceding 22 bytes, so a torn header write is
 * indistinguishable from garbage and rejected as a whole.
 */
constexpr std::size_t kHeaderSize = 4 + 2 + 8 + 8 + 8;
constexpr std::size_t kChecksummedHeaderBytes = 4 + 2 + 8 + 8;

/** Record frame: payload_len(4) payload_checksum(8). */
constexpr std::size_t kFrameSize = 4 + 8;

/**
 * Hard cap on one record's payload. Real records are tens of bytes; a
 * multi-megabyte declared length is corruption, and bounding it keeps a
 * flipped length byte from stalling the parser on a huge bogus read.
 */
constexpr std::uint32_t kMaxRecordBytes = 1u << 20;

/** Record payload kinds. */
constexpr std::uint8_t kKindOutcome = 1;
constexpr std::uint8_t kKindQuarantine = 2;

/** Outcome flag bits. */
constexpr std::uint8_t kFlagIndexed = 1u << 0;
constexpr std::uint8_t kFlagDetected = 1u << 1;
constexpr std::uint8_t kFlagUnresolved = 1u << 2;
constexpr std::uint8_t kFlagDeadlineExpired = 1u << 3;

trace::Counter c_appends("journal.appends");
trace::Counter c_commits("journal.commits");
trace::Counter c_append_bytes("journal.append_bytes");
trace::Counter c_truncated_bytes("journal.truncated_bytes");

std::uint64_t
checksum_of(const std::uint8_t *bytes, std::size_t size)
{
    return fnv1a64(
        std::string_view(reinterpret_cast<const char *>(bytes), size));
}

void
append_string16(ByteBuffer &out, const std::string &s)
{
    const std::size_t len = std::min<std::size_t>(s.size(), 0xffff);
    append_u16_le(out, static_cast<std::uint16_t>(len));
    out.insert(out.end(), s.begin(),
               s.begin() + static_cast<std::ptrdiff_t>(len));
}

bool
read_string16(const std::uint8_t *bytes, std::size_t size,
              std::size_t &pos, std::string &out)
{
    if (pos + 2 > size) {
        return false;
    }
    const std::uint16_t len = read_u16_le(bytes + pos);
    pos += 2;
    if (pos + len > size) {
        return false;
    }
    out.assign(reinterpret_cast<const char *>(bytes + pos), len);
    pos += len;
    return true;
}

std::uint64_t
double_bits(double v)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

double
bits_double(std::uint64_t bits)
{
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

/**
 * Decode one record payload; false = structurally invalid (ends the
 * valid prefix exactly like a checksum mismatch would).
 */
bool
decode_payload(const std::uint8_t *bytes, std::size_t size,
               JournalEntry &entry)
{
    std::size_t pos = 0;
    if (pos + 1 + 8 + 8 > size) {
        return false;
    }
    const std::uint8_t kind = bytes[pos++];
    entry.content_key = read_u64_le(bytes + pos);
    pos += 8;
    entry.query_fp = read_u64_le(bytes + pos);
    pos += 8;
    if (kind == kKindOutcome) {
        entry.quarantined = false;
        if (pos + 1 + 8 + 4 + 4 + 4 + 4 * 8 > size) {
            return false;
        }
        const std::uint8_t flags = bytes[pos++];
        if ((flags & ~(kFlagIndexed | kFlagDetected | kFlagUnresolved |
                       kFlagDeadlineExpired)) != 0) {
            return false;
        }
        entry.indexed = (flags & kFlagIndexed) != 0;
        entry.outcome.detected = (flags & kFlagDetected) != 0;
        entry.outcome.unresolved = (flags & kFlagUnresolved) != 0;
        entry.outcome.deadline_expired =
            (flags & kFlagDeadlineExpired) != 0;
        entry.outcome.matched_entry = read_u64_le(bytes + pos);
        pos += 8;
        entry.outcome.sim =
            static_cast<int>(read_u32_le(bytes + pos));
        entry.outcome.steps =
            static_cast<int>(read_u32_le(bytes + pos + 4));
        entry.outcome.retries =
            static_cast<int>(read_u32_le(bytes + pos + 8));
        pos += 12;
        entry.outcome.game_seconds = bits_double(read_u64_le(bytes + pos));
        entry.outcome.confirm_seconds =
            bits_double(read_u64_le(bytes + pos + 8));
        entry.outcome.game_cpu_seconds =
            bits_double(read_u64_le(bytes + pos + 16));
        entry.outcome.confirm_cpu_seconds =
            bits_double(read_u64_le(bytes + pos + 24));
        pos += 32;
        return pos == size;
    }
    if (kind == kKindQuarantine) {
        entry.quarantined = true;
        entry.indexed = false;
        if (entry.query_fp != 0) {
            return false;  // quarantines are query-independent
        }
        if (pos + 1 > size) {
            return false;
        }
        const std::uint8_t code = bytes[pos++];
        if (code >= kErrorCodeCount) {
            return false;
        }
        entry.code = static_cast<ErrorCode>(code);
        return read_string16(bytes, size, pos, entry.exe_name) &&
               read_string16(bytes, size, pos, entry.message) &&
               pos == size;
    }
    return false;
}

template <typename T = ScanJournal>
Result<T>
journal_io_error(const std::string &what, const std::string &path)
{
    return Result<T>::error(ErrorCode::IoError,
                            "journal: " + what + ": " + path);
}

}  // namespace

std::uint64_t
journal_layout_hash()
{
    // Descriptor of the v2 byte layout; bump the string whenever any
    // field changes width, order or meaning so old journals read as
    // stale instead of misparsing. v2 adds the per-record query
    // fingerprint (qfp) right after the content key in both kinds, so
    // batched hunts journal per (query, target) pair.
    static const std::uint64_t hash = fnv1a64(
        "fwsj-v2:hdr(magic4,ver-u16,layout-u64,fingerprint-u64,"
        "fnv1a64-hdr-u64);rec(len-u32,fnv1a64-payload-u64,payload);"
        "outcome(kind1,key-u64,qfp-u64,flags-u8,entry-u64,sim-u32,"
        "steps-u32,retries-u32,secs-4xf64bits);"
        "quarantine(kind2,key-u64,qfp-u64=0,code-u8,name-str16,"
        "msg-str16)");
    return hash;
}

ByteBuffer
ScanJournal::encode_header(std::uint64_t fingerprint)
{
    ByteBuffer out;
    for (std::uint8_t byte : kMagic) {
        out.push_back(byte);
    }
    append_u16_le(out, kJournalVersion);
    append_u64_le(out, journal_layout_hash());
    append_u64_le(out, fingerprint);
    append_u64_le(out, checksum_of(out.data(), out.size()));
    FIRMUP_ASSERT(out.size() == kHeaderSize, "journal header size");
    return out;
}

ByteBuffer
ScanJournal::encode_record(const JournalEntry &entry)
{
    ByteBuffer payload;
    if (entry.quarantined) {
        append_u8(payload, kKindQuarantine);
        append_u64_le(payload, entry.content_key);
        append_u64_le(payload, 0);  // quarantines bind to no query
        append_u8(payload, static_cast<std::uint8_t>(entry.code));
        append_string16(payload, entry.exe_name);
        append_string16(payload, entry.message);
    } else {
        append_u8(payload, kKindOutcome);
        append_u64_le(payload, entry.content_key);
        append_u64_le(payload, entry.query_fp);
        std::uint8_t flags = 0;
        flags |= entry.indexed ? kFlagIndexed : 0;
        flags |= entry.outcome.detected ? kFlagDetected : 0;
        flags |= entry.outcome.unresolved ? kFlagUnresolved : 0;
        flags |= entry.outcome.deadline_expired ? kFlagDeadlineExpired : 0;
        append_u8(payload, flags);
        append_u64_le(payload, entry.outcome.matched_entry);
        append_u32_le(payload,
                      static_cast<std::uint32_t>(entry.outcome.sim));
        append_u32_le(payload,
                      static_cast<std::uint32_t>(entry.outcome.steps));
        append_u32_le(payload,
                      static_cast<std::uint32_t>(entry.outcome.retries));
        append_u64_le(payload, double_bits(entry.outcome.game_seconds));
        append_u64_le(payload,
                      double_bits(entry.outcome.confirm_seconds));
        append_u64_le(payload,
                      double_bits(entry.outcome.game_cpu_seconds));
        append_u64_le(payload,
                      double_bits(entry.outcome.confirm_cpu_seconds));
    }
    ByteBuffer out;
    append_u32_le(out, static_cast<std::uint32_t>(payload.size()));
    append_u64_le(out, checksum_of(payload.data(), payload.size()));
    out.insert(out.end(), payload.begin(), payload.end());
    return out;
}

Result<JournalLoad>
ScanJournal::parse(const std::uint8_t *bytes, std::size_t size,
                   std::uint64_t expected_fingerprint)
{
    if (size < 6 || std::memcmp(bytes, kMagic, 4) != 0) {
        return Result<JournalLoad>::error(ErrorCode::MalformedContainer,
                                          "journal: bad magic");
    }
    const std::uint16_t version = read_u16_le(bytes + 4);
    if (version != kJournalVersion) {
        return Result<JournalLoad>::error(
            ErrorCode::StaleFormat,
            "journal: stale version " + std::to_string(version) +
                " (want " + std::to_string(kJournalVersion) + ")");
    }
    if (size < kHeaderSize) {
        return Result<JournalLoad>::error(ErrorCode::MalformedContainer,
                                          "journal: truncated header");
    }
    if (read_u64_le(bytes + 22) !=
        checksum_of(bytes, kChecksummedHeaderBytes)) {
        return Result<JournalLoad>::error(
            ErrorCode::MalformedContainer,
            "journal: header checksum mismatch");
    }
    if (read_u64_le(bytes + 6) != journal_layout_hash()) {
        return Result<JournalLoad>::error(ErrorCode::StaleFormat,
                                          "journal: stale layout hash");
    }
    JournalLoad load;
    load.fingerprint = read_u64_le(bytes + 14);
    if (expected_fingerprint != 0 &&
        load.fingerprint != expected_fingerprint) {
        return Result<JournalLoad>::error(ErrorCode::StaleFormat,
                                          kJournalFingerprintMismatch);
    }

    // Records: the valid prefix wins. Any framing, checksum or payload
    // defect — including a torn final record from a crash mid-append —
    // ends parsing; everything before it is intact by checksum.
    std::size_t pos = kHeaderSize;
    while (pos < size) {
        if (size - pos < kFrameSize) {
            break;  // torn frame
        }
        const std::uint32_t len = read_u32_le(bytes + pos);
        const std::uint64_t want = read_u64_le(bytes + pos + 4);
        if (len > kMaxRecordBytes || size - pos - kFrameSize < len) {
            break;  // corrupt length or torn payload
        }
        const std::uint8_t *payload = bytes + pos + kFrameSize;
        if (checksum_of(payload, len) != want) {
            break;  // payload corruption
        }
        JournalEntry entry;
        if (!decode_payload(payload, len, entry)) {
            break;  // checksum-clean but structurally invalid
        }
        load.entries.push_back(std::move(entry));
        pos += kFrameSize + len;
    }
    load.valid_bytes = pos;
    load.truncated_bytes = size - pos;
    return load;
}

Result<std::size_t>
ScanJournal::write_file(const std::string &path, std::uint64_t fingerprint,
                        std::span<const JournalEntry> entries)
{
    ByteBuffer bytes = encode_header(fingerprint);
    for (const JournalEntry &entry : entries) {
        const ByteBuffer record = encode_record(entry);
        bytes.insert(bytes.end(), record.begin(), record.end());
    }
    // tmp + one fsync + rename: a crash leaves the previous file (or
    // none) or the complete new one, never a half header or a torn
    // record that a resume would have to guess about.
    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr) {
        return journal_io_error<std::size_t>("cannot create", tmp);
    }
    const bool wrote =
        std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size() &&
        fsync_stream(f);
    std::fclose(f);
    if (!wrote) {
        std::remove(tmp.c_str());
        return journal_io_error<std::size_t>("cannot write", tmp);
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec) {
        std::remove(tmp.c_str());
        return journal_io_error<std::size_t>("cannot publish", path);
    }
    return bytes.size();
}

Result<ScanJournal>
ScanJournal::create(const std::string &path, std::uint64_t fingerprint)
{
    if (auto written = write_file(path, fingerprint, {}); !written.ok()) {
        return Result<ScanJournal>::error_from(written);
    }
    ScanJournal journal;
    journal.path_ = path;
    journal.file_.reset(std::fopen(path.c_str(), "ab"));
    if (journal.file_ == nullptr) {
        return journal_io_error("cannot reopen for append", path);
    }
    journal.mutex_ = std::make_unique<std::mutex>();
    return journal;
}

Result<ScanJournal>
ScanJournal::open_resume(const std::string &path,
                         std::uint64_t fingerprint, JournalLoad *load)
{
    std::error_code ec;
    if (!fs::exists(path, ec)) {
        // Nothing to resume from: --resume on a first run degrades to a
        // fresh journal instead of erroring, so scripts can pass the
        // flag unconditionally.
        if (load != nullptr) {
            *load = JournalLoad{};
            load->fingerprint = fingerprint;
        }
        return create(path, fingerprint);
    }

    const Result<ByteBuffer> bytes = read_file_bytes(path);
    if (!bytes.ok()) {
        return journal_io_error("cannot read", path);
    }
    Result<JournalLoad> parsed =
        parse(bytes.value().data(), bytes.value().size(), fingerprint);
    if (!parsed.ok()) {
        return Result<ScanJournal>::error_from(parsed);
    }
    JournalLoad result = std::move(parsed).take();
    if (result.truncated_bytes > 0) {
        // Drop the torn/corrupt tail on disk too, so our appends extend
        // the valid prefix instead of burying garbage mid-file.
        c_truncated_bytes.add(result.truncated_bytes);
        fs::resize_file(path, result.valid_bytes, ec);
        if (ec) {
            return journal_io_error("cannot truncate torn tail", path);
        }
    }

    ScanJournal journal;
    journal.path_ = path;
    journal.file_.reset(std::fopen(path.c_str(), "ab"));
    if (journal.file_ == nullptr) {
        return journal_io_error("cannot reopen for append", path);
    }
    journal.mutex_ = std::make_unique<std::mutex>();
    if (load != nullptr) {
        *load = std::move(result);
    }
    return journal;
}

bool
ScanJournal::append(std::span<const JournalEntry> entries)
{
    if (file_ == nullptr) {
        return false;
    }
    if (entries.empty()) {
        return true;
    }
    ByteBuffer group;
    for (const JournalEntry &entry : entries) {
        const ByteBuffer record = encode_record(entry);
        group.insert(group.end(), record.begin(), record.end());
    }
    std::lock_guard<std::mutex> lock(*mutex_);
    // One fwrite + one fsync per group: a kill -9 loses at most the
    // groups being written, and the parser keeps every whole record
    // before a tear. Whole files (a fresh journal, a shard seed, a
    // rebuilt state) go through write_file instead.
    const trace::TraceSpan span("journal_commit");
    const std::uint64_t wall_start = trace::wall_ns();
    const std::uint64_t cpu_start = trace::thread_cpu_ns();
    const bool wrote =
        std::fwrite(group.data(), 1, group.size(), file_.get()) ==
            group.size() &&
        fsync_stream(file_.get());
    commit_time_.seconds +=
        static_cast<double>(trace::wall_ns() - wall_start) * 1e-9;
    commit_time_.cpu_seconds +=
        static_cast<double>(trace::thread_cpu_ns() - cpu_start) * 1e-9;
    c_commits.add(1);
    if (!wrote) {
        return false;
    }
    appended_ += entries.size();
    c_appends.add(entries.size());
    c_append_bytes.add(group.size());
    return true;
}

std::size_t
ScanJournal::appended() const
{
    if (mutex_ == nullptr) {
        return 0;
    }
    std::lock_guard<std::mutex> lock(*mutex_);
    return appended_;
}

ScanJournal::CommitTime
ScanJournal::take_commit_time()
{
    if (mutex_ == nullptr) {
        return {};
    }
    std::lock_guard<std::mutex> lock(*mutex_);
    return std::exchange(commit_time_, {});
}

}  // namespace firmup::eval
