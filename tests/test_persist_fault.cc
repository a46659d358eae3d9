/**
 * @file
 * Hostile-input coverage for the FWIX v6 index container.
 *
 * The persistent index cache (sim::IndexCacheStore) feeds whatever bytes
 * it finds on disk into open_index_view — mapped, or read into a heap
 * buffer under --no-mmap — so a corrupt, truncated or stale cache entry
 * must always come back as a clean Result error — never a crash, and
 * never a silently wrong index. The harness runs a real index's blob
 * through the support/faultinject mutators across many seeds and
 * asserts exactly that over BOTH kinds of backing bytes: a mutant either
 * equals the original byte-for-byte (and opens to the same index) or
 * fails to open. The flat layout gets its own targeted sweeps:
 * checksum-repaired mutants that reach the directory and proc-record
 * field guards (arena bounds and alignment, padding strictness) and the
 * order guards (posting hashes and each procedure's hashes strictly
 * ascending), and an older-version entry that must invalidate itself
 * into a cache miss and be rewritten.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <string_view>

#include <unistd.h>

#include "codegen/build.h"
#include "eval/driver.h"
#include "firmware/catalog.h"
#include "lifter/cfg.h"
#include "sim/index_cache.h"
#include "sim/persist.h"
#include "sim/similarity.h"
#include "support/bytes.h"
#include "support/faultinject.h"
#include "support/hash.h"
#include "support/mmapfile.h"
#include "support/rng.h"

namespace firmup::sim {
namespace {

/** A real executable: libexif 0.6.19 built for MIPS. */
const loader::Executable &
real_exe()
{
    static const loader::Executable exe = [] {
        const auto &pkg = firmware::package_by_name("libexif");
        const auto source =
            firmware::generate_package_source(pkg, "0.6.19");
        codegen::BuildRequest request;
        request.arch = isa::Arch::Mips32;
        request.profile = compiler::gcc_like_toolchain();
        return codegen::build_executable(source, request);
    }();
    return exe;
}

/** Its lifted form (the source the index's strand sets came from). */
const lifter::LiftedExecutable &
real_lifted()
{
    static const lifter::LiftedExecutable lifted =
        lifter::lift_executable(real_exe()).take();
    return lifted;
}

/** Its index (the shape the cache store persists). */
const ExecutableIndex &
real_index()
{
    static const ExecutableIndex index = index_executable(real_lifted());
    return index;
}

/** A copy of the real index's blob, for mutation. */
ByteBuffer
real_blob()
{
    return {real_index().blob.begin(), real_index().blob.end()};
}

/** Search-relevant equality of two indexes. */
void
expect_same_index(const ExecutableIndex &a, const ExecutableIndex &b)
{
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.arch, b.arch);
    ASSERT_EQ(a.procs.size(), b.procs.size());
    for (std::size_t i = 0; i < a.procs.size(); ++i) {
        EXPECT_EQ(a.procs[i].entry, b.procs[i].entry);
        EXPECT_EQ(a.procs[i].name, b.procs[i].name);
        EXPECT_TRUE(
            std::ranges::equal(a.procs[i].strands, b.procs[i].strands));
    }
}

/** open_index_view over @p bytes in a heap buffer (the --no-mmap route). */
Result<ExecutableIndex>
open_heap(const ByteBuffer &bytes)
{
    auto buffer = std::make_shared<ByteBuffer>(bytes);
    return open_index_view(buffer->data(), buffer->size(), buffer);
}

/** open_index_view over @p bytes written to a file and mapped. */
Result<ExecutableIndex>
open_mapped(const ByteBuffer &bytes)
{
    const std::filesystem::path path =
        std::filesystem::path(testing::TempDir()) /
        ("firmup-persist-mapped-" + std::to_string(::getpid()) + ".fwix");
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
    }
    auto mapped = MappedFile::map(path.string());
    std::filesystem::remove(path);
    if (!mapped.ok()) {
        return Result<ExecutableIndex>::error_from(mapped);
    }
    auto file = std::make_shared<MappedFile>(std::move(mapped).take());
    return open_index_view(file->data(), file->size(), file);
}

TEST(PersistFault, EveryMutantFailsCleanlyOrIsTheOriginal)
{
    const ByteBuffer bytes = real_blob();
    fault::InjectOptions options;
    options.magic = {'F', 'W', 'I', 'X'};
    const fault::Mutation kinds[] = {
        fault::Mutation::Truncate,
        fault::Mutation::BitFlip,
        fault::Mutation::SpliceGarbage,
        fault::Mutation::DuplicateMagic,
    };
    int rejected = 0;
    for (const fault::Mutation kind : kinds) {
        for (std::uint64_t seed = 0; seed < 64; ++seed) {
            Rng rng(0xfa017 ^ (seed * 0x9e3779b97f4a7c15ull));
            const ByteBuffer mutant =
                fault::apply_mutation(bytes, kind, rng, options);
            auto heap = open_heap(mutant);
            auto mapped = open_mapped(mutant);
            if (mutant == bytes) {
                // Mutation was a no-op (e.g. truncate at full length,
                // a bit flipped twice): the blob is intact and must
                // still open — over both kinds of backing bytes.
                ASSERT_TRUE(heap.ok()) << heap.error_message();
                expect_same_index(heap.value(), real_index());
                ASSERT_TRUE(mapped.ok()) << mapped.error_message();
                expect_same_index(mapped.value(), real_index());
                continue;
            }
            // Any byte-level damage must be detected: the payload
            // checksum leaves no window for a silently wrong index.
            EXPECT_FALSE(heap.ok())
                << fault::mutation_name(kind) << " seed " << seed
                << " opened despite " << mutant.size() << " bytes vs "
                << bytes.size();
            EXPECT_FALSE(mapped.ok())
                << fault::mutation_name(kind) << " seed " << seed
                << " opened mapped despite byte damage";
            if (!heap.ok()) {
                ++rejected;
                EXPECT_FALSE(heap.error_message().empty());
            }
        }
    }
    // The sweep must have actually exercised the rejection paths.
    EXPECT_GT(rejected, 200);
}

TEST(PersistFault, MultiRoundMutantsNeverCrash)
{
    const ByteBuffer bytes = real_blob();
    fault::InjectOptions options;
    options.magic = {'F', 'W', 'I', 'X'};
    for (std::uint64_t seed = 0; seed < 256; ++seed) {
        Rng rng(0xcafe + seed);
        const ByteBuffer mutant = fault::mutate(bytes, rng, options);
        for (auto opened : {open_heap(mutant), open_mapped(mutant)}) {
            if (opened.ok()) {
                expect_same_index(opened.value(), real_index());
            }
        }
    }
}

TEST(PersistFault, StaleVersionGetsDistinctError)
{
    // A well-formed v1 header must be reported as stale format — the
    // invalidation signal the cache store turns into a miss — not as
    // generic corruption.
    ByteBuffer v1 = {'F', 'W', 'I', 'X'};
    append_u16_le(v1, 1);
    for (int i = 0; i < 64; ++i) {
        v1.push_back(0);
    }
    auto parsed = open_heap(v1);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error_code(), ErrorCode::StaleFormat);

    ByteBuffer future = {'F', 'W', 'I', 'X'};
    append_u16_le(future, 7);
    auto future_parsed = open_heap(future);
    ASSERT_FALSE(future_parsed.ok());
    EXPECT_EQ(future_parsed.error_code(), ErrorCode::StaleFormat);
}

TEST(PersistFault, LayoutHashMismatchIsStale)
{
    ByteBuffer bytes = real_blob();
    // Corrupt only the layout-hash field (bytes [6, 14)): same version,
    // different serialized layout — the "struct changed without a
    // version bump" guard.
    bytes[6] ^= 0xff;
    auto parsed = open_heap(bytes);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error_code(), ErrorCode::StaleFormat);
}

/**
 * Recompute and backpatch the payload checksum so a hand-crafted mutant
 * reaches the field-level parse guards instead of bouncing off the
 * header checksum. Header: magic(4) version(2) layout(8) checksum(8).
 */
void
rechecksum(ByteBuffer &bytes)
{
    constexpr std::size_t kHeaderSize = 22;
    ASSERT_GE(bytes.size(), kHeaderSize);
    const std::uint64_t checksum = content_hash64(std::string_view(
        reinterpret_cast<const char *>(bytes.data()) + kHeaderSize,
        bytes.size() - kHeaderSize));
    for (int i = 0; i < 8; ++i) {
        bytes[14 + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(checksum >> (8 * i));
    }
}

// ---- flat-layout navigation -------------------------------------------
//
// The directory is a fixed table of absolute offsets at byte 24
// (sim/persist.cc documents the field order). These helpers read just
// enough of it for the targeted mutants below to find their field.

std::uint64_t
blob_u64(const ByteBuffer &bytes, std::size_t at)
{
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) {
        v = (v << 8) | bytes[at + static_cast<std::size_t>(i)];
    }
    return v;
}

/** Byte offset of proc @p i's u32 padding field (record offset 36). */
std::size_t
proc_pad_offset(const ByteBuffer &bytes, std::size_t i)
{
    constexpr std::size_t kProcRecSize = 40;
    const auto table = static_cast<std::size_t>(blob_u64(bytes, 24 + 48));
    return table + i * kProcRecSize + 36;
}

TEST(PersistFault, NonZeroProcPaddingIsMalformedEvenWithValidChecksum)
{
    // A non-zero padding word with a freshly backpatched checksum
    // exercises the proc-record field guard itself, not the integrity
    // hash (forward-compat: a field this build does not understand
    // means the record cannot be trusted).
    ByteBuffer bytes = real_blob();
    const std::size_t pad = proc_pad_offset(bytes, 0);
    ASSERT_EQ(bytes[pad], 0u);
    bytes[pad] = 1;
    rechecksum(bytes);
    auto parsed = open_heap(bytes);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error_code(), ErrorCode::MalformedContainer);
    EXPECT_NE(parsed.error_message().find("padding"), std::string::npos);
}

/** Swap two u64 words of @p bytes at byte offsets @p a and @p b. */
void
swap_words(ByteBuffer &bytes, std::size_t a, std::size_t b)
{
    std::swap_ranges(bytes.begin() + static_cast<std::ptrdiff_t>(a),
                     bytes.begin() + static_cast<std::ptrdiff_t>(a + 8),
                     bytes.begin() + static_cast<std::ptrdiff_t>(b));
}

TEST(PersistFault, UnsortedPostingHashesAreRejected)
{
    // Re-checksummed: only the order guard stands between this blob and
    // a galloping search over an unsorted posting union.
    ByteBuffer bytes = real_blob();
    const auto ph = static_cast<std::size_t>(blob_u64(bytes, 24 + 72));
    ASSERT_GE(blob_u64(bytes, 24 + 80), 2u);
    swap_words(bytes, ph, ph + 8);
    rechecksum(bytes);
    auto opened = open_heap(bytes);
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.error_code(), ErrorCode::MalformedContainer);
    EXPECT_NE(opened.error_message().find("unsorted posting"),
              std::string::npos);
}

TEST(PersistFault, UnsortedProcedureHashesAreRejected)
{
    // The same for one procedure's strand set: a sorted-merge Sim over
    // it would silently undercount, so the open must refuse it.
    ByteBuffer bytes = real_blob();
    constexpr std::size_t kProcRecSize = 40;
    const auto table = static_cast<std::size_t>(blob_u64(bytes, 24 + 48));
    std::size_t proc = 0;
    while (read_u32_le(bytes.data() + table + proc * kProcRecSize + 16) <
           2) {
        ++proc;
    }
    const auto hashes = static_cast<std::size_t>(
        blob_u64(bytes, table + proc * kProcRecSize + 8));
    swap_words(bytes, hashes, hashes + 8);
    rechecksum(bytes);
    auto opened = open_heap(bytes);
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.error_code(), ErrorCode::MalformedContainer);
    EXPECT_NE(opened.error_message().find("unsorted procedure"),
              std::string::npos);
}

TEST(PersistFault, NotSearchReadyBlobIsRejected)
{
    // A cleared ready flag is what hand-built indexes without posting
    // lists used to write; no index can come from such a blob now.
    ByteBuffer bytes = real_blob();
    ASSERT_EQ(bytes[24 + 9], 1u);
    bytes[24 + 9] = 0;
    rechecksum(bytes);
    auto opened = open_heap(bytes);
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.error_code(), ErrorCode::MalformedContainer);
}

TEST(PersistFault, CorruptDirectoryOffsetsFailCleanly)
{
    // Re-stamped mutants that aim each directory arena offset out of
    // bounds (or off alignment) exercise the arena guards directly.
    // Slots cover: exe name, names, proc table, hashes and the three
    // posting arrays.
    const ByteBuffer bytes = real_blob();
    const std::size_t slots[] = {16, 32, 48, 56, 72, 88, 104};
    for (const std::size_t slot : slots) {
        std::vector<std::uint64_t> evils = {
            static_cast<std::uint64_t>(bytes.size()) + 8,
            ~std::uint64_t{0}};
        if (slot >= 48) {
            // Typed arenas are 4- or 8-aligned; +1 must be rejected.
            // (The two name arenas are byte-aligned: +1 merely shifts
            // the string, which the checksum re-stamp blesses.)
            evils.push_back(blob_u64(bytes, 24 + slot) + 1);
        }
        for (const std::uint64_t evil : evils) {
            ByteBuffer mutant = bytes;
            for (int i = 0; i < 8; ++i) {
                mutant[24 + slot + static_cast<std::size_t>(i)] =
                    static_cast<std::uint8_t>(evil >> (8 * i));
            }
            rechecksum(mutant);
            if (mutant == bytes) {
                continue;
            }
            EXPECT_FALSE(open_heap(mutant).ok())
                << "slot " << slot << " " << evil;
            EXPECT_FALSE(open_mapped(mutant).ok())
                << "slot " << slot << " " << evil;
        }
    }
}

TEST(PersistFault, ViewMatchesSource)
{
    // The index views exactly what it was built from: each procedure's
    // span is the strand set represent_procedure computes, and the
    // posting lists give every procedure's std::set Sim.
    const ExecutableIndex &index = real_index();
    strand::CanonOptions options;
    options.sections.text_lo = real_lifted().text_addr;
    options.sections.text_hi = real_lifted().text_end;
    options.sections.data_lo = real_lifted().data_addr;
    options.sections.data_hi = real_lifted().data_end;
    ASSERT_EQ(index.procs.size(), real_lifted().procs.size());
    std::size_t i = 0;
    for (const auto &[entry, proc] : real_lifted().procs) {
        EXPECT_EQ(index.procs[i].entry, entry);
        const strand::ProcedureStrands want =
            strand::represent_procedure(proc, options);
        EXPECT_TRUE(std::ranges::equal(index.procs[i].strands, want.hashes))
            << proc.name;
        EXPECT_EQ(index.procs[i].block_count, want.block_count);
        EXPECT_EQ(index.procs[i].stmt_count, want.stmt_count);
        ++i;
    }
    std::vector<std::set<std::uint64_t>> sets;
    for (const ProcEntry &proc : index.procs) {
        sets.emplace_back(proc.strands.begin(), proc.strands.end());
    }
    for (const std::set<std::uint64_t> &query : sets) {
        const std::vector<std::uint64_t> q(query.begin(), query.end());
        const auto got = shared_candidates(index, q);
        std::size_t c = 0;
        for (std::size_t t = 0; t < sets.size(); ++t) {
            int want = 0;
            for (const std::uint64_t h : query) {
                want += sets[t].contains(h) ? 1 : 0;
            }
            if (want == 0) {
                continue;
            }
            ASSERT_LT(c, got.size());
            EXPECT_EQ(got[c].index, static_cast<int>(t));
            EXPECT_EQ(got[c].sim, want);
            ++c;
        }
        EXPECT_EQ(c, got.size());
    }
}

TEST(PersistFault, V5EntryIsStaleRecountedAsMissAndRewritten)
{
    // A v5 blob (the layout with block summaries and sketch arena) must
    // invalidate itself: the version guard fires before any payload
    // interpretation, so the old 104-byte records are never misread as
    // v6 ones.
    ByteBuffer v5 = real_blob();
    v5[4] = 5;
    v5[5] = 0;
    auto parsed = open_heap(v5);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error_code(), ErrorCode::StaleFormat);
    EXPECT_NE(parsed.error_message().find("5"), std::string::npos);

    // Through the cache store the stale entry surfaces as a miss (clean
    // StaleFormat error), exactly like a missing file would.
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::path(testing::TempDir()) / "firmup-persist-v5";
    fs::remove_all(dir);
    IndexCacheStore store(dir.string());
    const std::uint64_t key = eval::content_key(real_exe());
    const auto plant_v5 = [&] {
        std::ofstream out(store.path_for(key),
                          std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(v5.data()),
                  static_cast<std::streamsize>(v5.size()));
    };
    ASSERT_TRUE(store.store(key, real_index()).ok());
    plant_v5();
    auto stale = store.load(key, true);
    ASSERT_FALSE(stale.ok());
    EXPECT_EQ(stale.error_code(), ErrorCode::StaleFormat);

    // And through a scanning driver: counted as a cache miss, re-indexed
    // from the executable, and written back in the current format.
    plant_v5();
    eval::SearchOptions options;
    options.index_cache_dir = dir.string();
    eval::Driver driver(options);
    const ExecutableIndex *index = driver.index_target(real_exe());
    ASSERT_NE(index, nullptr);
    expect_same_index(*index, real_index());
    EXPECT_EQ(driver.health().cache_hits, 0u);
    EXPECT_EQ(driver.health().cache_misses, 1u);
    EXPECT_GT(driver.health().cache_write_bytes, 0u);
    auto rewritten = store.load(key, false);
    ASSERT_TRUE(rewritten.ok()) << rewritten.error_message();
    expect_same_index(rewritten.value(), real_index());
    fs::remove_all(dir);
}

TEST(PersistFault, GarbageAndEmptyBuffersFailCleanly)
{
    EXPECT_FALSE(open_heap(ByteBuffer{}).ok());
    EXPECT_FALSE(open_mapped(ByteBuffer{}).ok());
    ByteBuffer garbage;
    Rng rng(0x6a5ba6e);
    for (int i = 0; i < 4096; ++i) {
        garbage.push_back(static_cast<std::uint8_t>(rng.index(256)));
    }
    EXPECT_FALSE(open_heap(garbage).ok());
    // Every prefix of a valid blob fails too (no over-read).
    const ByteBuffer bytes = real_blob();
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        EXPECT_FALSE(open_index_view(bytes.data(), len, nullptr).ok())
            << "prefix " << len;
    }
    // And so does a blob that does not start 8-byte aligned.
    ByteBuffer shifted(bytes.size() + 1);
    std::copy(bytes.begin(), bytes.end(), shifted.begin() + 1);
    EXPECT_FALSE(
        open_index_view(shifted.data() + 1, bytes.size(), nullptr).ok());
}

}  // namespace
}  // namespace firmup::sim
