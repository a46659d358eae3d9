/**
 * @file
 * Hostile-input coverage for the FWIX v6 index container.
 *
 * The persistent index cache (sim::IndexCacheStore) feeds whatever bytes
 * it finds on disk into parse_index — and, on the mmap warm path, into
 * open_index_view — so a corrupt, truncated or stale cache entry must
 * always come back as a clean Result error — never a crash, and never a
 * silently wrong index. The harness runs a real serialized index through
 * the support/faultinject mutators across many seeds and asserts exactly
 * that for BOTH consumers: a mutant either equals the original
 * byte-for-byte (and parses to the same index) or fails to load.
 * The flat layout gets its own targeted sweeps: checksum-repaired
 * mutants that reach the directory and proc-record field guards (arena
 * bounds and alignment, padding strictness), and an older-version entry
 * that must invalidate itself into a cache miss and be rewritten.
 */
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string_view>

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

/** Its finalized index (the shape the cache store persists). */
const ExecutableIndex &
real_index()
{
    static const ExecutableIndex index = [] {
        ExecutableIndex built =
            index_executable(lifter::lift_executable(real_exe()).take());
        built.finalize();
        return built;
    }();
    return index;
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
        EXPECT_EQ(a.procs[i].repr.hashes, b.procs[i].repr.hashes);
    }
}

TEST(PersistFault, EveryMutantFailsCleanlyOrIsTheOriginal)
{
    const ByteBuffer bytes = serialize_index(real_index());
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
            auto parsed = parse_index(mutant);
            auto viewed = open_index_view(mutant.data(), mutant.size(),
                                          nullptr);
            if (mutant == bytes) {
                // Mutation was a no-op (e.g. truncate at full length,
                // a bit flipped twice): the blob is intact and must
                // still round-trip — through both consumers.
                ASSERT_TRUE(parsed.ok()) << parsed.error_message();
                expect_same_index(parsed.value(), real_index());
                if (open_view_supported()) {
                    ASSERT_TRUE(viewed.ok()) << viewed.error_message();
                }
                continue;
            }
            // Any byte-level damage must be detected: the payload
            // checksum leaves no window for a silently wrong index.
            EXPECT_FALSE(parsed.ok())
                << fault::mutation_name(kind) << " seed " << seed
                << " parsed despite " << mutant.size() << " bytes vs "
                << bytes.size();
            EXPECT_FALSE(viewed.ok())
                << fault::mutation_name(kind) << " seed " << seed
                << " opened as a view despite byte damage";
            if (!parsed.ok()) {
                ++rejected;
                EXPECT_FALSE(parsed.error_message().empty());
            }
        }
    }
    // The sweep must have actually exercised the rejection paths.
    EXPECT_GT(rejected, 200);
}

TEST(PersistFault, MultiRoundMutantsNeverCrash)
{
    const ByteBuffer bytes = serialize_index(real_index());
    fault::InjectOptions options;
    options.magic = {'F', 'W', 'I', 'X'};
    for (std::uint64_t seed = 0; seed < 256; ++seed) {
        Rng rng(0xcafe + seed);
        const ByteBuffer mutant = fault::mutate(bytes, rng, options);
        auto parsed = parse_index(mutant);
        if (parsed.ok()) {
            expect_same_index(parsed.value(), real_index());
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
    auto parsed = parse_index(v1);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error_code(), ErrorCode::StaleFormat);

    ByteBuffer future = {'F', 'W', 'I', 'X'};
    append_u16_le(future, 7);
    auto future_parsed = parse_index(future);
    ASSERT_FALSE(future_parsed.ok());
    EXPECT_EQ(future_parsed.error_code(), ErrorCode::StaleFormat);
}

TEST(PersistFault, LayoutHashMismatchIsStale)
{
    ByteBuffer bytes = serialize_index(real_index());
    // Corrupt only the layout-hash field (bytes [6, 14)): same version,
    // different serialized layout — the "struct changed without a
    // version bump" guard.
    bytes[6] ^= 0xff;
    auto parsed = parse_index(bytes);
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
    // hash — and must be rejected by both consumers (forward-compat: a
    // field this build does not understand means the record cannot be
    // trusted).
    ByteBuffer bytes = serialize_index(real_index());
    const std::size_t pad = proc_pad_offset(bytes, 0);
    ASSERT_EQ(bytes[pad], 0u);
    bytes[pad] = 1;
    rechecksum(bytes);
    auto parsed = parse_index(bytes);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error_code(), ErrorCode::MalformedContainer);
    EXPECT_NE(parsed.error_message().find("padding"), std::string::npos);
    auto viewed = open_index_view(bytes.data(), bytes.size(), nullptr);
    EXPECT_FALSE(viewed.ok());
}

TEST(PersistFault, CorruptDirectoryOffsetsFailCleanly)
{
    // Re-stamped mutants that aim each directory arena offset out of
    // bounds (or off alignment) exercise the arena guards directly.
    // Slots cover: exe name, names, proc table, hashes and the three
    // posting arrays.
    const ByteBuffer bytes = serialize_index(real_index());
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
            auto parsed = parse_index(mutant);
            EXPECT_FALSE(parsed.ok()) << "slot " << slot << " " << evil;
            auto viewed =
                open_index_view(mutant.data(), mutant.size(), nullptr);
            EXPECT_FALSE(viewed.ok()) << "slot " << slot << " " << evil;
        }
    }
}

TEST(PersistFault, ViewOpenMatchesCopyingParse)
{
    // The zero-copy consumer must agree with the copying parser on a
    // pristine blob: same procedures, same hashes, same candidates.
    if (!open_view_supported()) {
        GTEST_SKIP() << "big-endian host: view path disabled";
    }
    const ByteBuffer bytes = serialize_index(real_index());
    auto parsed = parse_index(bytes);
    ASSERT_TRUE(parsed.ok()) << parsed.error_message();
    auto viewed = open_index_view(bytes.data(), bytes.size(), nullptr);
    ASSERT_TRUE(viewed.ok()) << viewed.error_message();
    const ExecutableIndex &a = parsed.value();
    ExecutableIndex &b = viewed.value();
    EXPECT_TRUE(b.view_mode() || b.procs.empty());
    EXPECT_TRUE(b.search_ready);
    ASSERT_EQ(a.procs.size(), b.procs.size());
    for (std::size_t i = 0; i < a.procs.size(); ++i) {
        ASSERT_EQ(a.procs[i].repr.hash_count(),
                  b.procs[i].repr.hash_count());
        const std::uint64_t *ah = a.procs[i].repr.hash_data();
        const std::uint64_t *bh = b.procs[i].repr.hash_data();
        for (std::size_t h = 0; h < a.procs[i].repr.hash_count(); ++h) {
            ASSERT_EQ(ah[h], bh[h]) << "proc " << i << " hash " << h;
        }
    }
    for (const ProcEntry &query : real_index().procs) {
        const auto exact_a = shared_candidates(a, query.repr);
        const auto exact_b = shared_candidates(b, query.repr);
        ASSERT_EQ(exact_a.size(), exact_b.size());
        for (std::size_t c = 0; c < exact_a.size(); ++c) {
            EXPECT_EQ(exact_a[c].index, exact_b[c].index);
            EXPECT_EQ(exact_a[c].sim, exact_b[c].sim);
        }
    }
}

TEST(PersistFault, V5EntryIsStaleRecountedAsMissAndRewritten)
{
    // A v5 blob (the layout with block summaries and sketch arena) must
    // invalidate itself: the version guard fires before any payload
    // interpretation, so the old 104-byte records are never misread as
    // v6 ones.
    ByteBuffer v5 = serialize_index(real_index());
    v5[4] = 5;
    v5[5] = 0;
    auto parsed = parse_index(v5);
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
    auto stale = store.load(key);
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
    auto rewritten = store.load(key);
    ASSERT_TRUE(rewritten.ok()) << rewritten.error_message();
    expect_same_index(rewritten.value(), real_index());
    fs::remove_all(dir);
}

TEST(PersistFault, GarbageAndEmptyBuffersFailCleanly)
{
    EXPECT_FALSE(parse_index(ByteBuffer{}).ok());
    ByteBuffer garbage;
    Rng rng(0x6a5ba6e);
    for (int i = 0; i < 4096; ++i) {
        garbage.push_back(static_cast<std::uint8_t>(rng.index(256)));
    }
    EXPECT_FALSE(parse_index(garbage).ok());
    // Every prefix of a valid blob fails too (no over-read).
    const ByteBuffer bytes = serialize_index(real_index());
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        EXPECT_FALSE(parse_index(bytes.data(), len).ok())
            << "prefix " << len;
    }
}

}  // namespace
}  // namespace firmup::sim
