/**
 * @file
 * Similarity-module tests: Sim() set semantics (symmetry, bounds, counts
 * ignored), executable indexing, global-context training, and the FWIX
 * blob every index is a view of.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>

#include "codegen/build.h"
#include "firmware/catalog.h"
#include "lifter/cfg.h"
#include "sim/persist.h"
#include "sim/similarity.h"
#include "support/hash.h"

namespace firmup::sim {
namespace {

std::vector<std::uint64_t>
strands(std::initializer_list<std::uint64_t> hashes)
{
    return strand::strand_set(std::vector<std::uint64_t>(hashes)).hashes;
}

/** An index over @p sets, one procedure each, entries 0x1000 apart. */
ExecutableIndex
pool_index(const std::vector<std::vector<std::uint64_t>> &sets)
{
    std::vector<ProcInput> procs;
    for (const std::vector<std::uint64_t> &set : sets) {
        procs.push_back({0x1000 + 0x100 * procs.size(), "",
                         strand::strand_set(set)});
    }
    return build_index("pool", isa::Arch::Mips32, procs);
}

TEST(Sim, CountsSharedUniqueStrands)
{
    EXPECT_EQ(sim_score(strands({1, 2, 3}), strands({2, 3, 4})), 2);
    EXPECT_EQ(sim_score(strands({1}), strands({2})), 0);
    EXPECT_EQ(sim_score(strands({}), strands({1, 2})), 0);
}

TEST(Sim, Symmetric)
{
    const auto a = strands({1, 2, 3, 4, 5});
    const auto b = strands({4, 5, 6});
    EXPECT_EQ(sim_score(a, b), sim_score(b, a));
}

TEST(Sim, BoundedByTheSmallerSet)
{
    const auto a = strands({1, 2});
    const auto b = strands({1, 2, 3, 4, 5, 6, 7});
    EXPECT_LE(sim_score(a, b), 2);
    EXPECT_EQ(sim_score(a, a), static_cast<int>(a.size()));
}

TEST(GlobalContext, RareStrandsWeighMore)
{
    const ExecutableIndex pool =
        pool_index({{1, 2}, {1, 3}, {1, 4}, {1, 5}});
    const GlobalContext context = train_global_context({&pool});
    // Strand 1 appears in every procedure => near-zero weight; strand 5
    // appears once => high weight; unseen strands weigh most.
    EXPECT_LT(context.weight_of(1), context.weight_of(5));
    EXPECT_LE(context.weight_of(5), context.default_weight);
    EXPECT_GT(context.weight_of(1), 0.0);
}

TEST(GlobalContext, WeightedSimOrdersByEvidence)
{
    std::vector<std::vector<std::uint64_t>> sets;
    for (std::uint64_t i = 0; i < 10; ++i) {
        sets.push_back({7, 100 + i});
    }
    const ExecutableIndex pool = pool_index(sets);
    const GlobalContext context = train_global_context({&pool});
    const auto q = strands({7, 100, 101});
    // Sharing two rare strands beats sharing one rare + the common one.
    const double rare2 = weighted_sim(q, strands({100, 101}), context);
    const double common_plus_rare =
        weighted_sim(q, strands({7, 100}), context);
    EXPECT_GT(rare2, common_plus_rare);
}

TEST(GlobalContext, EmptySampleIsSafe)
{
    const GlobalContext context = train_global_context({});
    EXPECT_EQ(context.weight_of(42), context.default_weight);
}

TEST(Index, CoversAllLiftedProcedures)
{
    const auto &pkg = firmware::package_by_name("bftpd");
    const auto source = firmware::generate_package_source(pkg, "2.3");
    codegen::BuildRequest request;
    request.arch = isa::Arch::Ppc32;
    request.profile = compiler::gcc_like_toolchain();
    const auto exe = codegen::build_executable(source, request);
    const auto lifted = lifter::lift_executable(exe).take();
    const ExecutableIndex index = index_executable(lifted);
    EXPECT_EQ(index.procs.size(), lifted.procs.size());
    EXPECT_EQ(index.arch, isa::Arch::Ppc32);
    for (const ProcEntry &proc : index.procs) {
        EXPECT_FALSE(proc.strands.empty()) << proc.name;
        EXPECT_GT(proc.stmt_count, 0u) << proc.name;
        EXPECT_EQ(index.find_by_entry(proc.entry),
                  index.find_by_entry(proc.entry));
    }
    // Name lookup agrees with entry lookup.
    const int by_name = index.find_by_name("bftpdutmp_log");
    ASSERT_GE(by_name, 0);
    EXPECT_EQ(index.find_by_entry(
                  index.procs[static_cast<std::size_t>(by_name)].entry),
              by_name);
    EXPECT_EQ(index.find_by_name("no_such_proc"), -1);
    EXPECT_EQ(index.find_by_entry(0xdeadbeef), -1);
}

TEST(Index, DifferentProceduresShareFewStrands)
{
    const auto &pkg = firmware::package_by_name("dropbear");
    const auto source =
        firmware::generate_package_source(pkg, "2012.55");
    codegen::BuildRequest request;
    request.arch = isa::Arch::Arm32;
    request.profile = compiler::gcc_like_toolchain();
    const auto exe = codegen::build_executable(source, request);
    const ExecutableIndex index =
        index_executable(lifter::lift_executable(exe).take());
    // Self-similarity must dominate cross-similarity for most pairs.
    int dominated = 0, total = 0;
    for (std::size_t i = 0; i < index.procs.size(); ++i) {
        const int self = sim_score(index.procs[i].strands,
                                   index.procs[i].strands);
        for (std::size_t j = 0; j < index.procs.size(); ++j) {
            if (i == j) {
                continue;
            }
            ++total;
            dominated += sim_score(index.procs[i].strands,
                                   index.procs[j].strands) < self
                             ? 1
                             : 0;
        }
    }
    EXPECT_EQ(dominated, total);
}

}  // namespace
}  // namespace firmup::sim

namespace firmup::sim {
namespace {

TEST(Persist, RoundTrip)
{
    const auto &pkg = firmware::package_by_name("libexif");
    const auto source = firmware::generate_package_source(pkg, "0.6.19");
    codegen::BuildRequest request;
    request.arch = isa::Arch::Mips32;
    request.profile = compiler::gcc_like_toolchain();
    const auto exe = codegen::build_executable(source, request);
    const ExecutableIndex index =
        index_executable(lifter::lift_executable(exe).take());

    // A copy of the blob opens to the same index.
    auto copy =
        std::make_shared<ByteBuffer>(index.blob.begin(), index.blob.end());
    auto opened = open_index_view(copy->data(), copy->size(), copy);
    ASSERT_TRUE(opened.ok()) << opened.error_message();
    const ExecutableIndex &out = opened.value();
    EXPECT_EQ(out.name, index.name);
    EXPECT_EQ(out.arch, index.arch);
    ASSERT_EQ(out.procs.size(), index.procs.size());
    for (std::size_t i = 0; i < index.procs.size(); ++i) {
        EXPECT_EQ(out.procs[i].entry, index.procs[i].entry);
        EXPECT_EQ(out.procs[i].name, index.procs[i].name);
        EXPECT_TRUE(std::ranges::equal(out.procs[i].strands,
                                       index.procs[i].strands));
        EXPECT_EQ(out.procs[i].block_count, index.procs[i].block_count);
        EXPECT_EQ(out.procs[i].stmt_count, index.procs[i].stmt_count);
    }
    // Similarity computed from a reopened index is identical.
    for (std::size_t i = 0; i < index.procs.size(); ++i) {
        EXPECT_EQ(sim_score(out.procs[i].strands, index.procs[i].strands),
                  static_cast<int>(index.procs[i].strands.size()));
    }
}

TEST(Persist, RejectsCorruptInput)
{
    const ExecutableIndex index = pool_index({{1, 2, 3}});
    const ByteBuffer bytes(index.blob.begin(), index.blob.end());

    // Bad magic.
    ByteBuffer bad = bytes;
    bad[0] = 'Z';
    EXPECT_FALSE(open_index_view(bad.data(), bad.size(), nullptr).ok());
    // Every truncation point must fail cleanly.
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        EXPECT_FALSE(open_index_view(bytes.data(), len, nullptr).ok())
            << "prefix " << len;
    }
}

TEST(Persist, PackedBytesArePinned)
{
    // The exact bytes of a small index with an empty strand set, an
    // unnamed procedure, a repeated name and the largest hash value,
    // recorded from the serializer this packer replaced. Any change to
    // the layout, padding, byte order or posting construction moves
    // them, and stores written by earlier builds would stop loading.
    const ExecutableIndex index = build_index(
        "fwix-pin", isa::Arch::Arm32,
        {{0x1000, "alpha", {strand::strand_set({3, 1, 2}).hashes, 2, 7}},
         {0x1040, "", {{2, 5}, 1, 3}},
         {0x1080, "gamma", {{}, 0, 0}},
         {0x10c0, "alpha", {{5, ~std::uint64_t{0}}, 1, 1}}});
    EXPECT_EQ(index.blob.size(), 476u);
    EXPECT_EQ(fnv1a64(std::string_view(
                  reinterpret_cast<const char *>(index.blob.data()),
                  index.blob.size())),
              0xc3f3ca989379954full);
    EXPECT_EQ(index.find_by_name("alpha"), 0);
    EXPECT_EQ(index.find_by_name(""), 1);
    EXPECT_EQ(index.find_by_entry(0x10c0), 3);
    EXPECT_EQ(index.posting_hashes.size(), 5u);
}

}  // namespace
}  // namespace firmup::sim
