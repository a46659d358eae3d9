/**
 * @file
 * Baseline tests: GitZ-like ranking and global-context weighting;
 * BinDiff-like phases (name priority, unique shapes, call-graph
 * propagation, greedy shape matching) and its blindness to semantics.
 */
#include <gtest/gtest.h>

#include "baseline/bindiff_like.h"
#include "baseline/gitz_like.h"
#include "codegen/build.h"
#include "firmware/catalog.h"
#include "lifter/cfg.h"
#include "sim/persist.h"

namespace firmup::baseline {
namespace {

sim::ExecutableIndex
make_index(std::vector<std::vector<std::uint64_t>> strand_sets)
{
    std::vector<sim::ProcInput> inputs;
    std::uint64_t entry = 0x1000;
    for (auto &strands : strand_sets) {
        inputs.push_back({entry, "", strand::strand_set(strands)});
        entry += 0x100;
    }
    return sim::build_index("", isa::Arch::Mips32, inputs);
}

TEST(Gitz, RanksBySharedStrands)
{
    const auto Q = make_index({{1, 2, 3, 4}});
    const auto T = make_index({{1, 2}, {1, 2, 3}, {9}});
    const auto ranked = gitz_rank(Q, 0, T, nullptr);
    ASSERT_EQ(ranked.size(), 3u);
    EXPECT_EQ(ranked[0].target_index, 1);
    EXPECT_EQ(ranked[1].target_index, 0);
    EXPECT_EQ(ranked[2].target_index, 2);
    EXPECT_EQ(gitz_top1(Q, 0, T, nullptr), 1);
}

TEST(Gitz, GlobalContextDownweightsCommonStrands)
{
    // Strand 1 appears in every procedure (a prologue shape); strand 7
    // is rare. A candidate sharing only the rare strand must outrank a
    // candidate sharing two ubiquitous ones.
    const auto Q = make_index({{1, 2, 7}});
    const auto T = make_index({{1, 2}, {7, 9}});
    // Train a context where strands 1,2 are everywhere.
    sim::ExecutableIndex pool = make_index(
        {{1, 2}, {1, 2, 5}, {1, 2, 6}, {1, 2, 7}});
    const sim::GlobalContext context =
        sim::train_global_context({&pool});
    EXPECT_EQ(gitz_top1(Q, 0, T, nullptr), 0);       // raw: 2 > 1 shared
    EXPECT_EQ(gitz_top1(Q, 0, T, &context), 1);      // weighted: rare wins
}

TEST(Gitz, EmptyTarget)
{
    const auto Q = make_index({{1}});
    const sim::ExecutableIndex T;
    EXPECT_EQ(gitz_top1(Q, 0, T, nullptr), -1);
}

GraphIndex
make_graph(std::vector<GraphFeatures> procs)
{
    GraphIndex index;
    for (auto &f : procs) {
        index.by_entry[f.entry] = static_cast<int>(index.procs.size());
        index.procs.push_back(std::move(f));
    }
    return index;
}

GraphFeatures
feat(std::uint64_t entry, const char *name, int blocks, int edges,
     int calls, std::uint64_t shape, std::vector<std::uint64_t> callees = {})
{
    GraphFeatures f;
    f.entry = entry;
    f.name = name;
    f.blocks = blocks;
    f.edges = edges;
    f.calls = calls;
    f.insts = blocks * 6;
    f.shape_hash = shape;
    f.callees = std::move(callees);
    return f;
}

TEST(BinDiff, NameMatchingDominates)
{
    const auto Q = make_graph({feat(0x100, "foo", 3, 3, 0, 111)});
    const auto T = make_graph({feat(0x900, "bar", 3, 3, 0, 111),
                               feat(0xa00, "foo", 9, 12, 2, 222)});
    const auto matches = bindiff_match(Q, T);
    ASSERT_TRUE(matches.contains(0));
    // Despite the structural mismatch, the name wins.
    EXPECT_EQ(matches.at(0), 1);
}

TEST(BinDiff, UniqueShapeMatch)
{
    const auto Q = make_graph({feat(0x100, "", 5, 7, 1, 42),
                               feat(0x200, "", 3, 3, 0, 7)});
    const auto T = make_graph({feat(0x900, "", 3, 3, 0, 7),
                               feat(0xa00, "", 5, 7, 1, 42)});
    const auto matches = bindiff_match(Q, T);
    EXPECT_EQ(matches.at(0), 1);
    EXPECT_EQ(matches.at(1), 0);
}

TEST(BinDiff, CallGraphPropagation)
{
    // Parents match by unique shape; their k-th callees are ambiguous by
    // shape alone (identical twins) but propagate through call order.
    const auto Q = make_graph({
        feat(0x100, "", 9, 14, 2, 1000, {0x200, 0x300}),
        feat(0x200, "", 4, 4, 0, 77),
        feat(0x300, "", 4, 4, 0, 77),
    });
    const auto T = make_graph({
        feat(0x900, "", 9, 14, 2, 1000, {0xa00, 0xb00}),
        feat(0xa00, "", 4, 4, 0, 77),
        feat(0xb00, "", 4, 4, 0, 77),
    });
    const auto matches = bindiff_match(Q, T);
    EXPECT_EQ(matches.at(0), 0);
    EXPECT_EQ(matches.at(1), 1);
    EXPECT_EQ(matches.at(2), 2);
}

TEST(BinDiff, StructurallyBlindToSemantics)
{
    // Two procedures with identical CFGs but different code: BinDiff
    // cannot tell them apart — Fig. 7's failure mode. Build two source
    // procedures with identical statement *shapes* but different
    // constants/operators, compile, and check the baseline's features
    // collide.
    using lang::Expr;
    using lang::Stmt;
    lang::PackageSource pkg;
    pkg.name = "p";
    pkg.globals = {{"g0", 4}};
    for (int variant = 0; variant < 2; ++variant) {
        lang::ProcedureAst proc;
        proc.name = variant == 0 ? "real" : "impostor";
        proc.num_params = 1;
        proc.num_locals = 1;
        std::vector<lang::StmtPtr> then_body;
        then_body.push_back(Stmt::ret(Expr::constant(variant * 77)));
        proc.body.push_back(Stmt::if_stmt(
            Expr::bin(lang::BinOp::Lt, Expr::param(0),
                      Expr::constant(variant == 0 ? 31 : 1999)),
            std::move(then_body), {}));
        proc.body.push_back(Stmt::ret(Expr::bin(
            variant == 0 ? lang::BinOp::Add : lang::BinOp::Xor,
            Expr::param(0), Expr::constant(variant == 0 ? 1 : 555))));
        pkg.procedures.push_back(std::move(proc));
    }
    codegen::BuildRequest request;
    request.arch = isa::Arch::Arm32;
    request.profile = compiler::gcc_like_toolchain();
    const auto exe = codegen::build_executable(pkg, request);
    const auto lifted = lifter::lift_executable(exe).take();
    const GraphIndex graph = graph_index(lifted);
    ASSERT_EQ(graph.procs.size(), 2u);
    EXPECT_EQ(graph.procs[0].shape_hash, graph.procs[1].shape_hash);
    EXPECT_EQ(graph.procs[0].blocks, graph.procs[1].blocks);
}

TEST(BinDiff, PartialWhenNothingFits)
{
    const auto Q = make_graph({feat(0x100, "", 20, 30, 5, 1)});
    const auto T = make_graph({feat(0x900, "", 2, 1, 0, 2)});
    const auto matches = bindiff_match(Q, T);
    EXPECT_TRUE(matches.empty());
}

}  // namespace
}  // namespace firmup::baseline
