/**
 * @file
 * Tests for Alg. 1 slicing and strand canonicalization, including the
 * core cross-compilation property: the same source procedure, compiled
 * by two different toolchains (or to two different ISAs), shares many
 * canonical strands, while different procedures share few.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "codegen/build.h"
#include "lang/generate.h"
#include "lifter/cfg.h"
#include "sim/similarity.h"
#include "strand/canon.h"
#include "strand/slice.h"
#include "support/hash.h"
#include "support/rng.h"

namespace firmup {
namespace {

using ir::BinOp;
using ir::Operand;
using ir::Stmt;

// ---------------------------------------------------------------- slicing

ir::Block
example_block()
{
    // t0 = Get(r1); t1 = add t0, 4 ; Put(r2, t1)
    // t2 = Get(r3); Store(t2, t1)
    // t3 = Get(r4); Put(r5, t3)
    ir::Block block;
    block.stmts.push_back(Stmt::get(0, 1));
    block.stmts.push_back(Stmt::bin(1, BinOp::Add, Operand::temp(0),
                                    Operand::imm(4)));
    block.stmts.push_back(Stmt::put(2, Operand::temp(1)));
    block.stmts.push_back(Stmt::get(2, 3));
    block.stmts.push_back(Stmt::store(Operand::temp(2),
                                      Operand::temp(1)));
    block.stmts.push_back(Stmt::get(3, 4));
    block.stmts.push_back(Stmt::put(5, Operand::temp(3)));
    return block;
}

TEST(Slice, EveryStatementCoveredExactlyOnceAsTail)
{
    const ir::Block block = example_block();
    const auto strands = strand::decompose_block(block);
    // Tails are distinct statements, and the total tail count equals the
    // strand count (Alg. 1 invariant: indexes shrink by >= 1 per round).
    std::size_t covered = 0;
    for (const auto &s : strands) {
        EXPECT_FALSE(s.empty());
        covered += 1;
    }
    EXPECT_EQ(covered, strands.size());
    // All statements appear in at least one strand.
    std::size_t total_appearances = 0;
    for (const auto &s : strands) {
        total_appearances += s.size();
    }
    EXPECT_GE(total_appearances, block.stmts.size());
}

TEST(Slice, BackwardDependenciesIncluded)
{
    const ir::Block block = example_block();
    const auto strands = strand::decompose_block(block);
    // The Store strand must include the computation of both operands.
    bool found_store = false;
    for (const auto &s : strands) {
        if (s.back().kind == Stmt::Kind::Store) {
            found_store = true;
            // Needs: Get(r3) and the t1 chain (Get(r1), add).
            EXPECT_GE(s.size(), 4u);
        }
    }
    EXPECT_TRUE(found_store);
}

TEST(Slice, RegisterRedefinitionStopsAtNearestDef)
{
    // Put(r1, 1); Put(r1, 2); t0 = Get(r1); Put(r2, t0)
    ir::Block block;
    block.stmts.push_back(Stmt::put(1, Operand::imm(1)));
    block.stmts.push_back(Stmt::put(1, Operand::imm(2)));
    block.stmts.push_back(Stmt::get(0, 1));
    block.stmts.push_back(Stmt::put(2, Operand::temp(0)));
    const auto strands = strand::decompose_block(block);
    // The strand rooted at Put(r2) must include Put(r1, 2) but NOT
    // Put(r1, 1).
    for (const auto &s : strands) {
        if (s.back().kind == Stmt::Kind::Put && s.back().reg == 2) {
            ASSERT_EQ(s.size(), 3u);
            EXPECT_EQ(s[0].kind, Stmt::Kind::Put);
            EXPECT_EQ(s[0].a.as_const(), 2u);
        }
    }
}

TEST(Slice, EmptyBlock)
{
    ir::Block block;
    EXPECT_TRUE(strand::decompose_block(block).empty());
}

// ---------------------------------------------------- canonicalization

strand::Strand
single(std::vector<Stmt> stmts)
{
    return stmts;
}

TEST(Canon, ConstantFolding)
{
    // t0 = 2 + 3; Put(r1, t0)  ->  ret 0x5
    strand::CanonOptions options;
    const auto s = single({
        Stmt::bin(0, BinOp::Add, Operand::imm(2), Operand::imm(3)),
        Stmt::put(1, Operand::temp(0)),
    });
    EXPECT_EQ(strand::canonical_strand(s, options), "ret 0x5");
}

TEST(Canon, RegisterFoldingNormalizesNames)
{
    strand::CanonOptions options;
    // Put(r9, add(Get(r17), 1)) and Put(r3, add(Get(r4), 1)) canonicalize
    // identically: register identity is folded away.
    const auto make = [](ir::RegId dst, ir::RegId src) {
        return single({
            Stmt::get(0, src),
            Stmt::bin(1, BinOp::Add, Operand::temp(0), Operand::imm(1)),
            Stmt::put(dst, Operand::temp(1)),
        });
    };
    EXPECT_EQ(strand::canonical_strand(make(9, 17), options),
              strand::canonical_strand(make(3, 4), options));
    EXPECT_EQ(strand::canonical_strand(make(9, 17), options),
              "ret add(reg0, 0x1)");
}

TEST(Canon, OffsetElimination)
{
    strand::CanonOptions options;
    options.sections.data_lo = 0x10000000;
    options.sections.data_hi = 0x10001000;
    const auto s = single({
        Stmt::load(0, Operand::imm(0x10000010)),
        Stmt::put(1, Operand::temp(0)),
    });
    EXPECT_EQ(strand::canonical_strand(s, options), "ret load(off0)");

    options.eliminate_offsets = false;
    EXPECT_EQ(strand::canonical_strand(s, options),
              "ret load(0x10000010)");
}

TEST(Canon, StackOffsetsKept)
{
    // Small constants (stack/struct offsets) survive — paper keeps them.
    strand::CanonOptions options;
    options.sections.data_lo = 0x10000000;
    options.sections.data_hi = 0x10001000;
    const auto s = single({
        Stmt::get(0, 29),
        Stmt::bin(1, BinOp::Add, Operand::temp(0), Operand::imm(16)),
        Stmt::load(2, Operand::temp(1)),
        Stmt::put(2, Operand::temp(2)),
    });
    EXPECT_EQ(strand::canonical_strand(s, options),
              "ret load(add(reg0, 0x10))");
}

TEST(Canon, CompareIdiomsConverge)
{
    strand::CanonOptions options;
    // MIPS "seq" idiom: xor t, a, b ; sltiu r, t, 1
    const auto mips_like = single({
        Stmt::get(0, 1),
        Stmt::get(1, 2),
        Stmt::bin(2, BinOp::Xor, Operand::temp(0), Operand::temp(1)),
        Stmt::bin(3, BinOp::CmpLTU, Operand::temp(2), Operand::imm(1)),
        Stmt::put(3, Operand::temp(3)),
    });
    // Flag-based idiom: CC_DEP1 = a; CC_DEP2 = b; r = (dep1 == dep2)
    const auto flag_like = single({
        Stmt::get(0, 1),
        Stmt::put(64, Operand::temp(0)),
        Stmt::get(1, 2),
        Stmt::put(65, Operand::temp(1)),
        Stmt::get(2, 64),
        Stmt::get(3, 65),
        Stmt::bin(4, BinOp::CmpEQ, Operand::temp(2), Operand::temp(3)),
        Stmt::put(3, Operand::temp(4)),
    });
    EXPECT_EQ(strand::canonical_strand(mips_like, options),
              strand::canonical_strand(flag_like, options));
}

TEST(Canon, NegatedCompareIdiom)
{
    strand::CanonOptions options;
    // slt t, a, b ; xori r, t, 1   ==   a >= b  ==  b <= a
    const auto negated = single({
        Stmt::get(0, 1),
        Stmt::get(1, 2),
        Stmt::bin(2, BinOp::CmpLTS, Operand::temp(0), Operand::temp(1)),
        Stmt::bin(3, BinOp::Xor, Operand::temp(2), Operand::imm(1)),
        Stmt::put(3, Operand::temp(3)),
    });
    const auto direct = single({
        Stmt::get(0, 2),
        Stmt::get(1, 1),
        Stmt::bin(2, BinOp::CmpLES, Operand::temp(0), Operand::temp(1)),
        Stmt::put(3, Operand::temp(2)),
    });
    EXPECT_EQ(strand::canonical_strand(negated, options),
              strand::canonical_strand(direct, options));
}

TEST(Canon, CommutativeOperandOrderIrrelevant)
{
    strand::CanonOptions options;
    const auto make = [](bool swapped) {
        const Operand a = Operand::temp(0);
        const Operand b = Operand::temp(1);
        return single({
            Stmt::get(0, 1),
            Stmt::load(1, Operand::temp(0)),
            Stmt::bin(2, BinOp::Add, swapped ? b : a, swapped ? a : b),
            Stmt::put(3, Operand::temp(2)),
        });
    };
    EXPECT_EQ(strand::canonical_strand(make(false), options),
              strand::canonical_strand(make(true), options));
}

TEST(Canon, CopyChainsDissolve)
{
    strand::CanonOptions options;
    // Put(r1, x); Get(r1) -> y; Put(r2, y)  ==  Put(r2, x)
    const auto chained = single({
        Stmt::get(0, 7),
        Stmt::put(1, Operand::temp(0)),
        Stmt::get(1, 1),
        Stmt::put(2, Operand::temp(1)),
    });
    const auto direct = single({
        Stmt::get(0, 7),
        Stmt::put(2, Operand::temp(0)),
    });
    EXPECT_EQ(strand::canonical_strand(chained, options),
              strand::canonical_strand(direct, options));
}

TEST(Canon, OptimizeOffPreservesSyntax)
{
    strand::CanonOptions options;
    options.optimize = false;
    const auto s = single({
        Stmt::bin(0, BinOp::Add, Operand::imm(2), Operand::imm(3)),
        Stmt::put(1, Operand::temp(0)),
    });
    // Without optimization the addition is not folded.
    EXPECT_EQ(strand::canonical_strand(s, options), "ret add(0x2, 0x3)");
}

TEST(Canon, HashMatchesString)
{
    strand::CanonOptions options;
    const auto s = single({
        Stmt::get(0, 1),
        Stmt::put(2, Operand::temp(0)),
    });
    EXPECT_EQ(strand::strand_hash(s, options),
              fnv1a64(strand::canonical_strand(s, options)));
}

// -------------------------------------------- cross-compilation property

lang::PackageSource
make_package(std::uint64_t seed, int procs = 8)
{
    lang::PackageSource pkg;
    pkg.name = "pkg";
    pkg.version = "1.0";
    pkg.globals = {{"g0", 8}, {"g1", 4}, {"g2", 16}, {"g3", 2}};
    Rng rng(seed);
    std::vector<lang::Callee> callable;
    for (int i = 0; i < procs; ++i) {
        lang::GenOptions options;
        options.num_params = static_cast<int>(rng.range(0, 3));
        options.num_globals = 4;
        options.callable = callable;
        Rng body = rng.fork("proc" + std::to_string(i));
        auto proc = lang::generate_procedure(
            body, "proc_" + std::to_string(i), options);
        callable.push_back({proc.name, proc.num_params});
        pkg.procedures.push_back(std::move(proc));
    }
    return pkg;
}

sim::ExecutableIndex
build_index(const lang::PackageSource &pkg, isa::Arch arch,
            const compiler::ToolchainProfile &profile)
{
    codegen::BuildRequest request;
    request.arch = arch;
    request.profile = profile;
    const auto exe = codegen::build_executable(pkg, request);
    auto lifted = lifter::lift_executable(exe);
    EXPECT_TRUE(lifted.ok());
    return sim::index_executable(lifted.value());
}

TEST(CrossCompilation, SameToolchainIsSelfSimilar)
{
    const auto pkg = make_package(100);
    const auto a = build_index(pkg, isa::Arch::Mips32,
                               compiler::gcc_like_toolchain());
    // Identical builds: every procedure's best match is itself, with
    // full strand overlap.
    for (const auto &proc : a.procs) {
        const int self = sim::sim_score(proc.strands, proc.strands);
        EXPECT_EQ(self, static_cast<int>(proc.strands.size()));
    }
}

/** Rank of the true positive under plain Sim, for diagnostics. */
int
rank_of_true_match(const sim::ExecutableIndex &query, int q_index,
                   const sim::ExecutableIndex &target,
                   std::uint64_t true_entry)
{
    const int s_true =
        sim::sim_score(query.procs[static_cast<std::size_t>(
                           q_index)].strands,
                       target.procs[static_cast<std::size_t>(
                           target.find_by_entry(true_entry))].strands);
    int rank = 1;
    for (const auto &t : target.procs) {
        if (t.entry != true_entry &&
            sim::sim_score(query.procs[static_cast<std::size_t>(
                               q_index)].strands,
                           t.strands) > s_true) {
            ++rank;
        }
    }
    return rank;
}

TEST(CrossCompilation, CrossToolchainSameArchMostlyTop1)
{
    const auto pkg = make_package(101);
    const auto query = build_index(pkg, isa::Arch::Mips32,
                                   compiler::gcc_like_toolchain());
    int top1 = 0, total = 0;
    for (const auto &profile : compiler::vendor_toolchains()) {
        const auto target = build_index(pkg, isa::Arch::Mips32, profile);
        for (std::size_t i = 0; i < query.procs.size(); ++i) {
            const int t_index =
                target.find_by_name(query.procs[i].name);
            ASSERT_GE(t_index, 0);
            ++total;
            top1 += rank_of_true_match(
                        query, static_cast<int>(i), target,
                        target.procs[static_cast<std::size_t>(
                            t_index)].entry) == 1
                        ? 1
                        : 0;
        }
    }
    // Plain top-1 should already be decent within one ISA (the game
    // improves on the residue).
    EXPECT_GE(static_cast<double>(top1) / total, 0.7)
        << top1 << "/" << total;
}

TEST(CrossCompilation, CrossArchSharesStrands)
{
    const auto pkg = make_package(102);
    const auto query = build_index(pkg, isa::Arch::Mips32,
                                   compiler::gcc_like_toolchain());
    for (isa::Arch arch :
         {isa::Arch::Arm32, isa::Arch::Ppc32, isa::Arch::X86}) {
        const auto target =
            build_index(pkg, arch, compiler::gcc_like_toolchain());
        int nonzero = 0;
        for (std::size_t i = 0; i < query.procs.size(); ++i) {
            const int t_index = target.find_by_name(query.procs[i].name);
            ASSERT_GE(t_index, 0);
            nonzero +=
                sim::sim_score(query.procs[i].strands,
                               target.procs[static_cast<std::size_t>(
                                   t_index)].strands) > 0
                    ? 1
                    : 0;
        }
        // Cross-ISA canonicalization must find common strands for most
        // procedures.
        EXPECT_GE(nonzero, static_cast<int>(query.procs.size()) - 2)
            << isa::arch_name(arch);
    }
}

}  // namespace
}  // namespace firmup
