/**
 * @file
 * Unit tests for the compiler substrate: AST lowering, optimization
 * passes, CFG reshaping (merge/rotate), inlining and toolchain profiles.
 */
#include <gtest/gtest.h>

#include <set>

#include "compiler/liveness.h"
#include "compiler/lower.h"
#include "compiler/passes.h"
#include "compiler/toolchain.h"
#include "lang/generate.h"
#include "support/rng.h"

namespace firmup::compiler {
namespace {

using lang::Expr;
using lang::Stmt;

lang::PackageSource
simple_package()
{
    lang::PackageSource pkg;
    pkg.name = "p";
    pkg.globals = {{"g0", 4}};
    lang::ProcedureAst proc;
    proc.name = "f";
    proc.num_params = 1;
    proc.num_locals = 1;
    // v0 = p0 * 8; if (v0 < 10) return 1; return v0;
    proc.body.push_back(Stmt::assign_local(
        0, Expr::bin(lang::BinOp::Mul, Expr::param(0),
                     Expr::constant(8))));
    std::vector<lang::StmtPtr> then_body;
    then_body.push_back(Stmt::ret(Expr::constant(1)));
    proc.body.push_back(Stmt::if_stmt(
        Expr::bin(lang::BinOp::Lt, Expr::local(0), Expr::constant(10)),
        std::move(then_body), {}));
    proc.body.push_back(Stmt::ret(Expr::local(0)));
    pkg.procedures.push_back(std::move(proc));
    return pkg;
}

TEST(Lowering, ProducesEntryBlockAndTerminators)
{
    const MModule module = lower_package(simple_package());
    ASSERT_EQ(module.procs.size(), 1u);
    const MProc &proc = module.procs[0];
    EXPECT_EQ(proc.blocks[0].id, 0);
    for (const MBlock &block : proc.blocks) {
        // Every block has a well-formed terminator target.
        switch (block.term.kind) {
          case MTerm::Kind::Jump:
            EXPECT_NE(proc.block_by_id(block.term.target), nullptr);
            break;
          case MTerm::Kind::Branch:
            EXPECT_NE(proc.block_by_id(block.term.target), nullptr);
            EXPECT_NE(proc.block_by_id(block.term.fallthrough), nullptr);
            break;
          case MTerm::Kind::Ret:
            break;
        }
    }
}

TEST(Lowering, GtBecomesSwappedLt)
{
    lang::PackageSource pkg;
    pkg.name = "p";
    lang::ProcedureAst proc;
    proc.name = "f";
    proc.num_params = 2;
    proc.body.push_back(lang::Stmt::ret(Expr::bin(
        lang::BinOp::Gt, Expr::param(0), Expr::param(1))));
    pkg.procedures.push_back(std::move(proc));
    const MModule module = lower_package(pkg);
    bool found = false;
    for (const MInst &inst : module.procs[0].blocks[0].insts) {
        if (inst.kind == MInst::Kind::Bin && mop_is_compare(inst.op)) {
            EXPECT_EQ(inst.op, MOp::CmpLTS);
            // p0 > p1 => p1 < p0: operands swapped.
            EXPECT_EQ(inst.a, 1u);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(Lowering, MissingCalleeDropsCall)
{
    lang::PackageSource pkg;
    pkg.name = "p";
    lang::ProcedureAst opt;
    opt.name = "optional";
    opt.feature = "extra";
    opt.body.push_back(Stmt::ret(Expr::constant(1)));
    lang::ProcedureAst caller;
    caller.name = "caller";
    caller.body.push_back(
        Stmt::ret(Expr::call("optional", {})));
    pkg.procedures.push_back(std::move(opt));
    pkg.procedures.push_back(std::move(caller));

    const MModule without = lower_package(pkg, {});
    ASSERT_EQ(without.procs.size(), 1u);
    for (const MBlock &block : without.procs[0].blocks) {
        for (const MInst &inst : block.insts) {
            EXPECT_NE(inst.kind, MInst::Kind::Call);
        }
    }
    const MModule with = lower_package(pkg, {"extra"});
    EXPECT_EQ(with.procs.size(), 2u);
}

TEST(Passes, ConstantFoldingFoldsChains)
{
    MProc proc;
    proc.name = "f";
    proc.next_vreg = 3;
    MBlock block;
    block.id = 0;
    block.insts.push_back(MInst::make_const(0, 6));
    block.insts.push_back(MInst::make_const(1, 7));
    block.insts.push_back(
        MInst::bin(2, MOp::Mul, 0, MVal::vreg(1)));
    block.term = MTerm::ret(2);
    proc.blocks.push_back(std::move(block));

    fold_constants(proc, true);
    const MInst &last = proc.blocks[0].insts.back();
    EXPECT_EQ(last.kind, MInst::Kind::Const);
    EXPECT_EQ(last.imm, 42);
}

TEST(Passes, StrengthReduction)
{
    MProc proc;
    proc.next_vreg = 2;
    MBlock block;
    block.id = 0;
    block.insts.push_back(
        MInst::bin(1, MOp::Mul, 0, MVal::immediate(16)));
    block.term = MTerm::ret(1);
    proc.blocks.push_back(std::move(block));
    fold_constants(proc, true);
    EXPECT_EQ(proc.blocks[0].insts[0].op, MOp::Shl);
    EXPECT_EQ(proc.blocks[0].insts[0].b.imm, 4);
}

TEST(Passes, DeadCodeEliminationKeepsSideEffects)
{
    MProc proc;
    proc.next_vreg = 5;
    MBlock block;
    block.id = 0;
    block.insts.push_back(MInst::make_const(1, 1));  // dead
    block.insts.push_back(MInst::make_const(2, 2));  // feeds store addr
    block.insts.push_back(MInst::make_const(3, 3));  // feeds store value
    block.insts.push_back(MInst::store(2, 3));       // side effect
    block.insts.push_back(MInst::make_const(4, 4));  // return value
    block.term = MTerm::ret(4);
    proc.blocks.push_back(std::move(block));
    eliminate_dead_code(proc);
    EXPECT_EQ(proc.blocks[0].insts.size(), 4u);  // only vreg 1 dropped
}

TEST(Passes, LivenessCrossesWordsLoopsAndIgnoresOutOfRangeVregs)
{
    // Block 20 loops on itself; vreg 65 lives in the second word; vreg
    // 99 is past next_vreg and never live; id 99 names no block.
    MProc proc;
    proc.next_vreg = 70;
    MBlock entry;
    entry.id = 10;
    entry.insts.push_back(MInst::make_const(65, 1));
    entry.insts.push_back(MInst::copy(1, 0));
    entry.term = MTerm::jump(20);
    MBlock loop;
    loop.id = 20;
    loop.insts.push_back(MInst::bin(2, MOp::Add, 1, MVal::vreg(65)));
    loop.insts.push_back(MInst::copy(1, 2));
    loop.insts.push_back(MInst::store(99, 1));
    loop.term = MTerm::branch(2, 20, 30);
    MBlock exit;
    exit.id = 30;
    exit.term = MTerm::ret(1);
    MBlock stray;
    stray.id = 40;
    stray.term = MTerm::jump(99);
    for (MBlock *block : {&entry, &loop, &exit, &stray}) {
        proc.blocks.push_back(std::move(*block));
    }

    const Liveness liveness(proc);
    auto members = [](const VRegSet &set) {
        std::vector<VReg> out;
        set.for_each([&out](VReg v) { out.push_back(v); });
        return out;
    };
    EXPECT_EQ(members(liveness.live_in(0)), std::vector<VReg>{0});
    EXPECT_EQ(members(liveness.live_in(1)), (std::vector<VReg>{1, 65}));
    EXPECT_EQ(members(liveness.live_in(2)), std::vector<VReg>{1});
    EXPECT_TRUE(members(liveness.live_in(3)).empty());
    VRegSet out(proc.next_vreg);
    liveness.live_out(1, out);
    EXPECT_EQ(members(out), (std::vector<VReg>{1, 2, 65}));
    EXPECT_FALSE(out.contains(99));
}

TEST(Passes, CseReusesPureExpressions)
{
    MProc proc;
    proc.next_vreg = 4;
    MBlock block;
    block.id = 0;
    block.insts.push_back(MInst::bin(1, MOp::Add, 0, MVal::immediate(4)));
    block.insts.push_back(MInst::bin(2, MOp::Add, 0, MVal::immediate(4)));
    block.insts.push_back(MInst::bin(3, MOp::Add, 1, MVal::vreg(2)));
    block.term = MTerm::ret(3);
    proc.blocks.push_back(std::move(block));
    eliminate_common_subexpressions(proc);
    EXPECT_EQ(proc.blocks[0].insts[1].kind, MInst::Kind::Copy);
}

TEST(Passes, CseRespectsStoreBarriers)
{
    MProc proc;
    proc.next_vreg = 5;
    MBlock block;
    block.id = 0;
    block.insts.push_back(MInst::load(1, 0));
    block.insts.push_back(MInst::store(0, 1));
    block.insts.push_back(MInst::load(2, 0));  // must NOT be CSE'd
    block.term = MTerm::ret(2);
    proc.blocks.push_back(std::move(block));
    eliminate_common_subexpressions(proc);
    EXPECT_EQ(proc.blocks[0].insts[2].kind, MInst::Kind::Load);
}

TEST(Passes, BranchSimplification)
{
    MProc proc;
    proc.next_vreg = 2;
    MBlock b0;
    b0.id = 0;
    b0.insts.push_back(MInst::make_const(0, 1));
    b0.term = MTerm::branch(0, 1, 2);
    MBlock b1;
    b1.id = 1;
    b1.term = MTerm::ret(0);
    MBlock b2;
    b2.id = 2;
    b2.term = MTerm::ret(0);
    proc.blocks = {std::move(b0), std::move(b1), std::move(b2)};
    simplify_branches(proc);
    EXPECT_EQ(proc.blocks[0].term.kind, MTerm::Kind::Jump);
    EXPECT_EQ(proc.blocks[0].term.target, 1);
    remove_unreachable_blocks(proc);
    EXPECT_EQ(proc.blocks.size(), 2u);
}

TEST(Passes, MergeBlocksFusesChains)
{
    MProc proc;
    proc.next_vreg = 2;
    MBlock b0;
    b0.id = 0;
    b0.insts.push_back(MInst::make_const(0, 1));
    b0.term = MTerm::jump(1);
    MBlock b1;  // empty forwarder
    b1.id = 1;
    b1.term = MTerm::jump(2);
    MBlock b2;
    b2.id = 2;
    b2.insts.push_back(MInst::make_const(1, 2));
    b2.term = MTerm::ret(1);
    proc.blocks = {std::move(b0), std::move(b1), std::move(b2)};
    merge_blocks(proc);
    ASSERT_EQ(proc.blocks.size(), 1u);
    EXPECT_EQ(proc.blocks[0].insts.size(), 2u);
    EXPECT_EQ(proc.blocks[0].term.kind, MTerm::Kind::Ret);
}

TEST(Passes, RotateLoopsAddsGuard)
{
    // 0 -> 1(head: branch 2, 3) ; 2(body) -> 1 ; 3: ret
    MProc proc;
    proc.next_vreg = 3;
    MBlock b0;
    b0.id = 0;
    b0.term = MTerm::jump(1);
    MBlock b1;
    b1.id = 1;
    b1.insts.push_back(
        MInst::bin(1, MOp::CmpLTS, 0, MVal::immediate(10)));
    b1.term = MTerm::branch(1, 2, 3);
    MBlock b2;
    b2.id = 2;
    b2.insts.push_back(MInst::bin(0, MOp::Add, 0, MVal::immediate(1)));
    b2.term = MTerm::jump(1);
    MBlock b3;
    b3.id = 3;
    b3.term = MTerm::ret(0);
    proc.blocks = {std::move(b0), std::move(b1), std::move(b2),
                   std::move(b3)};

    EXPECT_EQ(rotate_loops(proc), 1);
    EXPECT_EQ(proc.blocks.size(), 5u);
    // Entry now reaches the guard, not the head; the backedge still
    // targets the head.
    EXPECT_NE(proc.blocks[0].term.target, 1);
    const MBlock *body = proc.block_by_id(2);
    ASSERT_NE(body, nullptr);
    EXPECT_EQ(body->term.target, 1);
}

TEST(Passes, RotateLoopsSkipsImpureHeads)
{
    MProc proc;
    proc.next_vreg = 3;
    MBlock b0;
    b0.id = 0;
    b0.term = MTerm::jump(1);
    MBlock b1;
    b1.id = 1;
    b1.insts.push_back(MInst::call(1, 0, {}));  // side effect in head
    b1.term = MTerm::branch(1, 2, 3);
    MBlock b2;
    b2.id = 2;
    b2.term = MTerm::jump(1);
    MBlock b3;
    b3.id = 3;
    b3.term = MTerm::ret(0);
    proc.blocks = {std::move(b0), std::move(b1), std::move(b2),
                   std::move(b3)};
    EXPECT_EQ(rotate_loops(proc), 0);
}

TEST(Passes, InlineSmallProcs)
{
    lang::PackageSource pkg;
    pkg.name = "p";
    lang::ProcedureAst tiny;
    tiny.name = "tiny";
    tiny.num_params = 1;
    tiny.body.push_back(Stmt::ret(Expr::bin(
        lang::BinOp::Add, Expr::param(0), Expr::constant(1))));
    lang::ProcedureAst caller;
    caller.name = "caller";
    caller.num_params = 1;
    caller.body.push_back(Stmt::ret(Expr::call(
        "tiny", [] {
            std::vector<lang::ExprPtr> args;
            args.push_back(Expr::param(0));
            return args;
        }())));
    pkg.procedures.push_back(std::move(tiny));
    pkg.procedures.push_back(std::move(caller));

    MModule module = lower_package(pkg);
    EXPECT_GT(inline_small_procs(module, 8), 0);
    const int caller_index = module.find_proc("caller");
    ASSERT_GE(caller_index, 0);
    for (const MBlock &block :
         module.procs[static_cast<std::size_t>(caller_index)].blocks) {
        for (const MInst &inst : block.insts) {
            EXPECT_NE(inst.kind, MInst::Kind::Call);
        }
    }
}

TEST(Passes, OptimizeModulePreservesProcedureSet)
{
    Rng rng(3);
    lang::GenOptions options;
    lang::PackageSource pkg;
    pkg.name = "p";
    pkg.globals = {{"g0", 8}, {"g1", 8}};
    for (int i = 0; i < 4; ++i) {
        Rng body = rng.fork("p" + std::to_string(i));
        pkg.procedures.push_back(lang::generate_procedure(
            body, "p" + std::to_string(i), options));
    }
    for (const ToolchainProfile &profile : vendor_toolchains()) {
        MModule module = lower_package(pkg);
        optimize_module(module, profile);
        EXPECT_EQ(module.procs.size(), 4u) << profile.name;
        for (const MProc &proc : module.procs) {
            EXPECT_FALSE(proc.blocks.empty()) << profile.name;
        }
    }
}

TEST(Toolchain, CatalogIsConsistent)
{
    const ToolchainProfile ref = gcc_like_toolchain();
    EXPECT_EQ(ref.opt_level, 2);
    EXPECT_EQ(toolchain_by_name(ref.name).name, ref.name);
    std::set<std::string> names;
    for (const ToolchainProfile &p : vendor_toolchains()) {
        EXPECT_TRUE(names.insert(p.name).second) << "duplicate name";
        EXPECT_EQ(toolchain_by_name(p.name).name, p.name);
    }
}

}  // namespace
}  // namespace firmup::compiler
