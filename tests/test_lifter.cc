/**
 * @file
 * Lifter unit tests: per-ISA statement lifting semantics (zero register,
 * flag thunks, PPC compare signedness), the MIPS delay-slot
 * re-attribution, architecture sniffing and procedure discovery edges,
 * and the flat-table lift_executable against the reference lifter in
 * lifter_oracle.h on a seed corpus, seeded mutants and hand-built CFG
 * edges.
 */
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "codegen/build.h"
#include "firmware/catalog.h"
#include "firmware/corpus.h"
#include "isa/arm.h"
#include "isa/mips.h"
#include "isa/ppc.h"
#include "isa/x86.h"
#include "lang/generate.h"
#include "lifter/cfg.h"
#include "lifter/lift.h"
#include "lifter_oracle.h"
#include "support/rng.h"
#include "support/str.h"

namespace firmup::lifter {
namespace {

using ir::Stmt;

ir::Block
lift_one(isa::Arch arch, const isa::MachInst &inst,
         std::uint64_t addr = 0x400000)
{
    ir::Block block;
    LiftState state;
    lift_inst(arch, inst, addr, state, block);
    return block;
}

TEST(LiftMips, ZeroRegisterReadsAsConstant)
{
    namespace m = isa::mips;
    // or $t0, $a0, $zero — the canonical move.
    const auto block = lift_one(
        isa::Arch::Mips32, m::make_rrr(m::Op::Or, m::T0, m::A0, m::Zero));
    // The second operand of the Or must be an inline constant 0, not a
    // Get of register 0.
    bool found = false;
    for (const Stmt &s : block.stmts) {
        if (s.kind == Stmt::Kind::Bin) {
            EXPECT_TRUE(s.b.is_const());
            EXPECT_EQ(s.b.as_const(), 0u);
            found = true;
        }
        if (s.kind == Stmt::Kind::Get) {
            EXPECT_NE(s.reg, m::Zero);
        }
    }
    EXPECT_TRUE(found);
}

TEST(LiftMips, LuiShiftsImmediate)
{
    namespace m = isa::mips;
    const auto block = lift_one(
        isa::Arch::Mips32, m::make_ri(m::Op::Lui, m::T1, 0, 0x1000));
    ASSERT_EQ(block.stmts.size(), 1u);
    EXPECT_EQ(block.stmts[0].kind, Stmt::Kind::Put);
    EXPECT_EQ(block.stmts[0].a.as_const(), 0x10000000u);
}

TEST(LiftMips, JalBecomesCallPlusV0)
{
    namespace m = isa::mips;
    isa::MachInst jal;
    jal.op = static_cast<std::uint16_t>(m::Op::Jal);
    jal.imm = 0x400200;
    const auto block = lift_one(isa::Arch::Mips32, jal);
    ASSERT_EQ(block.stmts.size(), 2u);
    EXPECT_EQ(block.stmts[0].kind, Stmt::Kind::Call);
    EXPECT_EQ(block.stmts[0].a.as_const(), 0x400200u);
    EXPECT_EQ(block.stmts[1].kind, Stmt::Kind::Put);
    EXPECT_EQ(block.stmts[1].reg, m::V0);
}

TEST(LiftArm, CmpStoresCcDeps)
{
    namespace a = isa::arm;
    isa::MachInst cmp;
    cmp.op = static_cast<std::uint16_t>(a::Op::Cmp);
    cmp.rs = a::R1;
    cmp.rt = a::R2;
    const auto block = lift_one(isa::Arch::Arm32, cmp);
    int cc_puts = 0;
    for (const Stmt &s : block.stmts) {
        if (s.kind == Stmt::Kind::Put &&
            (s.reg == kRegCcDep1 || s.reg == kRegCcDep2)) {
            ++cc_puts;
        }
    }
    EXPECT_EQ(cc_puts, 2);
}

TEST(LiftArm, ConditionalBranchMaterializesComparison)
{
    namespace a = isa::arm;
    isa::MachInst b;
    b.op = static_cast<std::uint16_t>(a::Op::B);
    b.rt = 1;  // conditional
    b.cond = isa::Cond::LTS;
    b.imm = 0x400100;
    const auto block = lift_one(isa::Arch::Arm32, b);
    bool has_cmp = false, has_exit = false;
    for (const Stmt &s : block.stmts) {
        has_cmp |= s.kind == Stmt::Kind::Bin &&
                   s.bin_op == ir::BinOp::CmpLTS;
        has_exit |= s.kind == Stmt::Kind::Exit;
    }
    EXPECT_TRUE(has_cmp);
    EXPECT_TRUE(has_exit);
}

TEST(LiftPpc, CmplwMakesFollowingBranchUnsigned)
{
    namespace p = isa::ppc;
    ir::Block block;
    LiftState state;
    isa::MachInst cmplw;
    cmplw.op = static_cast<std::uint16_t>(p::Op::Cmplw);
    cmplw.rs = p::R3;
    cmplw.rt = p::R4;
    lift_inst(isa::Arch::Ppc32, cmplw, 0x400000, state, block);
    isa::MachInst bc;
    bc.op = static_cast<std::uint16_t>(p::Op::Bc);
    bc.cond = isa::Cond::LTS;  // decoder reports the signed variant
    bc.imm = 0x400100;
    lift_inst(isa::Arch::Ppc32, bc, 0x400004, state, block);
    bool has_unsigned = false;
    for (const Stmt &s : block.stmts) {
        has_unsigned |= s.kind == Stmt::Kind::Bin &&
                        s.bin_op == ir::BinOp::CmpLTU;
    }
    EXPECT_TRUE(has_unsigned);
}

TEST(LiftPpc, AddiWithR0IsLoadImmediate)
{
    namespace p = isa::ppc;
    isa::MachInst li;
    li.op = static_cast<std::uint16_t>(p::Op::Addi);
    li.rd = p::R5;
    li.rs = 0;
    li.imm = -7;
    const auto block = lift_one(isa::Arch::Ppc32, li);
    ASSERT_EQ(block.stmts.size(), 1u);
    EXPECT_EQ(block.stmts[0].kind, Stmt::Kind::Put);
    EXPECT_EQ(block.stmts[0].a.as_const(), 0xfffffff9u);
}

TEST(LiftX86, PushAdjustsEspAndStores)
{
    namespace x = isa::x86;
    isa::MachInst push;
    push.op = static_cast<std::uint16_t>(x::Op::Push);
    push.rd = x::Ebx;
    const auto block = lift_one(isa::Arch::X86, push);
    bool has_sub = false, has_store = false, has_sp_put = false;
    for (const Stmt &s : block.stmts) {
        has_sub |= s.kind == Stmt::Kind::Bin &&
                   s.bin_op == ir::BinOp::Sub;
        has_store |= s.kind == Stmt::Kind::Store;
        has_sp_put |= s.kind == Stmt::Kind::Put && s.reg == x::Esp;
    }
    EXPECT_TRUE(has_sub);
    EXPECT_TRUE(has_store);
    EXPECT_TRUE(has_sp_put);
}

TEST(LiftX86, TwoOperandAluReadsDestination)
{
    namespace x = isa::x86;
    isa::MachInst add;
    add.op = static_cast<std::uint16_t>(x::Op::AddRR);
    add.rd = x::Ebx;
    add.rt = x::Ecx;
    const auto block = lift_one(isa::Arch::X86, add);
    // Must read ebx (dst is also a source on x86).
    bool reads_dst = false;
    for (const Stmt &s : block.stmts) {
        reads_dst |= s.kind == Stmt::Kind::Get && s.reg == x::Ebx;
    }
    EXPECT_TRUE(reads_dst);
}

// ---- delay slots & discovery ----

lang::PackageSource
loop_package()
{
    using lang::Expr;
    using lang::Stmt;
    lang::PackageSource pkg;
    pkg.name = "p";
    pkg.globals = {{"g0", 4}};
    lang::ProcedureAst proc;
    proc.name = "looper";
    proc.num_params = 1;
    proc.num_locals = 2;
    std::vector<lang::StmtPtr> body;
    body.push_back(Stmt::assign_local(
        0, Expr::bin(lang::BinOp::Add, Expr::local(0),
                     Expr::param(0))));
    body.push_back(Stmt::assign_local(
        1, Expr::bin(lang::BinOp::Add, Expr::local(1),
                     Expr::constant(1))));
    proc.body.push_back(Stmt::while_stmt(
        Expr::bin(lang::BinOp::Lt, Expr::local(1), Expr::constant(10)),
        std::move(body)));
    proc.body.push_back(Stmt::ret(Expr::local(0)));
    pkg.procedures.push_back(std::move(proc));
    return pkg;
}

TEST(DelaySlots, FilledSlotsLiftToEquivalentCfg)
{
    // Build the same procedure with NOP slots and with filled slots; the
    // lifted procedures must have identical block structure and strands
    // land in the same blocks.
    codegen::BuildRequest nop_request;
    nop_request.arch = isa::Arch::Mips32;
    nop_request.profile = compiler::gcc_like_toolchain();
    nop_request.profile.mips_fill_delay_slot = false;
    codegen::BuildRequest fill_request = nop_request;
    fill_request.profile.mips_fill_delay_slot = true;

    const auto pkg = loop_package();
    const auto nop_exe = codegen::build_executable(pkg, nop_request);
    const auto fill_exe = codegen::build_executable(pkg, fill_request);
    // Filling must actually shrink the code.
    EXPECT_LT(fill_exe.text.size(), nop_exe.text.size());

    const auto nop_lift = lift_executable(nop_exe).take();
    const auto fill_lift = lift_executable(fill_exe).take();
    ASSERT_EQ(nop_lift.procs.size(), fill_lift.procs.size());
    const auto &a = nop_lift.procs.begin()->second;
    const auto &b = fill_lift.procs.begin()->second;
    EXPECT_EQ(a.blocks.size(), b.blocks.size());
}

TEST(Discovery, PrologueScanFindsUncalledProcedures)
{
    // A stripped executable where proc 1 is never called: the entry
    // explores proc 0 only; the prologue scan must still find proc 1.
    lang::PackageSource pkg;
    pkg.name = "p";
    pkg.globals = {{"g0", 4}};
    for (int i = 0; i < 2; ++i) {
        using lang::Expr;
        using lang::Stmt;
        lang::ProcedureAst proc;
        proc.name = "p" + std::to_string(i);
        proc.num_params = 1;
        proc.num_locals = 2;
        // Enough locals traffic to force a frame.
        for (int k = 0; k < 6; ++k) {
            proc.body.push_back(Stmt::assign_local(
                k % 2, Expr::bin(lang::BinOp::Add, Expr::local(0),
                                 Expr::local(1))));
        }
        proc.body.push_back(Stmt::ret(Expr::local(0)));
        pkg.procedures.push_back(std::move(proc));
    }
    codegen::BuildRequest request;
    request.arch = isa::Arch::Arm32;
    request.profile = compiler::vendor_toolchains()[0];  // O0: spills
    request.strip = true;
    request.keep_exported = false;
    const auto exe = codegen::build_executable(pkg, request);

    LiftOptions with_scan;
    const auto lifted = lift_executable(exe, with_scan).take();
    EXPECT_EQ(lifted.procs.size(), 2u);

    LiftOptions no_scan;
    no_scan.prologue_scan = false;
    const auto without = lift_executable(exe, no_scan).take();
    EXPECT_EQ(without.procs.size(), 1u);
}

TEST(Discovery, DetectArchOnAllArches)
{
    const auto pkg = loop_package();
    for (isa::Arch arch : isa::kAllArches) {
        codegen::BuildRequest request;
        request.arch = arch;
        request.profile = compiler::gcc_like_toolchain();
        auto exe = codegen::build_executable(pkg, request);
        for (isa::Arch lie : isa::kAllArches) {
            exe.declared_arch = lie;
            EXPECT_EQ(detect_arch(exe), arch)
                << isa::arch_name(arch) << " declared as "
                << isa::arch_name(lie);
        }
    }
}

TEST(Discovery, EmptyTextYieldsNoProcs)
{
    loader::Executable exe;
    exe.arch = isa::Arch::Mips32;
    exe.declared_arch = isa::Arch::Mips32;
    exe.text_addr = 0x400000;
    exe.entry = 0x400000;
    auto lifted = lift_executable(exe);
    ASSERT_TRUE(lifted.ok());
    EXPECT_TRUE(lifted.value().procs.empty());
}

}  // namespace
}  // namespace firmup::lifter

namespace firmup::lifter {
namespace {

TEST(Robustness, ByteFlipFuzzNeverCrashesTheLifter)
{
    // Flip random text bytes of a valid executable: lifting must always
    // return cleanly (possibly with fewer procedures), never crash or
    // hang. This models firmware with corrupt sections, which the
    // paper's crawler met constantly.
    Rng rng(404);
    const auto &pkg = firmware::package_by_name("miniupnpd");
    const auto source = firmware::generate_package_source(pkg, "1.8");
    for (isa::Arch arch : isa::kAllArches) {
        codegen::BuildRequest request;
        request.arch = arch;
        request.profile = compiler::gcc_like_toolchain();
        request.strip = true;
        request.keep_exported = false;
        const auto clean = codegen::build_executable(source, request);
        for (int round = 0; round < 30; ++round) {
            loader::Executable exe = clean;
            const int flips = 1 + static_cast<int>(rng.index(8));
            for (int f = 0; f < flips; ++f) {
                exe.text[rng.index(exe.text.size())] ^=
                    static_cast<std::uint8_t>(1 + rng.index(255));
            }
            auto lifted = lift_executable(exe);
            ASSERT_TRUE(lifted.ok());
            // Whatever survived must still be structurally sound.
            for (const auto &[entry, proc] : lifted.value().procs) {
                for (const auto &[addr, block] : proc.blocks) {
                    (void)addr;
                    (void)block;
                }
            }
        }
    }
}

TEST(Robustness, TruncatedTextSection)
{
    const auto &pkg = firmware::package_by_name("dropbear");
    const auto source =
        firmware::generate_package_source(pkg, "2012.55");
    codegen::BuildRequest request;
    request.arch = isa::Arch::X86;  // variable length: worst case
    request.profile = compiler::gcc_like_toolchain();
    auto exe = codegen::build_executable(source, request);
    exe.text.resize(exe.text.size() / 3);
    auto lifted = lift_executable(exe);
    ASSERT_TRUE(lifted.ok());
}

}  // namespace
}  // namespace firmup::lifter

namespace firmup::lifter {
namespace {

// ---- the flat lifter against the reference lifter ----

/**
 * Everything lift_executable decides, as text: procedure entries and
 * names, each procedure's µIR, and every block's end kind, target,
 * fallthrough and statement addresses.
 */
std::string
render(const Result<LiftedExecutable> &lifted)
{
    if (!lifted.ok()) {
        return "error " + lifted.error_message();
    }
    const LiftedExecutable &x = lifted.value();
    std::string out = strprintf(
        "%s %s text %s-%s data %s-%s\n", x.name.c_str(),
        isa::arch_name(x.arch), to_hex(x.text_addr).c_str(),
        to_hex(x.text_end).c_str(), to_hex(x.data_addr).c_str(),
        to_hex(x.data_end).c_str());
    for (const auto &[entry, proc] : x.procs) {
        out += strprintf("entry %s '%s'\n", to_hex(entry).c_str(),
                         proc.name.c_str());
        out += ir::to_string(proc);
        for (const auto &[addr, block] : proc.blocks) {
            out += strprintf("block %s @%s end %d target %s fall %s:",
                             to_hex(addr).c_str(), to_hex(block.addr).c_str(),
                             static_cast<int>(block.end),
                             to_hex(block.target).c_str(),
                             to_hex(block.fallthrough).c_str());
            for (const ir::Stmt &stmt : block.stmts) {
                out += ' ';
                out += to_hex(stmt.insn_addr);
            }
            out += "\n";
        }
    }
    return out;
}

constexpr LiftOptions kAllOptions[] = {
    {true, true}, {true, false}, {false, true}, {false, false}};

/** Both lifters agree on @p exe under @p options. */
void
expect_matches_oracle(const loader::Executable &exe,
                      const LiftOptions &options, const std::string &what)
{
    const std::string flat = render(lift_executable(exe, options));
    const std::string reference =
        render(oracle::lift_executable(exe, options));
    EXPECT_EQ(flat, reference)
        << what << " (sniff " << options.sniff_arch << ", scan "
        << options.prologue_scan << ")";
}

TEST(LifterOracle, SeedCorpusUnderEveryOption)
{
    // Four small devices; at this corpus seed they cover all four ISAs.
    firmware::CorpusOptions corpus_options;
    corpus_options.seed = 15;
    corpus_options.num_devices = 4;
    corpus_options.min_packages = 2;
    corpus_options.max_packages = 3;
    const firmware::Corpus corpus = firmware::build_corpus(corpus_options);
    std::set<isa::Arch> arches;
    std::set<bool> stripped;
    std::size_t exes = 0;
    for (const firmware::FirmwareImage &image : corpus.images) {
        for (const loader::Executable &exe : image.executables) {
            arches.insert(exe.arch);
            stripped.insert(exe.stripped);
            ++exes;
            for (const LiftOptions &options : kAllOptions) {
                expect_matches_oracle(exe, options, image.device + "/" +
                                                        exe.name);
            }
        }
    }
    EXPECT_GT(exes, 10u);
    EXPECT_EQ(arches.size(), std::size(isa::kAllArches));
    EXPECT_EQ(stripped.size(), 2u);
}

/** One clean build of a small package per (ISA, stripped). */
std::vector<loader::Executable>
clean_builds()
{
    const auto &pkg = firmware::package_by_name("miniupnpd");
    const auto source = firmware::generate_package_source(pkg, "1.8");
    std::vector<loader::Executable> out;
    for (isa::Arch arch : isa::kAllArches) {
        for (bool strip : {false, true}) {
            codegen::BuildRequest request;
            request.arch = arch;
            request.profile = compiler::gcc_like_toolchain();
            request.strip = strip;
            request.keep_exported = false;
            out.push_back(codegen::build_executable(source, request));
        }
    }
    return out;
}

TEST(LifterOracle, SeededMutants)
{
    // Byte flips, truncated text, and random entry addresses, symbol
    // addresses and declared arch: the two lifters must agree on every
    // mutant, whatever it decodes to.
    Rng rng(2020);
    int mutants = 0;
    for (const loader::Executable &clean : clean_builds()) {
        const std::uint64_t span = clean.text.size() + 64;
        auto near_text = [&] {
            return static_cast<std::uint32_t>(clean.text_addr - 32 +
                                              rng.index(span));
        };
        for (int round = 0; round < 24; ++round) {
            loader::Executable exe = clean;
            switch (round % 4) {
              case 0:
                for (std::size_t f = 1 + rng.index(8); f-- > 0;) {
                    exe.text[rng.index(exe.text.size())] ^=
                        static_cast<std::uint8_t>(1 + rng.index(255));
                }
                break;
              case 1:
                exe.text.resize(rng.index(exe.text.size()));
                break;
              case 2:
                exe.entry = near_text();
                break;
              case 3:
                for (loader::Symbol &sym : exe.symbols) {
                    if (rng.index(2) == 0) {
                        sym.addr = near_text();
                    }
                }
                exe.symbols.push_back({near_text(), false, "extra"});
                break;
            }
            if (rng.index(3) == 0) {
                exe.declared_arch = isa::kAllArches[rng.index(
                    std::size(isa::kAllArches))];
            }
            expect_matches_oracle(exe, kAllOptions[rng.index(4)],
                                  exe.name + " mutant " +
                                      std::to_string(round));
            ++mutants;
        }
    }
    EXPECT_EQ(mutants, 8 * 24);
}

/** An executable whose text is @p insts laid out from 0x1000. */
loader::Executable
hand_built(isa::Arch arch, const std::vector<isa::MachInst> &insts)
{
    loader::Executable exe;
    exe.name = "hand";
    exe.arch = arch;
    exe.declared_arch = arch;
    exe.text_addr = 0x1000;
    exe.entry = 0x1000;
    const isa::Target &target = isa::target_for(arch);
    for (const isa::MachInst &inst : insts) {
        target.encode(inst, exe.text_addr + exe.text.size(), exe.text);
    }
    return exe;
}

/** Both lifters agree on @p exe under every option; returns the lift. */
LiftedExecutable
agreed(const loader::Executable &exe, const std::string &what)
{
    for (const LiftOptions &options : kAllOptions) {
        expect_matches_oracle(exe, options, what);
    }
    return lift_executable(exe).take();
}

isa::MachInst
mips_branch(std::uint64_t target)
{
    namespace m = isa::mips;
    return m::make_ri(m::Op::Beq, 0, m::A0, static_cast<std::int32_t>(
                                                 target));
}

isa::MachInst
mips_jump(isa::mips::Op op, std::uint64_t target)
{
    isa::MachInst inst;
    inst.op = static_cast<std::uint16_t>(op);
    inst.imm = static_cast<std::int64_t>(target);
    return inst;
}

isa::MachInst
mips_step(std::int32_t k)
{
    namespace m = isa::mips;
    return m::make_ri(m::Op::Addiu, m::V0, m::V0, k);
}

TEST(LifterOracle, BranchToTextEndIsALeaderOutsideText)
{
    namespace m = isa::mips;
    // beq at 0x1000 targets text_end (0x1014): the run from 0x1008 must
    // end in a fallthrough to text_end, not in a decode hole.
    const auto exe = hand_built(
        isa::Arch::Mips32, {mips_branch(0x1014), m::make_nop(),
                            mips_step(1), mips_step(2), mips_step(3)});
    const auto lifted = agreed(exe, "branch to text_end");
    const ir::Procedure &proc = lifted.procs.at(0x1000);
    ASSERT_TRUE(proc.blocks.contains(0x1008));
    EXPECT_EQ(proc.blocks.at(0x1008).end, ir::BlockEndKind::Fallthrough);
    EXPECT_EQ(proc.blocks.at(0x1008).fallthrough, 0x1014u);
    EXPECT_FALSE(proc.blocks.contains(0x1014));
}

TEST(LifterOracle, BranchesOutsideText)
{
    namespace m = isa::mips;
    // One branch above text_end, one below text_addr, one jump far away.
    agreed(hand_built(isa::Arch::Mips32,
                      {mips_branch(0x1100), m::make_nop(),
                       mips_branch(0x0f00), m::make_nop(),
                       mips_jump(m::Op::J, 0x4000), m::make_nop()}),
           "branches outside text");
    // x86: a jcc past text_end and a jmp to text_end.
    namespace x = isa::x86;
    isa::MachInst jcc;
    jcc.op = static_cast<std::uint16_t>(x::Op::Jcc);
    jcc.imm = 0x9000;
    isa::MachInst jmp;
    jmp.op = static_cast<std::uint16_t>(x::Op::Jmp);
    jmp.imm = 0x100f;  // text_end
    isa::MachInst nop;
    nop.op = static_cast<std::uint16_t>(x::Op::Nop);
    agreed(hand_built(isa::Arch::X86, {jcc, nop, jmp, nop}),
           "x86 branches outside text");
}

TEST(LifterOracle, DelaySlotIsTheLastWordOfText)
{
    namespace m = isa::mips;
    // The slot decodes, and the fallthrough after it is text_end.
    const auto lifted = agreed(
        hand_built(isa::Arch::Mips32,
                   {mips_step(1), mips_branch(0x1000), mips_step(2)}),
        "slot is the last word");
    const ir::Procedure &proc = lifted.procs.at(0x1000);
    ASSERT_FALSE(proc.blocks.empty());
    EXPECT_EQ(proc.blocks.rbegin()->second.fallthrough, 0x100cu);
    // The branch itself is the last word: its slot lies outside text.
    agreed(hand_built(isa::Arch::Mips32, {mips_step(1), mips_branch(0x1000)}),
           "slot outside text");
}

TEST(LifterOracle, JumpAndCallIntoAnotherProcedure)
{
    namespace m = isa::mips;
    // p0 (0x1000) jumps into the middle of p1 (0x1010) and calls the
    // instruction after that, which p1 already claimed.
    auto exe = hand_built(
        isa::Arch::Mips32,
        {mips_jump(m::Op::Jal, 0x101c), m::make_nop(),
         mips_jump(m::Op::J, 0x1018), m::make_nop(),
         mips_step(1), mips_step(2), mips_step(3), mips_step(4),
         m::make_rrr(m::Op::Jr, 0, m::Ra, 0), m::make_nop()});
    exe.symbols = {{0x1000, true, "p0"}, {0x1010, true, "p1"}};
    const auto lifted = agreed(exe, "jump into another procedure");
    EXPECT_TRUE(lifted.procs.contains(0x101c));
}

TEST(LifterOracle, PrologueScanInsideAMultiByteInstruction)
{
    namespace x = isa::x86;
    // mov eax, imm32 at 0x1000 spans 0x1000-0x1005; its immediate puts
    // the bytes of `push ebp` at the 4-aligned 0x1004, which the scan
    // finds unclaimed and lifts as a procedure of its own.
    isa::MachInst mov;
    mov.op = static_cast<std::uint16_t>(x::Op::MovRI);
    mov.rd = x::Eax;
    mov.imm = 0x50420000;
    isa::MachInst ret;
    ret.op = static_cast<std::uint16_t>(x::Op::Ret);
    const auto lifted = agreed(hand_built(isa::Arch::X86, {mov, ret, ret}),
                               "scan inside an instruction");
    EXPECT_TRUE(lifted.procs.contains(0x1004));
}

TEST(LifterOracle, DuplicateSymbolsAndSymbolsOutsideText)
{
    namespace m = isa::mips;
    auto exe = hand_built(isa::Arch::Mips32,
                          {mips_step(1), m::make_rrr(m::Op::Jr, 0, m::Ra, 0),
                           m::make_nop(), mips_step(2),
                           m::make_rrr(m::Op::Jr, 0, m::Ra, 0),
                           m::make_nop()});
    exe.symbols = {{0x100c, true, "first"}, {0x100c, true, "again"},
                   {0x1018, true, "end"},   {0x0ffc, true, "low"},
                   {0, true, "zero"},       {0x1000, true, "start"},
                   {0x1002, true, "odd"}};
    const auto lifted = agreed(exe, "duplicate and outside symbols");
    ASSERT_TRUE(lifted.procs.contains(0x100c));
    EXPECT_EQ(lifted.procs.at(0x100c).name, "first");
    EXPECT_FALSE(lifted.procs.contains(0x1018));
}

}  // namespace
}  // namespace firmup::lifter
