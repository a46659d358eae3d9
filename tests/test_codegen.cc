/**
 * @file
 * Code generation tests: register allocation invariants, MIPS delay-slot
 * filling legality, frame layout knobs, and linker relocation sanity.
 */
#include <gtest/gtest.h>

#include <set>

#include "codegen/backend.h"
#include "codegen/build.h"
#include "codegen/regalloc.h"
#include "isa/mips.h"
#include "lang/generate.h"
#include "lifter/cfg.h"
#include "sim/similarity.h"
#include "support/rng.h"

namespace firmup::codegen {
namespace {

using compiler::MBlock;
using compiler::MInst;
using compiler::MOp;
using compiler::MProc;
using compiler::MTerm;

MProc
busy_proc(int vregs)
{
    // One block, a long dependency chain that keeps many values live.
    MProc proc;
    proc.name = "busy";
    proc.num_params = 2;
    proc.next_vreg = static_cast<compiler::VReg>(vregs);
    MBlock block;
    block.id = 0;
    for (int v = 2; v < vregs; ++v) {
        block.insts.push_back(MInst::bin(
            static_cast<compiler::VReg>(v), MOp::Add,
            static_cast<compiler::VReg>(v - 1),
            compiler::MVal::vreg(static_cast<compiler::VReg>(v - 2))));
    }
    // Use everything at the end so nothing dies early.
    for (int v = 0; v + 1 < vregs; v += 2) {
        block.insts.push_back(MInst::store(
            static_cast<compiler::VReg>(v),
            static_cast<compiler::VReg>(v + 1)));
    }
    block.term = MTerm::ret(static_cast<compiler::VReg>(vregs - 1));
    proc.blocks.push_back(std::move(block));
    return proc;
}

TEST(Regalloc, NoTwoLiveValuesShareARegister)
{
    const MProc proc = busy_proc(12);
    for (isa::Arch arch : isa::kAllArches) {
        const isa::AbiInfo &abi = *isa::target_for(arch).abi;
        const Allocation alloc = allocate_registers(proc, abi, false);
        // All 12 values are simultaneously live at the stores; every
        // assigned register must be unique among register-resident ones.
        std::set<isa::MReg> used;
        int spills = 0;
        for (const Loc &loc : alloc.locs) {
            if (loc.is_reg()) {
                EXPECT_TRUE(used.insert(loc.reg).second)
                    << isa::arch_name(arch) << " reg "
                    << static_cast<int>(loc.reg) << " double-assigned";
            } else if (loc.is_spill()) {
                ++spills;
            }
        }
        EXPECT_EQ(spills, alloc.num_spill_slots);
        // Scratch registers must never be allocated.
        EXPECT_FALSE(used.contains(abi.scratch0));
        EXPECT_FALSE(used.contains(abi.scratch1));
    }
}

TEST(Regalloc, ValuesAcrossCallsUseCalleeSaved)
{
    MProc proc;
    proc.name = "f";
    proc.num_params = 1;
    proc.next_vreg = 3;
    MBlock block;
    block.id = 0;
    block.insts.push_back(MInst::bin(1, MOp::Add, 0,
                                     compiler::MVal::immediate(1)));
    block.insts.push_back(MInst::call(2, 0, {0}));
    // vreg 1 is live across the call.
    block.insts.push_back(MInst::store(1, 2));
    block.term = MTerm::ret(1);
    proc.blocks.push_back(std::move(block));

    for (isa::Arch arch : isa::kAllArches) {
        const isa::AbiInfo &abi = *isa::target_for(arch).abi;
        const Allocation alloc = allocate_registers(proc, abi, false);
        const Loc &loc = alloc.locs[1];
        if (loc.is_reg()) {
            EXPECT_NE(std::find(abi.callee_saved.begin(),
                                abi.callee_saved.end(), loc.reg),
                      abi.callee_saved.end())
                << isa::arch_name(arch)
                << ": call-crossing value in caller-saved register";
        }
    }
}

TEST(Regalloc, CalleeSavedFirstChangesAssignment)
{
    const MProc proc = busy_proc(6);
    const isa::AbiInfo &abi = *isa::target_for(isa::Arch::Mips32).abi;
    const Allocation a = allocate_registers(proc, abi, false);
    const Allocation b = allocate_registers(proc, abi, true);
    bool any_difference = false;
    for (std::size_t v = 0; v < a.locs.size(); ++v) {
        any_difference |= a.locs[v].is_reg() && b.locs[v].is_reg() &&
                          a.locs[v].reg != b.locs[v].reg;
    }
    EXPECT_TRUE(any_difference);
}

TEST(DelayFill, SlotNeverFeedsItsBranch)
{
    // Generate many MIPS procedures with slot filling on and verify, at
    // the machine level, that no filled delay slot writes a register the
    // branch reads.
    namespace m = isa::mips;
    Rng rng(11);
    lang::PackageSource pkg;
    pkg.name = "p";
    pkg.globals = {{"g0", 8}, {"g1", 4}, {"g2", 4}, {"g3", 4}};
    std::vector<lang::Callee> callable;
    for (int i = 0; i < 6; ++i) {
        lang::GenOptions options;
        options.num_params = 2;
        options.callable = callable;
        Rng body = rng.fork(std::to_string(i));
        pkg.procedures.push_back(lang::generate_procedure(
            body, "p" + std::to_string(i), options));
        callable.push_back({"p" + std::to_string(i), 2});
    }
    codegen::BuildRequest request;
    request.arch = isa::Arch::Mips32;
    request.profile = compiler::vendor_toolchains()[1];  // fills slots
    ASSERT_TRUE(request.profile.mips_fill_delay_slot);
    const auto exe = build_executable(pkg, request);

    const isa::Target &target = isa::target_for(isa::Arch::Mips32);
    std::uint64_t addr = exe.text_addr;
    isa::MachInst prev;
    bool have_prev = false;
    int filled = 0;
    while (addr < exe.text_addr + exe.text.size()) {
        const std::size_t offset =
            static_cast<std::size_t>(addr - exe.text_addr);
        auto decoded = target.decode(exe.text.data() + offset,
                                     exe.text.size() - offset, addr);
        ASSERT_TRUE(decoded.ok());
        const isa::MachInst inst = decoded.value().inst;
        if (have_prev &&
            m::has_delay_slot(static_cast<m::Op>(prev.op)) &&
            static_cast<m::Op>(inst.op) != m::Op::Nop) {
            ++filled;
            // Branch reads vs slot writes.
            std::set<isa::MReg> reads;
            switch (static_cast<m::Op>(prev.op)) {
              case m::Op::Beq:
              case m::Op::Bne:
                reads = {prev.rs, prev.rt};
                break;
              case m::Op::Jr:
              case m::Op::Jalr:
                reads = {prev.rs};
                break;
              default:
                break;
            }
            switch (static_cast<m::Op>(inst.op)) {
              case m::Op::Sw:
              case m::Op::Beq:
              case m::Op::Bne:
              case m::Op::J:
              case m::Op::Jal:
              case m::Op::Jr:
              case m::Op::Jalr:
                break;
              default:
                EXPECT_FALSE(reads.contains(inst.rd))
                    << "filled slot clobbers branch input at 0x"
                    << std::hex << addr;
            }
        }
        prev = inst;
        have_prev = true;
        addr += static_cast<std::uint64_t>(decoded.value().size);
    }
    EXPECT_GT(filled, 0) << "no slots were ever filled";
}

TEST(Frames, ExtraPadGrowsFrames)
{
    lang::PackageSource pkg;
    pkg.name = "p";
    pkg.globals = {{"g0", 4}, {"g1", 4}, {"g2", 4}, {"g3", 4}};
    Rng rng(5);
    lang::GenOptions options;
    options.num_params = 2;
    Rng body = rng.fork("f");
    pkg.procedures.push_back(lang::generate_procedure(body, "f", options));

    codegen::BuildRequest plain;
    plain.arch = isa::Arch::Mips32;
    plain.profile = compiler::gcc_like_toolchain();
    codegen::BuildRequest padded = plain;
    padded.profile.extra_frame_pad = 16;
    const auto a = build_executable(pkg, plain);
    const auto b = build_executable(pkg, padded);
    // Frames differ => first instruction (sp adjust) differs.
    EXPECT_NE(a.text, b.text);
}

TEST(Link, SymbolsAreOrderedAndAligned)
{
    lang::PackageSource pkg;
    pkg.name = "p";
    pkg.globals = {{"g0", 4}, {"g1", 4}, {"g2", 4}, {"g3", 4}};
    Rng rng(6);
    std::vector<lang::Callee> callable;
    for (int i = 0; i < 5; ++i) {
        lang::GenOptions options;
        options.num_params = 1;
        options.callable = callable;
        Rng body = rng.fork(std::to_string(i));
        pkg.procedures.push_back(lang::generate_procedure(
            body, "p" + std::to_string(i), options));
        callable.push_back({"p" + std::to_string(i), 1});
    }
    for (isa::Arch arch : isa::kAllArches) {
        codegen::BuildRequest request;
        request.arch = arch;
        request.profile = compiler::gcc_like_toolchain();
        request.link.text_base = 0x8000;
        request.link.data_base = 0x30000000;
        const auto exe = build_executable(pkg, request);
        EXPECT_EQ(exe.text_addr, 0x8000u);
        EXPECT_EQ(exe.entry, exe.symbols.front().addr);
        std::uint32_t prev = 0;
        for (const loader::Symbol &sym : exe.symbols) {
            EXPECT_EQ(sym.addr % 4, 0u) << isa::arch_name(arch);
            EXPECT_GT(sym.addr, prev);
            prev = sym.addr;
            EXPECT_TRUE(exe.in_text(sym.addr));
        }
    }
}

TEST(Link, GlobalsLaidOutInData)
{
    lang::PackageSource pkg;
    pkg.name = "p";
    pkg.globals = {{"g0", 8}, {"g1", 2}, {"g2", 1}};
    lang::ProcedureAst proc;
    proc.name = "f";
    proc.body.push_back(lang::Stmt::ret(
        lang::Expr::load_global(2, lang::Expr::constant(0))));
    pkg.procedures.push_back(std::move(proc));
    codegen::BuildRequest request;
    request.arch = isa::Arch::X86;
    request.profile = compiler::gcc_like_toolchain();
    const auto exe = build_executable(pkg, request);
    EXPECT_EQ(exe.data.size(), 4u * (8 + 2 + 1));
    // The mov imm32 in text must reference g2's address: base + 40.
    const std::uint32_t g2 = exe.data_addr + 4 * 10;
    bool found = false;
    for (std::size_t i = 0; i + 4 <= exe.text.size(); ++i) {
        found |= read_u32_le(exe.text.data() + i) == g2;
    }
    EXPECT_TRUE(found);
}

}  // namespace
}  // namespace firmup::codegen

namespace firmup::codegen {
namespace {

TEST(PicCalls, JalrCallsMatchDirectCallsAfterCanonicalization)
{
    // The same package compiled with direct jal vs PIC lui/ori+jalr
    // (paper Fig. 1a) must still lift and share call strands.
    lang::PackageSource pkg;
    pkg.name = "p";
    pkg.globals = {{"g0", 4}, {"g1", 4}, {"g2", 4}, {"g3", 4}};
    Rng rng(31);
    std::vector<lang::Callee> callable;
    for (int i = 0; i < 3; ++i) {
        lang::GenOptions options;
        options.num_params = 1;
        options.callable = callable;
        Rng body = rng.fork(std::to_string(i));
        pkg.procedures.push_back(lang::generate_procedure(
            body, "p" + std::to_string(i), options));
        callable.push_back({"p" + std::to_string(i), 1});
    }
    codegen::BuildRequest direct;
    direct.arch = isa::Arch::Mips32;
    direct.profile = compiler::gcc_like_toolchain();
    ASSERT_FALSE(direct.profile.mips_pic_calls);
    codegen::BuildRequest pic = direct;
    pic.profile.mips_pic_calls = true;

    const auto a = build_executable(pkg, direct);
    const auto b = build_executable(pkg, pic);
    EXPECT_NE(a.text, b.text);

    // jalr must actually appear in the PIC build.
    const isa::Target &target = isa::target_for(isa::Arch::Mips32);
    int jalrs = 0;
    std::uint64_t addr = b.text_addr;
    while (addr < b.text_addr + b.text.size()) {
        auto decoded = target.decode(
            b.text.data() + (addr - b.text_addr),
            b.text.size() - (addr - b.text_addr), addr);
        ASSERT_TRUE(decoded.ok());
        jalrs += static_cast<isa::mips::Op>(decoded.value().inst.op) ==
                         isa::mips::Op::Jalr
                     ? 1
                     : 0;
        addr += static_cast<std::uint64_t>(decoded.value().size);
    }
    EXPECT_GT(jalrs, 0);

    // Procedures with calls must keep high strand similarity across the
    // two call conventions.
    const auto la = lifter::lift_executable(a).take();
    const auto lb = lifter::lift_executable(b).take();
    const auto ia = sim::index_executable(la);
    const auto ib = sim::index_executable(lb);
    for (const auto &proc : ia.procs) {
        const int j = ib.find_by_name(proc.name);
        ASSERT_GE(j, 0);
        const auto other = ib.procs[static_cast<std::size_t>(j)].strands;
        const int shared = sim::sim_score(proc.strands, other);
        EXPECT_GE(shared,
                  static_cast<int>(proc.strands.size() * 7 / 10))
            << proc.name;
    }
}

}  // namespace
}  // namespace firmup::codegen
