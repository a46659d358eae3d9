/**
 * @file
 * ISA tests: encode∘decode == identity for randomized well-formed
 * instructions on all four targets (parameterized property sweep), plus
 * targeted encoding checks against hand-computed words.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <vector>

#include "isa/arm.h"
#include "isa/isa.h"
#include "isa/mips.h"
#include "isa/ppc.h"
#include "isa/x86.h"
#include "support/rng.h"

namespace {

/** Heap allocations this thread made while `g_count_allocations`. */
thread_local bool g_count_allocations = false;
thread_local std::size_t g_allocations = 0;

}  // namespace

void *
operator new(std::size_t size)
{
    if (g_count_allocations) {
        ++g_allocations;
    }
    if (void *p = std::malloc(size == 0 ? 1 : size)) {
        return p;
    }
    throw std::bad_alloc();
}

// Out of line, so the compiler never sees free() meet a pointer that
// came from operator new.
[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace firmup::isa {
namespace {

/** Generate a random well-formed instruction for @p arch. */
MachInst
random_inst(Arch arch, Rng &rng, std::uint64_t addr)
{
    MachInst inst;
    auto reg32 = [&rng] { return static_cast<MReg>(rng.index(32)); };
    auto reg16 = [&rng] { return static_cast<MReg>(rng.index(16)); };
    auto reg8 = [&rng] { return static_cast<MReg>(rng.index(8)); };
    auto simm16 = [&rng] {
        return static_cast<std::int64_t>(rng.range(-32768, 32767));
    };
    auto cond = [&rng] { return static_cast<Cond>(rng.index(6)); };
    // Branch targets: word-aligned, within ±1 MiB of addr.
    auto target = [&rng, addr] {
        return static_cast<std::int64_t>(addr) + rng.range(-1000, 1000) * 4;
    };

    switch (arch) {
      case Arch::Mips32: {
        using mips::Op;
        static constexpr Op rrr[] = {Op::Addu, Op::Subu, Op::Mul, Op::Div,
                                     Op::Mod, Op::Divu, Op::And, Op::Or,
                                     Op::Xor, Op::Sllv, Op::Srlv,
                                     Op::Srav, Op::Slt, Op::Sltu};
        static constexpr Op ri[] = {Op::Addiu, Op::Slti, Op::Sltiu,
                                    Op::Lw, Op::Sw};
        static constexpr Op riu[] = {Op::Andi, Op::Ori, Op::Xori};
        switch (rng.index(7)) {
          case 0:
            inst = mips::make_rrr(rng.pick(std::vector<Op>(
                                      std::begin(rrr), std::end(rrr))),
                                  reg32(), reg32(), reg32());
            break;
          case 1:
            inst = mips::make_ri(rng.pick(std::vector<Op>(std::begin(ri),
                                                          std::end(ri))),
                                 reg32(), reg32(),
                                 static_cast<std::int32_t>(simm16()));
            break;
          case 2:
            inst = mips::make_ri(
                rng.pick(std::vector<Op>(std::begin(riu), std::end(riu))),
                reg32(), reg32(),
                static_cast<std::int32_t>(rng.range(0, 0xffff)));
            break;
          case 3:
            inst = mips::make_ri(Op::Lui, reg32(), 0,
                                 static_cast<std::int32_t>(
                                     rng.range(0, 0xffff)));
            break;
          case 4: {
            inst.op = static_cast<std::uint16_t>(
                rng.chance(1, 2) ? Op::Beq : Op::Bne);
            inst.rs = reg32();
            inst.rt = reg32();
            inst.imm = target();
            break;
          }
          case 5:
            inst.op = static_cast<std::uint16_t>(
                rng.chance(1, 2) ? Op::J : Op::Jal);
            // J targets stay in the same 256 MiB region.
            inst.imm = static_cast<std::int64_t>(
                (addr & 0xf0000000ull) +
                static_cast<std::uint64_t>(rng.range(0, 0xffffff)) * 4);
            break;
          default:
            inst = mips::make_ri(
                rng.pick(std::vector<Op>{Op::Sll, Op::Srl, Op::Sra}),
                reg32(), reg32(),
                static_cast<std::int32_t>(rng.range(1, 31)));
            break;
        }
        // Avoid shapes that collide with reserved encodings (nop).
        break;
      }
      case Arch::Arm32: {
        using arm::Op;
        switch (rng.index(6)) {
          case 0: {
            static constexpr Op rrr[] = {Op::Add, Op::Sub, Op::Mul,
                                         Op::And, Op::Orr, Op::Eor,
                                         Op::Lsl, Op::Lsr, Op::Asr,
                                         Op::Sdiv, Op::Srem};
            inst.op = static_cast<std::uint16_t>(
                rrr[rng.index(std::size(rrr))]);
            inst.rd = reg16();
            inst.rs = reg16();
            inst.rt = reg16();
            break;
          }
          case 1: {
            static constexpr Op rimm[] = {Op::MovImm, Op::AddImm,
                                          Op::SubImm, Op::LslImm,
                                          Op::LsrImm, Op::AsrImm,
                                          Op::CmpImm, Op::Ldr, Op::Str};
            inst.op = static_cast<std::uint16_t>(
                rimm[rng.index(std::size(rimm))]);
            inst.rd = reg16();
            inst.rs = reg16();
            inst.imm = rng.range(-2048, 2047);
            if (inst.op == static_cast<std::uint16_t>(Op::CmpImm)) {
                inst.rd = 0;
            }
            break;
          }
          case 2:
            inst.op = static_cast<std::uint16_t>(
                rng.chance(1, 2) ? Op::Movw : Op::Movt);
            inst.rd = reg16();
            inst.imm = rng.range(0, 0xffff);
            break;
          case 3:
            inst.op = static_cast<std::uint16_t>(Op::B);
            inst.imm = target();
            if (rng.chance(1, 2)) {
                inst.rt = 1;
                inst.cond = cond();
            }
            break;
          case 4:
            inst.op = static_cast<std::uint16_t>(Op::Bl);
            inst.imm = target();
            break;
          default:
            inst.op = static_cast<std::uint16_t>(Op::Set);
            inst.rd = reg16();
            inst.cond = cond();
            break;
        }
        break;
      }
      case Arch::Ppc32: {
        using ppc::Op;
        switch (rng.index(6)) {
          case 0: {
            static constexpr Op rrr[] = {Op::Add, Op::Subf, Op::Mullw,
                                         Op::Divw, Op::Divwu, Op::Modsw,
                                         Op::And, Op::Or, Op::Xor,
                                         Op::Slw, Op::Srw, Op::Sraw};
            inst.op = static_cast<std::uint16_t>(
                rrr[rng.index(std::size(rrr))]);
            inst.rd = reg32();
            inst.rs = reg32();
            inst.rt = reg32();
            break;
          }
          case 1: {
            static constexpr Op rimm[] = {Op::Addi, Op::Addis, Op::Lwz,
                                          Op::Stw};
            inst.op = static_cast<std::uint16_t>(
                rimm[rng.index(std::size(rimm))]);
            inst.rd = reg32();
            inst.rs = reg32();
            inst.imm = simm16();
            break;
          }
          case 2:
            inst.op = static_cast<std::uint16_t>(Op::Ori);
            inst.rd = reg32();
            inst.rs = reg32();
            inst.imm = rng.range(1, 0xffff);  // 0,0,0 is the nop encoding
            break;
          case 3:
            inst.op = static_cast<std::uint16_t>(
                rng.chance(1, 2) ? Op::B : Op::Bl);
            inst.imm = target();
            break;
          case 4:
            inst.op = static_cast<std::uint16_t>(Op::Bc);
            // PPC decoding only distinguishes signed variants + EQ/NE.
            inst.cond = rng.pick(std::vector<Cond>{Cond::EQ, Cond::NE,
                                                   Cond::LTS, Cond::LES});
            inst.imm = static_cast<std::int64_t>(addr) +
                       rng.range(-1000, 1000) * 4;
            break;
          default: {
            static constexpr Op misc[] = {Op::Cmpw, Op::Cmplw, Op::Cmpwi,
                                          Op::Mflr, Op::Mtlr};
            inst.op = static_cast<std::uint16_t>(
                misc[rng.index(std::size(misc))]);
            inst.rd = reg32();
            inst.rs = reg32();
            inst.rt = reg32();
            if (inst.op == static_cast<std::uint16_t>(Op::Cmpwi)) {
                inst.imm = simm16();
                inst.rt = 0;
                inst.rd = 0;  // compares ignore rd
            }
            if (inst.op == static_cast<std::uint16_t>(Op::Cmpw) ||
                inst.op == static_cast<std::uint16_t>(Op::Cmplw)) {
                inst.rd = 0;  // compares ignore rd
            }
            if (inst.op == static_cast<std::uint16_t>(Op::Mflr)) {
                inst.rs = 0;
                inst.rt = 0;
            }
            if (inst.op == static_cast<std::uint16_t>(Op::Mtlr)) {
                inst.rd = 0;
                inst.rt = 0;
            }
            break;
          }
        }
        break;
      }
      case Arch::X86: {
        using x86::Op;
        switch (rng.index(7)) {
          case 0: {
            static constexpr Op rr[] = {
                Op::MovRR, Op::AddRR, Op::SubRR, Op::ImulRR, Op::AndRR,
                Op::OrRR, Op::XorRR, Op::ShlRR, Op::SarRR, Op::ShrRR,
                Op::IdivRR, Op::IremRR, Op::CmpRR};
            inst.op = static_cast<std::uint16_t>(
                rr[rng.index(std::size(rr))]);
            inst.rd = reg8();
            inst.rt = reg8();
            break;
          }
          case 1: {
            static constexpr Op ri[] = {Op::MovRI, Op::AddRI, Op::SubRI,
                                        Op::AndRI, Op::OrRI, Op::XorRI,
                                        Op::ImulRI, Op::ShlRI, Op::SarRI,
                                        Op::ShrRI, Op::CmpRI};
            inst.op = static_cast<std::uint16_t>(
                ri[rng.index(std::size(ri))]);
            inst.rd = reg8();
            inst.imm = static_cast<std::int32_t>(rng.next());
            break;
          }
          case 2:
            inst.op = static_cast<std::uint16_t>(Op::Jcc);
            inst.cond = cond();
            inst.imm = target();
            break;
          case 3:
            inst.op = static_cast<std::uint16_t>(
                rng.chance(1, 2) ? Op::Jmp : Op::Call);
            inst.imm = target();
            break;
          case 4: {
            static constexpr Op mem[] = {Op::LoadRM, Op::StoreMR, Op::Lea};
            inst.op = static_cast<std::uint16_t>(
                mem[rng.index(std::size(mem))]);
            inst.rd = reg8();
            inst.rs = reg8();
            inst.imm = static_cast<std::int32_t>(rng.next());
            break;
          }
          case 5: {
            static constexpr Op un[] = {Op::Push, Op::Pop, Op::Neg,
                                        Op::Not};
            inst.op = static_cast<std::uint16_t>(
                un[rng.index(std::size(un))]);
            inst.rd = reg8();
            break;
          }
          default:
            inst.op = static_cast<std::uint16_t>(Op::Setcc);
            inst.rd = reg8();
            inst.cond = cond();
            break;
        }
        break;
      }
    }
    return inst;
}

bool
inst_equal(const MachInst &a, const MachInst &b)
{
    return a.op == b.op && a.rd == b.rd && a.rs == b.rs && a.rt == b.rt &&
           a.cond == b.cond && a.imm == b.imm;
}

class IsaRoundTrip : public ::testing::TestWithParam<Arch>
{
};

TEST_P(IsaRoundTrip, EncodeDecodeIdentity)
{
    const Arch arch = GetParam();
    const Target &target = target_for(arch);
    Rng rng(static_cast<std::uint64_t>(arch) * 7919 + 13);
    const std::uint64_t addr = 0x400100;
    for (int i = 0; i < 2000; ++i) {
        const MachInst inst = random_inst(arch, rng, addr);
        ByteBuffer bytes;
        target.encode(inst, addr, bytes);
        EXPECT_EQ(static_cast<int>(bytes.size()), target.inst_size(inst));
        auto decoded = target.decode(bytes.data(), bytes.size(), addr);
        ASSERT_TRUE(decoded.ok())
            << target.disasm(inst) << ": " << decoded.error_message();
        EXPECT_TRUE(inst_equal(inst, decoded.value().inst))
            << "in:  " << target.disasm(inst) << "\nout: "
            << target.disasm(decoded.value().inst);
        EXPECT_EQ(decoded.value().size, static_cast<int>(bytes.size()));
    }
}

TEST_P(IsaRoundTrip, DecodeRejectsTruncatedInput)
{
    const Arch arch = GetParam();
    const Target &target = target_for(arch);
    const std::uint8_t short_buf[1] = {0};
    // 0 available bytes must always fail.
    EXPECT_FALSE(target.decode(short_buf, 0, 0x400000).ok());
}

TEST_P(IsaRoundTrip, DecodeFailuresAllocateNothing)
{
    // The lifter's prologue scan decodes every unclaimed aligned text
    // address and most of those decodes fail, so a failure must not
    // build a heap string. Every byte offset of random bytes hits the
    // ISA's failure paths, truncation at the end included.
    const Arch arch = GetParam();
    const Target &target = target_for(arch);
    Rng rng(static_cast<std::uint64_t>(arch) * 104729 + 7);
    std::vector<std::uint8_t> bytes(4096);
    for (std::uint8_t &byte : bytes) {
        byte = static_cast<std::uint8_t>(rng.next());
    }
    std::size_t failures = 0;
    g_allocations = 0;
    g_count_allocations = true;
    for (std::size_t offset = 0; offset < bytes.size(); ++offset) {
        const auto decoded = target.decode(
            bytes.data() + offset, bytes.size() - offset, 0x400000 + offset);
        failures += decoded.ok() ? 0 : 1;
    }
    g_count_allocations = false;
    EXPECT_GT(failures, bytes.size() / 4);
    EXPECT_EQ(g_allocations, 0u);
    // The message is still there for whoever prints it.
    const auto empty = target.decode(bytes.data(), 0, 0x400000);
    ASSERT_FALSE(empty.ok());
    EXPECT_EQ(empty.error_code(), ErrorCode::UndecodableInsn);
    EXPECT_FALSE(empty.error_message().empty());
}

INSTANTIATE_TEST_SUITE_P(AllArches, IsaRoundTrip,
                         ::testing::ValuesIn(kAllArches),
                         [](const auto &info) {
                             return std::string(arch_name(info.param));
                         });

TEST(MipsEncoding, MatchesArchitectureManual)
{
    const Target &t = target_for(Arch::Mips32);
    // addu $t0, $s1, $s2 -> 0x02328021? Compute: op=0 rs=17 rt=18 rd=8
    // funct 0x21: 000000 10001 10010 01000 00000 100001
    ByteBuffer bytes;
    t.encode(mips::make_rrr(mips::Op::Addu, mips::T0, mips::S1, mips::S2),
             0x400000, bytes);
    ASSERT_EQ(bytes.size(), 4u);
    const std::uint32_t word = read_u32_be(bytes.data());
    EXPECT_EQ(word, 0x02324021u);
}

TEST(MipsEncoding, BranchOffsetIsRelative)
{
    const Target &t = target_for(Arch::Mips32);
    MachInst beq = mips::make_rrr(mips::Op::Beq, 0, mips::V0, mips::Zero);
    beq.imm = 0x400010;  // 4 instructions ahead of pc+4
    ByteBuffer bytes;
    t.encode(beq, 0x400000, bytes);
    const std::uint32_t word = read_u32_be(bytes.data());
    EXPECT_EQ(word & 0xffff, 3u);  // (0x400010 - 0x400004) / 4
}

TEST(MipsEncoding, NopIsAllZeros)
{
    const Target &t = target_for(Arch::Mips32);
    ByteBuffer bytes;
    t.encode(mips::make_nop(), 0x400000, bytes);
    EXPECT_EQ(read_u32_be(bytes.data()), 0u);
}

TEST(PpcEncoding, AddMatchesManual)
{
    // add r3, r4, r5: opcd 31, rt=3, ra=4, rb=5, xo=266.
    const Target &t = target_for(Arch::Ppc32);
    MachInst add;
    add.op = static_cast<std::uint16_t>(ppc::Op::Add);
    add.rd = 3;
    add.rs = 4;
    add.rt = 5;
    ByteBuffer bytes;
    t.encode(add, 0x400000, bytes);
    const std::uint32_t word = read_u32_be(bytes.data());
    EXPECT_EQ(word, (31u << 26) | (3u << 21) | (4u << 16) | (5u << 11) |
                        (266u << 1));
}

TEST(X86Encoding, VariableLength)
{
    const Target &t = target_for(Arch::X86);
    MachInst ret;
    ret.op = static_cast<std::uint16_t>(x86::Op::Ret);
    EXPECT_EQ(t.inst_size(ret), 1);

    MachInst movri;
    movri.op = static_cast<std::uint16_t>(x86::Op::MovRI);
    EXPECT_EQ(t.inst_size(movri), 6);

    MachInst movrr;
    movrr.op = static_cast<std::uint16_t>(x86::Op::MovRR);
    EXPECT_EQ(t.inst_size(movrr), 2);
}

TEST(X86Encoding, GarbageRejected)
{
    const Target &t = target_for(Arch::X86);
    const std::uint8_t garbage[8] = {0xff, 0xff, 0xff, 0xff,
                                     0xff, 0xff, 0xff, 0xff};
    EXPECT_FALSE(t.decode(garbage, sizeof(garbage), 0x400000).ok());
}

TEST(Isa, ArchNamesAndEndianness)
{
    EXPECT_STREQ(arch_name(Arch::Mips32), "mips32");
    EXPECT_TRUE(arch_is_big_endian(Arch::Mips32));
    EXPECT_TRUE(arch_is_big_endian(Arch::Ppc32));
    EXPECT_FALSE(arch_is_big_endian(Arch::Arm32));
    EXPECT_FALSE(arch_is_big_endian(Arch::X86));
}

TEST(Isa, DisasmSmoke)
{
    const Target &t = target_for(Arch::Mips32);
    EXPECT_EQ(t.disasm(mips::make_rrr(mips::Op::Addu, mips::T0, mips::S1,
                                      mips::S2)),
              "addu $t0, $s1, $s2");
    EXPECT_EQ(t.disasm(mips::make_ri(mips::Op::Lw, mips::A0, mips::Sp, 8)),
              "lw $a0, 8($sp)");
}

}  // namespace
}  // namespace firmup::isa

namespace firmup::isa {
namespace {

TEST(Abi, InvariantsHoldOnAllArches)
{
    for (Arch arch : kAllArches) {
        const AbiInfo &abi = *target_for(arch).abi;
        auto in = [](const std::vector<MReg> &pool, MReg reg) {
            return std::find(pool.begin(), pool.end(), reg) != pool.end();
        };
        // Scratch registers must not be allocatable or ABI-special.
        for (MReg scratch : {abi.scratch0, abi.scratch1}) {
            EXPECT_FALSE(in(abi.caller_saved, scratch))
                << arch_name(arch);
            EXPECT_FALSE(in(abi.callee_saved, scratch))
                << arch_name(arch);
            EXPECT_FALSE(in(abi.arg_regs, scratch)) << arch_name(arch);
            EXPECT_NE(scratch, abi.sp_reg) << arch_name(arch);
        }
        EXPECT_NE(abi.scratch0, abi.scratch1) << arch_name(arch);
        // The return and argument registers are not allocatable.
        EXPECT_FALSE(in(abi.caller_saved, abi.ret_reg))
            << arch_name(arch);
        EXPECT_FALSE(in(abi.callee_saved, abi.ret_reg))
            << arch_name(arch);
        for (MReg arg : abi.arg_regs) {
            EXPECT_FALSE(in(abi.caller_saved, arg)) << arch_name(arch);
            EXPECT_FALSE(in(abi.callee_saved, arg)) << arch_name(arch);
        }
        // The two allocation pools are disjoint and non-trivial.
        for (MReg reg : abi.caller_saved) {
            EXPECT_FALSE(in(abi.callee_saved, reg)) << arch_name(arch);
        }
        EXPECT_GE(abi.caller_saved.size() + abi.callee_saved.size(), 3u)
            << arch_name(arch);
        // Stack pointer is never allocatable.
        EXPECT_FALSE(in(abi.caller_saved, abi.sp_reg))
            << arch_name(arch);
        EXPECT_FALSE(in(abi.callee_saved, abi.sp_reg))
            << arch_name(arch);
    }
}

TEST(Disasm, NeverReturnsPlaceholderForRoundTrippedInstructions)
{
    // Whatever decodes must render as real assembly text.
    for (Arch arch : kAllArches) {
        const Target &target = target_for(arch);
        Rng rng(static_cast<std::uint64_t>(arch) + 555);
        for (int i = 0; i < 300; ++i) {
            const MachInst inst = random_inst(arch, rng, 0x400100);
            ByteBuffer bytes;
            target.encode(inst, 0x400100, bytes);
            auto decoded =
                target.decode(bytes.data(), bytes.size(), 0x400100);
            ASSERT_TRUE(decoded.ok());
            const std::string text = target.disasm(decoded.value().inst);
            EXPECT_FALSE(text.empty());
            EXPECT_EQ(text.find('?'), std::string::npos)
                << arch_name(arch) << ": " << text;
        }
    }
}

}  // namespace
}  // namespace firmup::isa
