#include "isa/x86.h"

#include "support/str.h"

namespace firmup::isa::x86 {

namespace {

/**
 * Byte-level opcode assignments. Jcc occupies 0x30..0x35 (one per Cond).
 */
struct Spec
{
    Op op;
    std::uint8_t opcode;
    bool has_mod;   ///< register byte follows
    bool has_imm;   ///< 32-bit immediate follows
};

constexpr Spec kSpecs[] = {
    {Op::MovRR, 0x01, true, false},
    {Op::MovRI, 0x02, true, true},
    {Op::AddRR, 0x03, true, false},
    {Op::SubRR, 0x04, true, false},
    {Op::ImulRR, 0x05, true, false},
    {Op::AndRR, 0x06, true, false},
    {Op::OrRR, 0x07, true, false},
    {Op::XorRR, 0x08, true, false},
    {Op::ShlRR, 0x09, true, false},
    {Op::SarRR, 0x0a, true, false},
    {Op::ShrRR, 0x0b, true, false},
    {Op::IdivRR, 0x0c, true, false},
    {Op::IremRR, 0x0d, true, false},
    {Op::Neg, 0x0e, true, false},
    {Op::Not, 0x0f, true, false},
    {Op::AddRI, 0x10, true, true},
    {Op::SubRI, 0x11, true, true},
    {Op::AndRI, 0x12, true, true},
    {Op::OrRI, 0x13, true, true},
    {Op::XorRI, 0x14, true, true},
    {Op::ImulRI, 0x15, true, true},
    {Op::ShlRI, 0x16, true, true},
    {Op::SarRI, 0x17, true, true},
    {Op::ShrRI, 0x18, true, true},
    {Op::CmpRR, 0x20, true, false},
    {Op::CmpRI, 0x21, true, true},
    // Jcc: 0x30 + static_cast<int>(cond), no mod byte, rel32.
    {Op::Jmp, 0x3f, false, true},
    {Op::Call, 0x40, false, true},
    {Op::Ret, 0x41, false, false},
    {Op::Push, 0x42, true, false},
    {Op::Pop, 0x43, true, false},
    {Op::LoadRM, 0x44, true, true},
    {Op::StoreMR, 0x45, true, true},
    {Op::Lea, 0x46, true, true},
    {Op::Setcc, 0x47, true, false},
    {Op::Nop, 0x50, false, false},
};

const Spec *
spec_for(Op op)
{
    for (const Spec &s : kSpecs) {
        if (s.op == op) {
            return &s;
        }
    }
    return nullptr;
}

const Spec *
spec_for_opcode(std::uint8_t opcode)
{
    for (const Spec &s : kSpecs) {
        if (s.opcode == opcode) {
            return &s;
        }
    }
    return nullptr;
}

bool
is_pc_relative(Op op)
{
    return op == Op::Jcc || op == Op::Jmp || op == Op::Call;
}

const char *kRegNames[8] = {
    "eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi",
};

}  // namespace

const AbiInfo &
abi()
{
    static const AbiInfo info = [] {
        AbiInfo a;
        a.arg_regs = {};  // stack-passed (cdecl)
        a.ret_reg = Eax;
        a.sp_reg = Esp;
        a.fp_reg = Ebp;
        a.has_link_reg = false;
        a.caller_saved = {Edx};
        a.callee_saved = {Ebx, Esi, Edi};
        a.scratch0 = Eax;
        a.scratch1 = Ecx;
        return a;
    }();
    return info;
}

int
inst_size(const MachInst &inst)
{
    const auto op = static_cast<Op>(inst.op);
    if (op == Op::Jcc) {
        return 5;
    }
    const Spec *spec = spec_for(op);
    FIRMUP_ASSERT(spec != nullptr, "x86: unknown op");
    return 1 + (spec->has_mod ? 1 : 0) + (spec->has_imm ? 4 : 0);
}

void
encode(const MachInst &inst, std::uint64_t addr, ByteBuffer &out)
{
    const auto op = static_cast<Op>(inst.op);
    if (op == Op::Jcc) {
        append_u8(out, static_cast<std::uint8_t>(
                           0x30 + static_cast<int>(inst.cond)));
        const auto rel = inst.imm - (static_cast<std::int64_t>(addr) + 5);
        append_u32_le(out, static_cast<std::uint32_t>(rel));
        return;
    }
    const Spec *spec = spec_for(op);
    FIRMUP_ASSERT(spec != nullptr, "x86: unknown op");
    append_u8(out, spec->opcode);
    if (spec->has_mod) {
        std::uint8_t mod = static_cast<std::uint8_t>((inst.rd & 15) << 4);
        if (op == Op::Setcc) {
            mod |= static_cast<std::uint8_t>(inst.cond) & 15;
        } else if (op == Op::LoadRM || op == Op::StoreMR ||
                   op == Op::Lea) {
            mod |= inst.rs & 15;
        } else {
            mod |= inst.rt & 15;
        }
        append_u8(out, mod);
    }
    if (spec->has_imm) {
        std::int64_t value = inst.imm;
        if (is_pc_relative(op)) {
            value -= static_cast<std::int64_t>(addr) + inst_size(inst);
        }
        append_u32_le(out, static_cast<std::uint32_t>(value));
    }
}

Result<Decoded>
decode(const std::uint8_t *p, std::size_t avail, std::uint64_t addr)
{
    if (avail < 1) {
        return decode_error("x86: empty input");
    }
    const std::uint8_t opcode = p[0];
    MachInst inst;

    if (opcode >= 0x30 && opcode <= 0x35) {
        if (avail < 5) {
            return decode_error("x86: truncated jcc");
        }
        inst.op = static_cast<std::uint16_t>(Op::Jcc);
        inst.cond = static_cast<Cond>(opcode - 0x30);
        const auto rel = static_cast<std::int32_t>(read_u32_le(p + 1));
        inst.imm = static_cast<std::int64_t>(addr) + 5 + rel;
        return Decoded{inst, 5};
    }
    const Spec *spec = spec_for_opcode(opcode);
    if (spec == nullptr) {
        return decode_error("x86: unknown opcode");
    }
    const int size = 1 + (spec->has_mod ? 1 : 0) + (spec->has_imm ? 4 : 0);
    if (avail < static_cast<std::size_t>(size)) {
        return decode_error("x86: truncated instruction");
    }
    inst.op = static_cast<std::uint16_t>(spec->op);
    int offset = 1;
    if (spec->has_mod) {
        const std::uint8_t mod = p[offset++];
        inst.rd = static_cast<MReg>(mod >> 4);
        const auto low = static_cast<std::uint8_t>(mod & 15);
        if (spec->op == Op::Setcc) {
            if (low > static_cast<std::uint8_t>(Cond::LEU)) {
                return decode_error("x86: bad setcc cond");
            }
            inst.cond = static_cast<Cond>(low);
        } else if (spec->op == Op::LoadRM || spec->op == Op::StoreMR ||
                   spec->op == Op::Lea) {
            inst.rs = low;
        } else {
            inst.rt = low;
        }
        if (inst.rd > 7 || inst.rs > 7 || inst.rt > 7) {
            return decode_error("x86: bad register");
        }
    }
    if (spec->has_imm) {
        const auto raw = static_cast<std::int32_t>(read_u32_le(p + offset));
        if (is_pc_relative(spec->op)) {
            inst.imm = static_cast<std::int64_t>(addr) + size + raw;
        } else {
            inst.imm = raw;
        }
    }
    return Decoded{inst, size};
}

const char *
reg_name(MReg reg)
{
    return reg < 8 ? kRegNames[reg] : "?";
}

std::string
disasm(const MachInst &inst)
{
    const auto op = static_cast<Op>(inst.op);
    const char *rd = reg_name(inst.rd);
    const char *rs = reg_name(inst.rs);
    const char *rt = reg_name(inst.rt);
    const long long imm = inst.imm;
    switch (op) {
      case Op::MovRR: return strprintf("mov %s, %s", rd, rt);
      case Op::MovRI: return strprintf("mov %s, %lld", rd, imm);
      case Op::AddRR: return strprintf("add %s, %s", rd, rt);
      case Op::SubRR: return strprintf("sub %s, %s", rd, rt);
      case Op::ImulRR: return strprintf("imul %s, %s", rd, rt);
      case Op::AndRR: return strprintf("and %s, %s", rd, rt);
      case Op::OrRR: return strprintf("or %s, %s", rd, rt);
      case Op::XorRR: return strprintf("xor %s, %s", rd, rt);
      case Op::ShlRR: return strprintf("shl %s, %s", rd, rt);
      case Op::SarRR: return strprintf("sar %s, %s", rd, rt);
      case Op::ShrRR: return strprintf("shr %s, %s", rd, rt);
      case Op::IdivRR: return strprintf("idiv %s, %s", rd, rt);
      case Op::IremRR: return strprintf("irem %s, %s", rd, rt);
      case Op::AddRI: return strprintf("add %s, %lld", rd, imm);
      case Op::SubRI: return strprintf("sub %s, %lld", rd, imm);
      case Op::AndRI: return strprintf("and %s, %lld", rd, imm);
      case Op::OrRI: return strprintf("or %s, %lld", rd, imm);
      case Op::XorRI: return strprintf("xor %s, %lld", rd, imm);
      case Op::ImulRI: return strprintf("imul %s, %lld", rd, imm);
      case Op::ShlRI: return strprintf("shl %s, %lld", rd, imm);
      case Op::SarRI: return strprintf("sar %s, %lld", rd, imm);
      case Op::ShrRI: return strprintf("shr %s, %lld", rd, imm);
      case Op::CmpRR: return strprintf("cmp %s, %s", rd, rt);
      case Op::CmpRI: return strprintf("cmp %s, %lld", rd, imm);
      case Op::Jcc:
        return strprintf("j%s 0x%llx", cond_name(inst.cond), imm);
      case Op::Jmp: return strprintf("jmp 0x%llx", imm);
      case Op::Call: return strprintf("call 0x%llx", imm);
      case Op::Ret: return "ret";
      case Op::Push: return strprintf("push %s", rd);
      case Op::Pop: return strprintf("pop %s", rd);
      case Op::LoadRM:
        return strprintf("mov %s, [%s%+lld]", rd, rs, imm);
      case Op::StoreMR:
        return strprintf("mov [%s%+lld], %s", rs, imm, rd);
      case Op::Lea: return strprintf("lea %s, [%s%+lld]", rd, rs, imm);
      case Op::Setcc:
        return strprintf("set%s %s", cond_name(inst.cond), rd);
      case Op::Neg: return strprintf("neg %s", rd);
      case Op::Not: return strprintf("not %s", rd);
      case Op::Nop: return "nop";
    }
    return "?";
}

}  // namespace firmup::isa::x86
