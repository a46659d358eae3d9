#include "isa/arm.h"

#include "support/str.h"

namespace firmup::isa::arm {

namespace {

constexpr std::uint32_t kCondAl = 14;

/** Our Cond enum <-> ARM condition-field values. */
std::uint32_t
cond_field(Cond cond)
{
    switch (cond) {
      case Cond::EQ: return 0;
      case Cond::NE: return 1;
      case Cond::LTU: return 3;   // CC/LO
      case Cond::LEU: return 9;   // LS
      case Cond::LTS: return 11;  // LT
      case Cond::LES: return 13;  // LE
    }
    return kCondAl;
}

bool
cond_from_field(std::uint32_t field, Cond &out)
{
    switch (field) {
      case 0: out = Cond::EQ; return true;
      case 1: out = Cond::NE; return true;
      case 3: out = Cond::LTU; return true;
      case 9: out = Cond::LEU; return true;
      case 11: out = Cond::LTS; return true;
      case 13: out = Cond::LES; return true;
      default: return false;
    }
}

constexpr std::uint16_t kMaxOp = static_cast<std::uint16_t>(Op::Set);

const char *kRegNames[16] = {
    "r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7",
    "r8", "r9", "r10", "r11", "r12", "sp", "lr", "pc",
};

bool
is_reg_form(Op op)
{
    switch (op) {
      case Op::Add:
      case Op::Sub:
      case Op::Mul:
      case Op::And:
      case Op::Orr:
      case Op::Eor:
      case Op::Lsl:
      case Op::Lsr:
      case Op::Asr:
      case Op::Sdiv:
      case Op::Srem:
        return true;
      default:
        return false;
    }
}

bool
is_imm12_form(Op op)
{
    switch (op) {
      case Op::MovImm:
      case Op::AddImm:
      case Op::SubImm:
      case Op::LslImm:
      case Op::LsrImm:
      case Op::AsrImm:
      case Op::CmpImm:
      case Op::Ldr:
      case Op::Str:
        return true;
      default:
        return false;
    }
}

}  // namespace

const AbiInfo &
abi()
{
    static const AbiInfo info = [] {
        AbiInfo a;
        a.arg_regs = {R0, R1, R2, R3};
        a.ret_reg = R0;
        a.sp_reg = Sp;
        a.fp_reg = Sp;
        a.has_link_reg = true;
        a.link_reg = Lr;
        a.caller_saved = {};  // r0-r3 are args; r12 is scratch
        a.callee_saved = {R4, R5, R6, R7, R8, R9, R10};
        a.scratch0 = R11;
        a.scratch1 = R12;
        return a;
    }();
    return info;
}

int
inst_size(const MachInst &)
{
    return kInstBytes;
}

void
encode(const MachInst &inst, std::uint64_t addr, ByteBuffer &out)
{
    const auto op = static_cast<Op>(inst.op);
    std::uint32_t cond = kCondAl;
    std::uint32_t opnd = 0;
    std::uint32_t rd = inst.rd & 15;
    std::uint32_t rn = inst.rs & 15;

    switch (op) {
      case Op::B:
      case Op::Bl: {
        // Unconditional B uses AL; conditional B encodes Cond.
        if (op == Op::B && inst.rt == 1) {  // rt==1 marks "conditional"
            cond = cond_field(inst.cond);
        }
        const auto delta =
            (inst.imm - (static_cast<std::int64_t>(addr) + 4)) >> 2;
        // Signed 20-bit word offset (the op field occupies [27:20]).
        const std::uint32_t word =
            (cond << 28) | (static_cast<std::uint32_t>(op) << 20) |
            (static_cast<std::uint32_t>(delta) & 0xfffff);
        append_u32_le(out, word);
        return;
      }
      case Op::Set:
        cond = cond_field(inst.cond);
        break;
      case Op::Movw:
      case Op::Movt:
        opnd = static_cast<std::uint32_t>(inst.imm) & 0xffff;
        // imm16 occupies [15:0]; rn field is its upper nibble.
        rn = (opnd >> 12) & 15;
        opnd &= 0xfff;
        break;
      default:
        if (is_reg_form(op) || op == Op::MovReg || op == Op::Cmp) {
            opnd = inst.rt & 15;
            if (op == Op::Cmp) {
                rn = inst.rs & 15;
                rd = 0;
            }
        } else if (is_imm12_form(op)) {
            opnd = static_cast<std::uint32_t>(inst.imm) & 0xfff;
        }
        break;
    }
    const std::uint32_t word = (cond << 28) |
                               (static_cast<std::uint32_t>(op) << 20) |
                               (rd << 16) | (rn << 12) | opnd;
    append_u32_le(out, word);
}

Result<Decoded>
decode(const std::uint8_t *p, std::size_t avail, std::uint64_t addr)
{
    if (avail < 4) {
        return decode_error("arm: truncated instruction");
    }
    const std::uint32_t word = read_u32_le(p);
    const std::uint32_t cond = word >> 28;
    const std::uint32_t op_field = (word >> 20) & 0xff;
    if (op_field > kMaxOp) {
        return decode_error("arm: unknown opcode");
    }
    const auto op = static_cast<Op>(op_field);
    MachInst inst;
    inst.op = static_cast<std::uint16_t>(op_field);
    const auto rd = static_cast<MReg>((word >> 16) & 15);
    const auto rn = static_cast<MReg>((word >> 12) & 15);
    const std::uint32_t opnd = word & 0xfff;

    switch (op) {
      case Op::B:
      case Op::Bl: {
        auto delta =
            static_cast<std::int32_t>((word & 0xfffff) << 12) >> 12;
        inst.imm = static_cast<std::int64_t>(addr) + 4 +
                   (static_cast<std::int64_t>(delta) << 2);
        if (op == Op::B && cond != kCondAl) {
            if (!cond_from_field(cond, inst.cond)) {
                return decode_error("arm: bad condition");
            }
            inst.rt = 1;  // conditional marker
        }
        return Decoded{inst, 4};
      }
      case Op::Set:
        if (!cond_from_field(cond, inst.cond)) {
            return decode_error("arm: bad set condition");
        }
        inst.rd = rd;
        return Decoded{inst, 4};
      case Op::Movw:
      case Op::Movt:
        inst.rd = rd;
        inst.imm = ((word >> 12) & 15) << 12 | opnd;
        return Decoded{inst, 4};
      default:
        if (cond != kCondAl) {
            return decode_error("arm: unexpected condition");
        }
        inst.rd = rd;
        inst.rs = rn;
        if (is_reg_form(op) || op == Op::MovReg || op == Op::Cmp) {
            inst.rt = static_cast<MReg>(opnd & 15);
        } else if (is_imm12_form(op)) {
            inst.imm = static_cast<std::int32_t>(opnd << 20) >> 20;
        }
        if (op == Op::Cmp) {
            inst.rd = 0;
        }
        return Decoded{inst, 4};
    }
}

const char *
reg_name(MReg reg)
{
    return reg < 16 ? kRegNames[reg] : "?";
}

std::string
disasm(const MachInst &inst)
{
    const auto op = static_cast<Op>(inst.op);
    const char *rd = reg_name(inst.rd);
    const char *rn = reg_name(inst.rs);
    const char *rm = reg_name(inst.rt);
    const long long imm = inst.imm;
    switch (op) {
      case Op::Nop: return "nop";
      case Op::MovReg: return strprintf("mov %s, %s", rd, rm);
      case Op::MovImm: return strprintf("mov %s, #%lld", rd, imm);
      case Op::Movw: return strprintf("movw %s, #0x%llx", rd, imm);
      case Op::Movt: return strprintf("movt %s, #0x%llx", rd, imm);
      case Op::Add: return strprintf("add %s, %s, %s", rd, rn, rm);
      case Op::AddImm: return strprintf("add %s, %s, #%lld", rd, rn, imm);
      case Op::Sub: return strprintf("sub %s, %s, %s", rd, rn, rm);
      case Op::SubImm: return strprintf("sub %s, %s, #%lld", rd, rn, imm);
      case Op::Mul: return strprintf("mul %s, %s, %s", rd, rn, rm);
      case Op::And: return strprintf("and %s, %s, %s", rd, rn, rm);
      case Op::Orr: return strprintf("orr %s, %s, %s", rd, rn, rm);
      case Op::Eor: return strprintf("eor %s, %s, %s", rd, rn, rm);
      case Op::Lsl: return strprintf("lsl %s, %s, %s", rd, rn, rm);
      case Op::Lsr: return strprintf("lsr %s, %s, %s", rd, rn, rm);
      case Op::Asr: return strprintf("asr %s, %s, %s", rd, rn, rm);
      case Op::LslImm: return strprintf("lsl %s, %s, #%lld", rd, rn, imm);
      case Op::LsrImm: return strprintf("lsr %s, %s, #%lld", rd, rn, imm);
      case Op::AsrImm: return strprintf("asr %s, %s, #%lld", rd, rn, imm);
      case Op::Sdiv: return strprintf("sdiv %s, %s, %s", rd, rn, rm);
      case Op::Srem: return strprintf("srem %s, %s, %s", rd, rn, rm);
      case Op::Cmp: return strprintf("cmp %s, %s", rn, rm);
      case Op::CmpImm: return strprintf("cmp %s, #%lld", rn, imm);
      case Op::Ldr: return strprintf("ldr %s, [%s, #%lld]", rd, rn, imm);
      case Op::Str: return strprintf("str %s, [%s, #%lld]", rd, rn, imm);
      case Op::B:
        return inst.rt == 1
                   ? strprintf("b%s 0x%llx", cond_name(inst.cond), imm)
                   : strprintf("b 0x%llx", imm);
      case Op::Bl: return strprintf("bl 0x%llx", imm);
      case Op::BxLr: return "bx lr";
      case Op::Set:
        return strprintf("set%s %s", cond_name(inst.cond), rd);
    }
    return "?";
}

}  // namespace firmup::isa::arm
