#include "isa/mips.h"

#include "support/str.h"

namespace firmup::isa::mips {

namespace {

constexpr std::uint32_t kOpSpecial = 0x00;
constexpr std::uint32_t kOpSpecial2 = 0x1c;

struct RSpec
{
    Op op;
    std::uint32_t opcode;  ///< major opcode
    std::uint32_t funct;
    std::uint32_t shamt;   ///< fixed shamt discriminator (R6 div/mod)
};

// Three-register ALU operations, bit layout per the real ISA.
constexpr RSpec kRSpecs[] = {
    {Op::Addu, kOpSpecial, 0x21, 0},
    {Op::Subu, kOpSpecial, 0x23, 0},
    {Op::And, kOpSpecial, 0x24, 0},
    {Op::Or, kOpSpecial, 0x25, 0},
    {Op::Xor, kOpSpecial, 0x26, 0},
    {Op::Slt, kOpSpecial, 0x2a, 0},
    {Op::Sltu, kOpSpecial, 0x2b, 0},
    {Op::Sllv, kOpSpecial, 0x04, 0},
    {Op::Srlv, kOpSpecial, 0x06, 0},
    {Op::Srav, kOpSpecial, 0x07, 0},
    {Op::Mul, kOpSpecial2, 0x02, 0},
    {Op::Div, kOpSpecial, 0x1a, 2},   // MIPS32r6 DIV
    {Op::Mod, kOpSpecial, 0x1a, 3},   // MIPS32r6 MOD
    {Op::Divu, kOpSpecial, 0x1b, 2},  // MIPS32r6 DIVU
};

struct ISpec
{
    Op op;
    std::uint32_t opcode;
};

constexpr ISpec kISpecs[] = {
    {Op::Addiu, 0x09}, {Op::Slti, 0x0a}, {Op::Sltiu, 0x0b},
    {Op::Andi, 0x0c}, {Op::Ori, 0x0d}, {Op::Xori, 0x0e},
    {Op::Lui, 0x0f}, {Op::Lw, 0x23}, {Op::Sw, 0x2b},
    {Op::Beq, 0x04}, {Op::Bne, 0x05},
};

constexpr struct { Op op; std::uint32_t funct; } kShiftSpecs[] = {
    {Op::Sll, 0x00}, {Op::Srl, 0x02}, {Op::Sra, 0x03},
};

const char *kRegNames[32] = {
    "zero", "at", "v0", "v1", "a0", "a1", "a2", "a3",
    "t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7",
    "s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7",
    "t8", "t9", "k0", "k1", "gp", "sp", "fp", "ra",
};

std::uint32_t
r_word(std::uint32_t opcode, std::uint32_t rs, std::uint32_t rt,
       std::uint32_t rd, std::uint32_t shamt, std::uint32_t funct)
{
    return (opcode << 26) | (rs << 21) | (rt << 16) | (rd << 11) |
           (shamt << 6) | funct;
}

std::uint32_t
i_word(std::uint32_t opcode, std::uint32_t rs, std::uint32_t rt,
       std::uint32_t imm16)
{
    return (opcode << 26) | (rs << 21) | (rt << 16) | (imm16 & 0xffff);
}

}  // namespace

const AbiInfo &
abi()
{
    static const AbiInfo info = [] {
        AbiInfo a;
        a.arg_regs = {A0, A1, A2, A3};
        a.ret_reg = V0;
        a.sp_reg = Sp;
        a.fp_reg = Sp;
        a.has_link_reg = true;
        a.link_reg = Ra;
        // $t9 is reserved as the PIC call-target register.
        a.caller_saved = {T0, T1, T2, T3, T4, T5, T6, T7, T8};
        a.callee_saved = {S0, S1, S2, S3, S4, S5, S6, S7};
        a.scratch0 = At;
        a.scratch1 = V1;
        return a;
    }();
    return info;
}

int
inst_size(const MachInst &)
{
    return kInstBytes;
}

bool
has_delay_slot(Op op)
{
    switch (op) {
      case Op::Beq:
      case Op::Bne:
      case Op::J:
      case Op::Jal:
      case Op::Jr:
      case Op::Jalr:
        return true;
      default:
        return false;
    }
}

void
encode(const MachInst &inst, std::uint64_t addr, ByteBuffer &out)
{
    const auto op = static_cast<Op>(inst.op);
    std::uint32_t word = 0;
    switch (op) {
      case Op::Nop:
        word = 0;
        break;
      case Op::Sll:
      case Op::Srl:
      case Op::Sra: {
        std::uint32_t funct = 0;
        for (const auto &spec : kShiftSpecs) {
            if (spec.op == op) {
                funct = spec.funct;
            }
        }
        // sll rd, rt, shamt — value register lives in the rt field.
        word = r_word(kOpSpecial, 0, inst.rs, inst.rd,
                      static_cast<std::uint32_t>(inst.imm) & 31, funct);
        break;
      }
      case Op::Sllv:
      case Op::Srlv:
      case Op::Srav: {
        std::uint32_t funct = 0;
        for (const auto &spec : kRSpecs) {
            if (spec.op == op) {
                funct = spec.funct;
            }
        }
        // sllv rd, rt, rs — value in rt field, amount in rs field; our
        // convention is rd = rs(value) OP rt(amount).
        word = r_word(kOpSpecial, inst.rt, inst.rs, inst.rd, 0, funct);
        break;
      }
      case Op::J:
      case Op::Jal:
        word = ((op == Op::J ? 0x02u : 0x03u) << 26) |
               ((static_cast<std::uint32_t>(inst.imm) >> 2) & 0x3ffffff);
        break;
      case Op::Jr:
        word = r_word(kOpSpecial, inst.rs, 0, 0, 0, 0x08);
        break;
      case Op::Jalr:
        word = r_word(kOpSpecial, inst.rs, 0, Ra, 0, 0x09);
        break;
      case Op::Beq:
      case Op::Bne: {
        const auto target = static_cast<std::int64_t>(inst.imm);
        const auto delta = (target - (static_cast<std::int64_t>(addr) + 4))
                           >> 2;
        word = i_word(op == Op::Beq ? 0x04 : 0x05, inst.rs, inst.rt,
                      static_cast<std::uint32_t>(delta));
        break;
      }
      case Op::Lui:
        word = i_word(0x0f, 0, inst.rd,
                      static_cast<std::uint32_t>(inst.imm));
        break;
      case Op::Lw:
      case Op::Sw:
        // lw rt, imm(rs) — data register in the rt field.
        word = i_word(op == Op::Lw ? 0x23 : 0x2b, inst.rs, inst.rd,
                      static_cast<std::uint32_t>(inst.imm));
        break;
      default: {
        for (const auto &spec : kRSpecs) {
            if (spec.op == op) {
                word = r_word(spec.opcode, inst.rs, inst.rt, inst.rd,
                              spec.shamt, spec.funct);
                append_u32_be(out, word);
                return;
            }
        }
        for (const auto &spec : kISpecs) {
            if (spec.op == op) {
                // op rt, rs, imm — destination in the rt field.
                word = i_word(spec.opcode, inst.rs, inst.rd,
                              static_cast<std::uint32_t>(inst.imm));
                append_u32_be(out, word);
                return;
            }
        }
        FIRMUP_ASSERT(false, "unencodable MIPS op");
      }
    }
    append_u32_be(out, word);
}

Result<Decoded>
decode(const std::uint8_t *p, std::size_t avail, std::uint64_t addr)
{
    if (avail < 4) {
        return decode_error("mips: truncated instruction");
    }
    const std::uint32_t word = read_u32_be(p);
    MachInst inst;
    const std::uint32_t opcode = word >> 26;
    const auto rs = static_cast<MReg>((word >> 21) & 31);
    const auto rt = static_cast<MReg>((word >> 16) & 31);
    const auto rd = static_cast<MReg>((word >> 11) & 31);
    const std::uint32_t shamt = (word >> 6) & 31;
    const std::uint32_t funct = word & 0x3f;
    const auto simm16 = static_cast<std::int16_t>(word & 0xffff);

    if (word == 0) {
        inst.op = static_cast<std::uint16_t>(Op::Nop);
        return Decoded{inst, 4};
    }
    if (opcode == kOpSpecial || opcode == kOpSpecial2) {
        if (opcode == kOpSpecial && funct == 0x08) {
            inst.op = static_cast<std::uint16_t>(Op::Jr);
            inst.rs = rs;
            return Decoded{inst, 4};
        }
        if (opcode == kOpSpecial && funct == 0x09) {
            inst.op = static_cast<std::uint16_t>(Op::Jalr);
            inst.rs = rs;
            inst.rd = rd;
            return Decoded{inst, 4};
        }
        for (const auto &spec : kShiftSpecs) {
            if (opcode == kOpSpecial && funct == spec.funct && rs == 0 &&
                !(spec.op == Op::Sll && word == 0)) {
                inst.op = static_cast<std::uint16_t>(spec.op);
                inst.rd = rd;
                inst.rs = rt;  // value register
                inst.imm = shamt;
                return Decoded{inst, 4};
            }
        }
        for (const auto &spec : kRSpecs) {
            if (opcode == spec.opcode && funct == spec.funct &&
                (spec.funct != 0x1a && spec.funct != 0x1b
                     ? true : shamt == spec.shamt)) {
                inst.op = static_cast<std::uint16_t>(spec.op);
                if (spec.op == Op::Sllv || spec.op == Op::Srlv ||
                    spec.op == Op::Srav) {
                    inst.rd = rd;
                    inst.rs = rt;  // value
                    inst.rt = rs;  // amount
                } else {
                    inst.rd = rd;
                    inst.rs = rs;
                    inst.rt = rt;
                }
                return Decoded{inst, 4};
            }
        }
        return decode_error("mips: unknown SPECIAL funct");
    }
    if (opcode == 0x02 || opcode == 0x03) {
        inst.op = static_cast<std::uint16_t>(opcode == 0x02 ? Op::J
                                                            : Op::Jal);
        inst.imm = static_cast<std::int64_t>(
            ((addr + 4) & 0xf0000000ull) | ((word & 0x3ffffff) << 2));
        return Decoded{inst, 4};
    }
    for (const auto &spec : kISpecs) {
        if (opcode != spec.opcode) {
            continue;
        }
        inst.op = static_cast<std::uint16_t>(spec.op);
        switch (spec.op) {
          case Op::Beq:
          case Op::Bne:
            inst.rs = rs;
            inst.rt = rt;
            inst.imm = static_cast<std::int64_t>(addr) + 4 +
                       (static_cast<std::int64_t>(simm16) << 2);
            break;
          case Op::Lui:
            inst.rd = rt;
            inst.imm = word & 0xffff;
            break;
          case Op::Andi:
          case Op::Ori:
          case Op::Xori:
            inst.rd = rt;
            inst.rs = rs;
            inst.imm = word & 0xffff;  // zero-extended
            break;
          default:
            inst.rd = rt;
            inst.rs = rs;
            inst.imm = simm16;
            break;
        }
        return Decoded{inst, 4};
    }
    return decode_error("mips: unknown opcode");
}

const char *
reg_name(MReg reg)
{
    return reg < 32 ? kRegNames[reg] : "?";
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
      case Op::Nop: return "nop";
      case Op::Lui: return strprintf("lui $%s, 0x%llx", rd, imm);
      case Op::Ori: return strprintf("ori $%s, $%s, 0x%llx", rd, rs, imm);
      case Op::Addiu: return strprintf("addiu $%s, $%s, %lld", rd, rs, imm);
      case Op::Slti: return strprintf("slti $%s, $%s, %lld", rd, rs, imm);
      case Op::Sltiu:
        return strprintf("sltiu $%s, $%s, %lld", rd, rs, imm);
      case Op::Andi: return strprintf("andi $%s, $%s, 0x%llx", rd, rs, imm);
      case Op::Xori: return strprintf("xori $%s, $%s, 0x%llx", rd, rs, imm);
      case Op::Lw: return strprintf("lw $%s, %lld($%s)", rd, imm, rs);
      case Op::Sw: return strprintf("sw $%s, %lld($%s)", rd, imm, rs);
      case Op::Beq:
        return strprintf("beq $%s, $%s, 0x%llx", rs, rt, imm);
      case Op::Bne:
        return strprintf("bne $%s, $%s, 0x%llx", rs, rt, imm);
      case Op::Sll: return strprintf("sll $%s, $%s, %lld", rd, rs, imm);
      case Op::Srl: return strprintf("srl $%s, $%s, %lld", rd, rs, imm);
      case Op::Sra: return strprintf("sra $%s, $%s, %lld", rd, rs, imm);
      case Op::J: return strprintf("j 0x%llx", imm);
      case Op::Jal: return strprintf("jal 0x%llx", imm);
      case Op::Jr: return strprintf("jr $%s", rs);
      case Op::Jalr: return strprintf("jalr $%s", rs);
      case Op::Addu: return strprintf("addu $%s, $%s, $%s", rd, rs, rt);
      case Op::Subu: return strprintf("subu $%s, $%s, $%s", rd, rs, rt);
      case Op::Mul: return strprintf("mul $%s, $%s, $%s", rd, rs, rt);
      case Op::Div: return strprintf("div $%s, $%s, $%s", rd, rs, rt);
      case Op::Mod: return strprintf("mod $%s, $%s, $%s", rd, rs, rt);
      case Op::Divu: return strprintf("divu $%s, $%s, $%s", rd, rs, rt);
      case Op::And: return strprintf("and $%s, $%s, $%s", rd, rs, rt);
      case Op::Or: return strprintf("or $%s, $%s, $%s", rd, rs, rt);
      case Op::Xor: return strprintf("xor $%s, $%s, $%s", rd, rs, rt);
      case Op::Sllv: return strprintf("sllv $%s, $%s, $%s", rd, rs, rt);
      case Op::Srlv: return strprintf("srlv $%s, $%s, $%s", rd, rs, rt);
      case Op::Srav: return strprintf("srav $%s, $%s, $%s", rd, rs, rt);
      case Op::Slt: return strprintf("slt $%s, $%s, $%s", rd, rs, rt);
      case Op::Sltu: return strprintf("sltu $%s, $%s, $%s", rd, rs, rt);
    }
    return "?";
}

MachInst
make_rrr(Op op, MReg rd, MReg rs, MReg rt)
{
    MachInst inst;
    inst.op = static_cast<std::uint16_t>(op);
    inst.rd = rd;
    inst.rs = rs;
    inst.rt = rt;
    return inst;
}

MachInst
make_ri(Op op, MReg rd, MReg rs, std::int32_t imm)
{
    MachInst inst;
    inst.op = static_cast<std::uint16_t>(op);
    inst.rd = rd;
    inst.rs = rs;
    inst.imm = imm;
    return inst;
}

MachInst
make_nop()
{
    MachInst inst;
    inst.op = static_cast<std::uint16_t>(Op::Nop);
    return inst;
}

}  // namespace firmup::isa::mips
