#include "isa/ppc.h"

#include "support/str.h"

namespace firmup::isa::ppc {

namespace {

constexpr std::uint32_t kNopWord = 24u << 26;  // ori r0, r0, 0

// cr0 bit indexes.
constexpr std::uint32_t kCrLt = 0;
constexpr std::uint32_t kCrGt = 1;
constexpr std::uint32_t kCrEq = 2;

/**
 * Map Cond to (BI, branch-if-true). Signed/unsigned share bit patterns;
 * the preceding cmpw vs cmplw decides signedness (the lifter tracks it).
 */
void
cond_to_bits(Cond cond, std::uint32_t &bi, bool &if_true)
{
    switch (cond) {
      case Cond::EQ: bi = kCrEq; if_true = true; break;
      case Cond::NE: bi = kCrEq; if_true = false; break;
      case Cond::LTS:
      case Cond::LTU: bi = kCrLt; if_true = true; break;
      case Cond::LES:
      case Cond::LEU: bi = kCrGt; if_true = false; break;
    }
}

/** Reverse mapping; always yields the signed variant. */
bool
cond_from_bits(std::uint32_t bi, bool if_true, Cond &out)
{
    if (bi == kCrEq) {
        out = if_true ? Cond::EQ : Cond::NE;
        return true;
    }
    if (bi == kCrLt && if_true) {
        out = Cond::LTS;
        return true;
    }
    if (bi == kCrGt && !if_true) {
        out = Cond::LES;
        return true;
    }
    return false;
}

struct XoSpec
{
    Op op;
    std::uint32_t xo;
    enum class Form { DestRt, DestRa, Cmp } form;
};

constexpr XoSpec kXoSpecs[] = {
    {Op::Add, 266, XoSpec::Form::DestRt},
    {Op::Subf, 40, XoSpec::Form::DestRt},
    {Op::Mullw, 235, XoSpec::Form::DestRt},
    {Op::Divw, 491, XoSpec::Form::DestRt},
    {Op::Divwu, 459, XoSpec::Form::DestRt},
    {Op::Modsw, 779, XoSpec::Form::DestRt},
    {Op::And, 28, XoSpec::Form::DestRa},
    {Op::Or, 444, XoSpec::Form::DestRa},
    {Op::Xor, 316, XoSpec::Form::DestRa},
    {Op::Slw, 24, XoSpec::Form::DestRa},
    {Op::Srw, 536, XoSpec::Form::DestRa},
    {Op::Sraw, 792, XoSpec::Form::DestRa},
    {Op::Cmpw, 0, XoSpec::Form::Cmp},
    {Op::Cmplw, 32, XoSpec::Form::Cmp},
};

std::uint32_t
word_xo(std::uint32_t rt, std::uint32_t ra, std::uint32_t rb,
        std::uint32_t xo)
{
    return (31u << 26) | (rt << 21) | (ra << 16) | (rb << 11) | (xo << 1);
}

std::uint32_t
word_d(std::uint32_t opcd, std::uint32_t rt, std::uint32_t ra,
       std::uint32_t imm16)
{
    return (opcd << 26) | (rt << 21) | (ra << 16) | (imm16 & 0xffff);
}

}  // namespace

const AbiInfo &
abi()
{
    static const AbiInfo info = [] {
        AbiInfo a;
        a.arg_regs = {R3, R4, R5, R6};
        a.ret_reg = R3;
        a.sp_reg = R1;
        a.fp_reg = R1;
        a.has_link_reg = true;
        a.link_reg = 0;  // LR is a special register, not a GPR
        a.caller_saved = {R7, R8, R9, R10};
        a.callee_saved = {R14, R15, R16, R17, R18, R19, R20, R21};
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
    std::uint32_t word = 0;
    switch (op) {
      case Op::Nop:
        word = kNopWord;
        break;
      case Op::Addi:
        word = word_d(14, inst.rd, inst.rs,
                      static_cast<std::uint32_t>(inst.imm));
        break;
      case Op::Addis:
        word = word_d(15, inst.rd, inst.rs,
                      static_cast<std::uint32_t>(inst.imm));
        break;
      case Op::Ori:
        // ori rA, rS, uimm — dest in the ra field.
        word = word_d(24, inst.rs, inst.rd,
                      static_cast<std::uint32_t>(inst.imm));
        break;
      case Op::Cmpwi:
        word = word_d(11, 0, inst.rs,
                      static_cast<std::uint32_t>(inst.imm));
        break;
      case Op::Lwz:
        word = word_d(32, inst.rd, inst.rs,
                      static_cast<std::uint32_t>(inst.imm));
        break;
      case Op::Stw:
        word = word_d(36, inst.rd, inst.rs,
                      static_cast<std::uint32_t>(inst.imm));
        break;
      case Op::B:
      case Op::Bl: {
        const auto delta =
            (inst.imm - static_cast<std::int64_t>(addr)) >> 2;
        word = (18u << 26) |
               ((static_cast<std::uint32_t>(delta) & 0xffffff) << 2) |
               (op == Op::Bl ? 1u : 0u);
        break;
      }
      case Op::Bc: {
        std::uint32_t bi = 0;
        bool if_true = true;
        cond_to_bits(inst.cond, bi, if_true);
        const std::uint32_t bo = if_true ? 12 : 4;
        const auto delta =
            (inst.imm - static_cast<std::int64_t>(addr)) >> 2;
        word = (16u << 26) | (bo << 21) | (bi << 16) |
               ((static_cast<std::uint32_t>(delta) & 0x3fff) << 2);
        break;
      }
      case Op::Blr:
        word = (19u << 26) | (20u << 21) | (16u << 1);
        break;
      case Op::Mflr:
        word = word_xo(inst.rd, 8, 0, 339);
        break;
      case Op::Mtlr:
        word = word_xo(inst.rs, 8, 0, 467);
        break;
      case Op::Setbc: {
        std::uint32_t bi = 0;
        bool if_true = true;
        cond_to_bits(inst.cond, bi, if_true);
        word = word_xo(inst.rd, bi, if_true ? 0 : 1, 384);
        break;
      }
      default:
        for (const auto &spec : kXoSpecs) {
            if (spec.op != op) {
                continue;
            }
            switch (spec.form) {
              case XoSpec::Form::DestRt:
                if (op == Op::Subf) {
                    // subf rt, ra, rb computes rb - ra; ours is rs - rt.
                    word = word_xo(inst.rd, inst.rt, inst.rs, spec.xo);
                } else {
                    word = word_xo(inst.rd, inst.rs, inst.rt, spec.xo);
                }
                break;
              case XoSpec::Form::DestRa:
                // logical: ra = rs OP rb; dest goes to the ra field.
                word = word_xo(inst.rs, inst.rd, inst.rt, spec.xo);
                break;
              case XoSpec::Form::Cmp:
                word = word_xo(0, inst.rs, inst.rt, spec.xo);
                break;
            }
            append_u32_be(out, word);
            return;
        }
        FIRMUP_ASSERT(false, "unencodable PPC op");
    }
    append_u32_be(out, word);
}

Result<Decoded>
decode(const std::uint8_t *p, std::size_t avail, std::uint64_t addr)
{
    if (avail < 4) {
        return decode_error("ppc: truncated instruction");
    }
    const std::uint32_t word = read_u32_be(p);
    MachInst inst;
    const std::uint32_t opcd = word >> 26;
    const auto rt = static_cast<MReg>((word >> 21) & 31);
    const auto ra = static_cast<MReg>((word >> 16) & 31);
    const auto rb = static_cast<MReg>((word >> 11) & 31);
    const auto simm = static_cast<std::int16_t>(word & 0xffff);

    if (word == kNopWord) {
        inst.op = static_cast<std::uint16_t>(Op::Nop);
        return Decoded{inst, 4};
    }
    switch (opcd) {
      case 14:
      case 15:
        inst.op = static_cast<std::uint16_t>(opcd == 14 ? Op::Addi
                                                        : Op::Addis);
        inst.rd = rt;
        inst.rs = ra;
        inst.imm = simm;
        return Decoded{inst, 4};
      case 24:
        inst.op = static_cast<std::uint16_t>(Op::Ori);
        inst.rd = ra;
        inst.rs = rt;
        inst.imm = word & 0xffff;
        return Decoded{inst, 4};
      case 11:
        inst.op = static_cast<std::uint16_t>(Op::Cmpwi);
        inst.rs = ra;
        inst.imm = simm;
        return Decoded{inst, 4};
      case 32:
      case 36:
        inst.op = static_cast<std::uint16_t>(opcd == 32 ? Op::Lwz
                                                        : Op::Stw);
        inst.rd = rt;
        inst.rs = ra;
        inst.imm = simm;
        return Decoded{inst, 4};
      case 18: {
        inst.op = static_cast<std::uint16_t>((word & 1) != 0 ? Op::Bl
                                                             : Op::B);
        const auto li =
            static_cast<std::int32_t>((word & 0x03fffffc) << 6) >> 6;
        inst.imm = static_cast<std::int64_t>(addr) + li;
        return Decoded{inst, 4};
      }
      case 16: {
        inst.op = static_cast<std::uint16_t>(Op::Bc);
        const std::uint32_t bo = (word >> 21) & 31;
        const std::uint32_t bi = (word >> 16) & 31;
        const bool if_true = bo == 12;
        if (!if_true && bo != 4) {
            return decode_error("ppc: unsupported BO");
        }
        if (!cond_from_bits(bi, if_true, inst.cond)) {
            return decode_error("ppc: unsupported BI");
        }
        const auto bd =
            static_cast<std::int32_t>((word & 0xfffc) << 16) >> 16;
        inst.imm = static_cast<std::int64_t>(addr) + bd;
        return Decoded{inst, 4};
      }
      case 19:
        if (((word >> 1) & 0x3ff) == 16 && ((word >> 21) & 31) == 20) {
            inst.op = static_cast<std::uint16_t>(Op::Blr);
            return Decoded{inst, 4};
        }
        return decode_error("ppc: unsupported opcd-19 form");
      case 31: {
        const std::uint32_t xo = (word >> 1) & 0x3ff;
        if (xo == 339 && ra == 8) {
            inst.op = static_cast<std::uint16_t>(Op::Mflr);
            inst.rd = rt;
            return Decoded{inst, 4};
        }
        if (xo == 467 && ra == 8) {
            inst.op = static_cast<std::uint16_t>(Op::Mtlr);
            inst.rs = rt;
            return Decoded{inst, 4};
        }
        if (xo == 384) {
            inst.op = static_cast<std::uint16_t>(Op::Setbc);
            inst.rd = rt;
            if (!cond_from_bits(ra, rb == 0, inst.cond)) {
                return decode_error("ppc: bad setbc BI");
            }
            return Decoded{inst, 4};
        }
        for (const auto &spec : kXoSpecs) {
            if (spec.xo != xo) {
                continue;
            }
            inst.op = static_cast<std::uint16_t>(spec.op);
            switch (spec.form) {
              case XoSpec::Form::DestRt:
                if (spec.op == Op::Subf) {
                    inst.rd = rt;
                    inst.rs = rb;
                    inst.rt = ra;
                } else {
                    inst.rd = rt;
                    inst.rs = ra;
                    inst.rt = rb;
                }
                break;
              case XoSpec::Form::DestRa:
                inst.rd = ra;
                inst.rs = rt;
                inst.rt = rb;
                break;
              case XoSpec::Form::Cmp:
                inst.rs = ra;
                inst.rt = rb;
                break;
            }
            return Decoded{inst, 4};
        }
        return decode_error("ppc: unknown xo");
      }
      default:
        return decode_error("ppc: unknown opcd");
    }
}

const char *
reg_name(MReg reg)
{
    static const char *names[32] = {
        "r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7",
        "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
        "r16", "r17", "r18", "r19", "r20", "r21", "r22", "r23",
        "r24", "r25", "r26", "r27", "r28", "r29", "r30", "r31",
    };
    return reg < 32 ? names[reg] : "?";
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
      case Op::Addi: return strprintf("addi %s, %s, %lld", rd, rs, imm);
      case Op::Addis: return strprintf("addis %s, %s, %lld", rd, rs, imm);
      case Op::Ori: return strprintf("ori %s, %s, 0x%llx", rd, rs, imm);
      case Op::Add: return strprintf("add %s, %s, %s", rd, rs, rt);
      case Op::Subf: return strprintf("subf %s, %s, %s", rd, rt, rs);
      case Op::Mullw: return strprintf("mullw %s, %s, %s", rd, rs, rt);
      case Op::Divw: return strprintf("divw %s, %s, %s", rd, rs, rt);
      case Op::Divwu: return strprintf("divwu %s, %s, %s", rd, rs, rt);
      case Op::Modsw: return strprintf("modsw %s, %s, %s", rd, rs, rt);
      case Op::And: return strprintf("and %s, %s, %s", rd, rs, rt);
      case Op::Or:
        if (inst.rs == inst.rt) {
            return strprintf("mr %s, %s", rd, rs);
        }
        return strprintf("or %s, %s, %s", rd, rs, rt);
      case Op::Xor: return strprintf("xor %s, %s, %s", rd, rs, rt);
      case Op::Slw: return strprintf("slw %s, %s, %s", rd, rs, rt);
      case Op::Srw: return strprintf("srw %s, %s, %s", rd, rs, rt);
      case Op::Sraw: return strprintf("sraw %s, %s, %s", rd, rs, rt);
      case Op::Cmpw: return strprintf("cmpw %s, %s", rs, rt);
      case Op::Cmpwi: return strprintf("cmpwi %s, %lld", rs, imm);
      case Op::Cmplw: return strprintf("cmplw %s, %s", rs, rt);
      case Op::Lwz: return strprintf("lwz %s, %lld(%s)", rd, imm, rs);
      case Op::Stw: return strprintf("stw %s, %lld(%s)", rd, imm, rs);
      case Op::B: return strprintf("b 0x%llx", imm);
      case Op::Bl: return strprintf("bl 0x%llx", imm);
      case Op::Bc:
        return strprintf("b%s 0x%llx", cond_name(inst.cond), imm);
      case Op::Blr: return "blr";
      case Op::Mflr: return strprintf("mflr %s", rd);
      case Op::Mtlr: return strprintf("mtlr %s", rs);
      case Op::Setbc:
        return strprintf("setbc %s, %s", rd, cond_name(inst.cond));
    }
    return "?";
}

}  // namespace firmup::isa::ppc
