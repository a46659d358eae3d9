#include "compiler/mir.h"

#include "support/str.h"

namespace firmup::compiler {

bool
mop_is_compare(MOp op)
{
    switch (op) {
      case MOp::CmpEQ:
      case MOp::CmpNE:
      case MOp::CmpLTS:
      case MOp::CmpLES:
      case MOp::CmpLTU:
      case MOp::CmpLEU:
        return true;
      default:
        return false;
    }
}

bool
mop_is_commutative(MOp op)
{
    switch (op) {
      case MOp::Add:
      case MOp::Mul:
      case MOp::And:
      case MOp::Or:
      case MOp::Xor:
      case MOp::CmpEQ:
      case MOp::CmpNE:
        return true;
      default:
        return false;
    }
}

const char *
mop_name(MOp op)
{
    switch (op) {
      case MOp::Add: return "add";
      case MOp::Sub: return "sub";
      case MOp::Mul: return "mul";
      case MOp::DivS: return "sdiv";
      case MOp::RemS: return "srem";
      case MOp::And: return "and";
      case MOp::Or: return "or";
      case MOp::Xor: return "xor";
      case MOp::Shl: return "shl";
      case MOp::ShrA: return "ashr";
      case MOp::ShrL: return "lshr";
      case MOp::CmpEQ: return "cmpeq";
      case MOp::CmpNE: return "cmpne";
      case MOp::CmpLTS: return "cmplts";
      case MOp::CmpLES: return "cmples";
      case MOp::CmpLTU: return "cmpltu";
      case MOp::CmpLEU: return "cmpleu";
    }
    return "?";
}

MInst
MInst::make_const(VReg dst, std::int32_t imm)
{
    MInst i;
    i.kind = Kind::Const;
    i.dst = dst;
    i.imm = imm;
    return i;
}

MInst
MInst::copy(VReg dst, VReg src)
{
    MInst i;
    i.kind = Kind::Copy;
    i.dst = dst;
    i.a = src;
    return i;
}

MInst
MInst::bin(VReg dst, MOp op, VReg a, MVal b)
{
    MInst i;
    i.kind = Kind::Bin;
    i.dst = dst;
    i.op = op;
    i.a = a;
    i.b = b;
    return i;
}

MInst
MInst::gaddr(VReg dst, int global_index)
{
    MInst i;
    i.kind = Kind::GAddr;
    i.dst = dst;
    i.global_index = global_index;
    return i;
}

MInst
MInst::load(VReg dst, VReg addr)
{
    MInst i;
    i.kind = Kind::Load;
    i.dst = dst;
    i.a = addr;
    return i;
}

MInst
MInst::store(VReg addr, VReg value)
{
    MInst i;
    i.kind = Kind::Store;
    i.a = addr;
    i.b = MVal::vreg(value);
    return i;
}

MInst
MInst::call(VReg dst, int callee, std::vector<VReg> args)
{
    MInst i;
    i.kind = Kind::Call;
    i.dst = dst;
    i.callee = callee;
    i.args = std::move(args);
    return i;
}

MTerm
MTerm::jump(int target)
{
    MTerm t;
    t.kind = Kind::Jump;
    t.target = target;
    return t;
}

MTerm
MTerm::branch(VReg cond, int target, int fallthrough)
{
    MTerm t;
    t.kind = Kind::Branch;
    t.cond = cond;
    t.target = target;
    t.fallthrough = fallthrough;
    return t;
}

MTerm
MTerm::ret(VReg value)
{
    MTerm t;
    t.kind = Kind::Ret;
    t.ret_reg = value;
    return t;
}

MBlock *
MProc::block_by_id(int id)
{
    for (MBlock &b : blocks) {
        if (b.id == id) {
            return &b;
        }
    }
    return nullptr;
}

const MBlock *
MProc::block_by_id(int id) const
{
    return const_cast<MProc *>(this)->block_by_id(id);
}

std::size_t
MProc::inst_count() const
{
    std::size_t n = 0;
    for (const MBlock &b : blocks) {
        n += b.insts.size();
    }
    return n;
}

int
MModule::find_proc(const std::string &proc_name) const
{
    for (std::size_t i = 0; i < procs.size(); ++i) {
        if (procs[i].name == proc_name) {
            return static_cast<int>(i);
        }
    }
    return -1;
}

namespace {

std::string
mval_str(const MVal &v)
{
    return v.is_vreg() ? concat({"%", std::to_string(v.reg)})
                       : std::to_string(v.imm);
}

}  // namespace

std::string
to_string(const MInst &inst)
{
    const std::string d = concat({"%", std::to_string(inst.dst)});
    switch (inst.kind) {
      case MInst::Kind::Const:
        return d + " = const " + std::to_string(inst.imm);
      case MInst::Kind::Copy:
        return d + " = %" + std::to_string(inst.a);
      case MInst::Kind::Bin:
        return d + " = " + mop_name(inst.op) + " %" +
               std::to_string(inst.a) + ", " + mval_str(inst.b);
      case MInst::Kind::GAddr:
        return d + " = gaddr g" + std::to_string(inst.global_index);
      case MInst::Kind::Load:
        return d + " = load %" + std::to_string(inst.a);
      case MInst::Kind::Store:
        return "store %" + std::to_string(inst.a) + ", " + mval_str(inst.b);
      case MInst::Kind::Call: {
        std::string out = d + " = call @" + std::to_string(inst.callee) +
                          "(";
        for (std::size_t i = 0; i < inst.args.size(); ++i) {
            if (i > 0) {
                out += ", ";
            }
            out += concat({"%", std::to_string(inst.args[i])});
        }
        return out + ")";
      }
    }
    return "?";
}

std::string
to_string(const MProc &proc)
{
    std::string out = "proc " + proc.name + "(" +
                      std::to_string(proc.num_params) + " params)\n";
    for (const MBlock &b : proc.blocks) {
        out += "bb" + std::to_string(b.id) + ":\n";
        for (const MInst &inst : b.insts) {
            out += "  " + to_string(inst) + "\n";
        }
        switch (b.term.kind) {
          case MTerm::Kind::Jump:
            out += "  jump bb" + std::to_string(b.term.target) + "\n";
            break;
          case MTerm::Kind::Branch:
            out += "  br %" + std::to_string(b.term.cond) + ", bb" +
                   std::to_string(b.term.target) + ", bb" +
                   std::to_string(b.term.fallthrough) + "\n";
            break;
          case MTerm::Kind::Ret:
            out += "  ret %" + std::to_string(b.term.ret_reg) + "\n";
            break;
        }
    }
    return out;
}

}  // namespace firmup::compiler
