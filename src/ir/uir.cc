#include "ir/uir.h"

#include "support/error.h"
#include "support/str.h"

namespace firmup::ir {

const char *
binop_name(BinOp op)
{
    switch (op) {
      case BinOp::Add: return "add";
      case BinOp::Sub: return "sub";
      case BinOp::Mul: return "mul";
      case BinOp::DivS: return "sdiv";
      case BinOp::DivU: return "udiv";
      case BinOp::RemS: return "srem";
      case BinOp::RemU: return "urem";
      case BinOp::And: return "and";
      case BinOp::Or: return "or";
      case BinOp::Xor: return "xor";
      case BinOp::Shl: return "shl";
      case BinOp::ShrL: return "lshr";
      case BinOp::ShrA: return "ashr";
      case BinOp::CmpEQ: return "icmp eq";
      case BinOp::CmpNE: return "icmp ne";
      case BinOp::CmpLTS: return "icmp slt";
      case BinOp::CmpLTU: return "icmp ult";
      case BinOp::CmpLES: return "icmp sle";
      case BinOp::CmpLEU: return "icmp ule";
    }
    return "?";
}

const char *
unop_name(UnOp op)
{
    switch (op) {
      case UnOp::Neg: return "neg";
      case UnOp::Not: return "not";
    }
    return "?";
}

bool
is_comparison(BinOp op)
{
    switch (op) {
      case BinOp::CmpEQ:
      case BinOp::CmpNE:
      case BinOp::CmpLTS:
      case BinOp::CmpLTU:
      case BinOp::CmpLES:
      case BinOp::CmpLEU:
        return true;
      default:
        return false;
    }
}

bool
is_commutative(BinOp op)
{
    switch (op) {
      case BinOp::Add:
      case BinOp::Mul:
      case BinOp::And:
      case BinOp::Or:
      case BinOp::Xor:
      case BinOp::CmpEQ:
      case BinOp::CmpNE:
        return true;
      default:
        return false;
    }
}

Stmt
Stmt::get(TempId dst, RegId reg)
{
    Stmt s;
    s.kind = Kind::Get;
    s.dst = dst;
    s.reg = reg;
    return s;
}

Stmt
Stmt::put(RegId reg, Operand a)
{
    Stmt s;
    s.kind = Kind::Put;
    s.reg = reg;
    s.a = a;
    return s;
}

Stmt
Stmt::bin(TempId dst, BinOp op, Operand a, Operand b)
{
    Stmt s;
    s.kind = Kind::Bin;
    s.dst = dst;
    s.bin_op = op;
    s.a = a;
    s.b = b;
    return s;
}

Stmt
Stmt::un(TempId dst, UnOp op, Operand a)
{
    Stmt s;
    s.kind = Kind::Un;
    s.dst = dst;
    s.un_op = op;
    s.a = a;
    return s;
}

Stmt
Stmt::load(TempId dst, Operand addr)
{
    Stmt s;
    s.kind = Kind::Load;
    s.dst = dst;
    s.a = addr;
    return s;
}

Stmt
Stmt::store(Operand addr, Operand value)
{
    Stmt s;
    s.kind = Kind::Store;
    s.a = addr;
    s.b = value;
    return s;
}

Stmt
Stmt::select(TempId dst, Operand cond, Operand t, Operand f)
{
    Stmt s;
    s.kind = Kind::Select;
    s.dst = dst;
    s.a = cond;
    s.b = t;
    s.extra = f;
    return s;
}

Stmt
Stmt::call(TempId dst, Operand target)
{
    Stmt s;
    s.kind = Kind::Call;
    s.dst = dst;
    s.a = target;
    return s;
}

Stmt
Stmt::exit(Operand cond, Operand target)
{
    Stmt s;
    s.kind = Kind::Exit;
    s.a = cond;
    s.b = target;
    return s;
}

std::vector<std::uint64_t>
Block::successors() const
{
    switch (end) {
      case BlockEndKind::Fallthrough:
        return {fallthrough};
      case BlockEndKind::Jump:
        return {target};
      case BlockEndKind::CondJump:
        return {target, fallthrough};
      case BlockEndKind::Ret:
        return {};
    }
    return {};
}

std::vector<std::uint64_t>
Procedure::callees() const
{
    std::vector<std::uint64_t> out;
    for (const auto &[addr, block] : blocks) {
        for (const Stmt &s : block.stmts) {
            if (s.kind == Stmt::Kind::Call && s.a.is_const()) {
                out.push_back(s.a.as_const());
            }
        }
    }
    return out;
}

std::size_t
Procedure::stmt_count() const
{
    std::size_t n = 0;
    for (const auto &[addr, block] : blocks) {
        n += block.stmts.size();
    }
    return n;
}

namespace {

void
add_operand_reads(const Operand &op, std::vector<Var> &out)
{
    if (op.is_temp()) {
        out.push_back(Var::temp(op.as_temp()));
    }
}

std::string
operand_str(const Operand &op)
{
    switch (op.kind) {
      case Operand::Kind::None:
        return "<none>";
      case Operand::Kind::Temp:
        return concat({"t", std::to_string(op.as_temp())});
      case Operand::Kind::Const:
        return "0x" + to_hex(op.as_const());
    }
    return "?";
}

}  // namespace

std::vector<Var>
read_set(const Stmt &s)
{
    std::vector<Var> out;
    switch (s.kind) {
      case Stmt::Kind::Get:
        out.push_back(Var::reg(s.reg));
        break;
      case Stmt::Kind::Put:
        add_operand_reads(s.a, out);
        break;
      case Stmt::Kind::Bin:
      case Stmt::Kind::Store:
        add_operand_reads(s.a, out);
        add_operand_reads(s.b, out);
        break;
      case Stmt::Kind::Un:
      case Stmt::Kind::Load:
      case Stmt::Kind::Call:
        add_operand_reads(s.a, out);
        break;
      case Stmt::Kind::Select:
        add_operand_reads(s.a, out);
        add_operand_reads(s.b, out);
        add_operand_reads(s.extra, out);
        break;
      case Stmt::Kind::Exit:
        add_operand_reads(s.a, out);
        add_operand_reads(s.b, out);
        break;
    }
    return out;
}

std::vector<Var>
write_set(const Stmt &s)
{
    std::vector<Var> out;
    if (s.defines_temp()) {
        out.push_back(Var::temp(s.dst));
    }
    if (s.kind == Stmt::Kind::Put) {
        out.push_back(Var::reg(s.reg));
    }
    return out;
}

std::string
to_string(const Stmt &s)
{
    const std::string d = concat({"t", std::to_string(s.dst)});
    switch (s.kind) {
      case Stmt::Kind::Get:
        return d + " = Get(r" + std::to_string(s.reg) + ")";
      case Stmt::Kind::Put:
        return "Put(r" + std::to_string(s.reg) + ", " + operand_str(s.a) +
               ")";
      case Stmt::Kind::Bin:
        return d + " = " + binop_name(s.bin_op) + " " + operand_str(s.a) +
               ", " + operand_str(s.b);
      case Stmt::Kind::Un:
        return d + " = " + unop_name(s.un_op) + " " + operand_str(s.a);
      case Stmt::Kind::Load:
        return d + " = Load(" + operand_str(s.a) + ")";
      case Stmt::Kind::Store:
        return "Store(" + operand_str(s.a) + ", " + operand_str(s.b) + ")";
      case Stmt::Kind::Select:
        return d + " = Select(" + operand_str(s.a) + ", " +
               operand_str(s.b) + ", " + operand_str(s.extra) + ")";
      case Stmt::Kind::Call:
        return d + " = Call(" + operand_str(s.a) + ")";
      case Stmt::Kind::Exit:
        return "Exit(" + operand_str(s.a) + ") -> " + operand_str(s.b);
    }
    return "?";
}

std::string
to_string(const Block &b)
{
    std::string out = "block 0x" + to_hex(b.addr) + ":\n";
    for (const Stmt &s : b.stmts) {
        out += "  " + to_string(s) + "\n";
    }
    switch (b.end) {
      case BlockEndKind::Fallthrough:
        out += "  fallthrough 0x" + to_hex(b.fallthrough) + "\n";
        break;
      case BlockEndKind::Jump:
        out += "  jump 0x" + to_hex(b.target) + "\n";
        break;
      case BlockEndKind::CondJump:
        out += "  condjump 0x" + to_hex(b.target) + " / 0x" +
               to_hex(b.fallthrough) + "\n";
        break;
      case BlockEndKind::Ret:
        out += "  ret\n";
        break;
    }
    return out;
}

std::string
to_string(const Procedure &p)
{
    std::string out = "proc";
    if (!p.name.empty()) {
        out += " " + p.name;
    }
    out += " @ 0x" + to_hex(p.entry) + "\n";
    for (const auto &[addr, block] : p.blocks) {
        out += to_string(block);
    }
    return out;
}

}  // namespace firmup::ir
