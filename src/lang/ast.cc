#include "lang/ast.h"

#include "support/str.h"

namespace firmup::lang {

const char *
binop_token(BinOp op)
{
    switch (op) {
      case BinOp::Add: return "+";
      case BinOp::Sub: return "-";
      case BinOp::Mul: return "*";
      case BinOp::Div: return "/";
      case BinOp::Rem: return "%";
      case BinOp::And: return "&";
      case BinOp::Or: return "|";
      case BinOp::Xor: return "^";
      case BinOp::Shl: return "<<";
      case BinOp::Shr: return ">>";
      case BinOp::Eq: return "==";
      case BinOp::Ne: return "!=";
      case BinOp::Lt: return "<";
      case BinOp::Le: return "<=";
      case BinOp::Gt: return ">";
      case BinOp::Ge: return ">=";
    }
    return "?";
}

ExprPtr
Expr::constant(std::int32_t v)
{
    auto e = std::make_unique<Expr>();
    e->kind = Kind::Const;
    e->value = v;
    return e;
}

ExprPtr
Expr::param(int index)
{
    auto e = std::make_unique<Expr>();
    e->kind = Kind::Param;
    e->index = index;
    return e;
}

ExprPtr
Expr::local(int index)
{
    auto e = std::make_unique<Expr>();
    e->kind = Kind::Local;
    e->index = index;
    return e;
}

ExprPtr
Expr::load_global(int global_index, ExprPtr at)
{
    auto e = std::make_unique<Expr>();
    e->kind = Kind::LoadGlobal;
    e->index = global_index;
    e->a = std::move(at);
    return e;
}

ExprPtr
Expr::bin(BinOp op, ExprPtr a, ExprPtr b)
{
    auto e = std::make_unique<Expr>();
    e->kind = Kind::Bin;
    e->op = op;
    e->a = std::move(a);
    e->b = std::move(b);
    return e;
}

ExprPtr
Expr::call(std::string callee, std::vector<ExprPtr> args)
{
    auto e = std::make_unique<Expr>();
    e->kind = Kind::Call;
    e->callee = std::move(callee);
    e->args = std::move(args);
    return e;
}

ExprPtr
Expr::clone() const
{
    auto e = std::make_unique<Expr>();
    e->kind = kind;
    e->value = value;
    e->index = index;
    e->op = op;
    e->callee = callee;
    if (a) {
        e->a = a->clone();
    }
    if (b) {
        e->b = b->clone();
    }
    for (const ExprPtr &arg : args) {
        e->args.push_back(arg->clone());
    }
    return e;
}

namespace {

std::vector<StmtPtr>
clone_body(const std::vector<StmtPtr> &body)
{
    std::vector<StmtPtr> out;
    out.reserve(body.size());
    for (const StmtPtr &s : body) {
        out.push_back(s->clone());
    }
    return out;
}

}  // namespace

StmtPtr
Stmt::assign_local(int index, ExprPtr rhs)
{
    auto s = std::make_unique<Stmt>();
    s->kind = Kind::AssignLocal;
    s->index = index;
    s->expr = std::move(rhs);
    return s;
}

StmtPtr
Stmt::store_global(int global_index, ExprPtr at, ExprPtr rhs)
{
    auto s = std::make_unique<Stmt>();
    s->kind = Kind::StoreGlobal;
    s->index = global_index;
    s->addr = std::move(at);
    s->expr = std::move(rhs);
    return s;
}

StmtPtr
Stmt::if_stmt(ExprPtr cond, std::vector<StmtPtr> then_body,
              std::vector<StmtPtr> else_body)
{
    auto s = std::make_unique<Stmt>();
    s->kind = Kind::If;
    s->cond = std::move(cond);
    s->then_body = std::move(then_body);
    s->else_body = std::move(else_body);
    return s;
}

StmtPtr
Stmt::while_stmt(ExprPtr cond, std::vector<StmtPtr> body)
{
    auto s = std::make_unique<Stmt>();
    s->kind = Kind::While;
    s->cond = std::move(cond);
    s->else_body = std::move(body);
    return s;
}

StmtPtr
Stmt::ret(ExprPtr value)
{
    auto s = std::make_unique<Stmt>();
    s->kind = Kind::Return;
    s->expr = std::move(value);
    return s;
}

StmtPtr
Stmt::expr_stmt(ExprPtr e)
{
    auto s = std::make_unique<Stmt>();
    s->kind = Kind::ExprStmt;
    s->expr = std::move(e);
    return s;
}

StmtPtr
Stmt::clone() const
{
    auto s = std::make_unique<Stmt>();
    s->kind = kind;
    s->index = index;
    if (expr) {
        s->expr = expr->clone();
    }
    if (cond) {
        s->cond = cond->clone();
    }
    if (addr) {
        s->addr = addr->clone();
    }
    s->then_body = clone_body(then_body);
    s->else_body = clone_body(else_body);
    return s;
}

ProcedureAst
ProcedureAst::clone() const
{
    ProcedureAst p;
    p.name = name;
    p.num_params = num_params;
    p.num_locals = num_locals;
    p.exported = exported;
    p.feature = feature;
    p.body = clone_body(body);
    return p;
}

const ProcedureAst *
PackageSource::find(const std::string &proc_name) const
{
    for (const ProcedureAst &p : procedures) {
        if (p.name == proc_name) {
            return &p;
        }
    }
    return nullptr;
}

ProcedureAst *
PackageSource::find(const std::string &proc_name)
{
    return const_cast<ProcedureAst *>(
        static_cast<const PackageSource *>(this)->find(proc_name));
}

std::string
to_string(const Expr &e)
{
    switch (e.kind) {
      case Expr::Kind::Const:
        return std::to_string(e.value);
      case Expr::Kind::Param:
        return concat({"p", std::to_string(e.index)});
      case Expr::Kind::Local:
        return concat({"v", std::to_string(e.index)});
      case Expr::Kind::LoadGlobal:
        return concat(
            {"g", std::to_string(e.index), "[", to_string(*e.a), "]"});
      case Expr::Kind::Bin:
        return concat({"(", to_string(*e.a), " ", binop_token(e.op), " ",
                       to_string(*e.b), ")"});
      case Expr::Kind::Call: {
        std::vector<std::string> parts;
        for (const ExprPtr &arg : e.args) {
            parts.push_back(to_string(*arg));
        }
        return e.callee + "(" + join(parts, ", ") + ")";
      }
    }
    return "?";
}

namespace {

std::string
indent(int depth)
{
    return std::string(static_cast<std::size_t>(depth) * 2, ' ');
}

std::string
body_to_string(const std::vector<StmtPtr> &body, int depth)
{
    std::string out;
    for (const StmtPtr &s : body) {
        out += to_string(*s, depth);
    }
    return out;
}

}  // namespace

std::string
to_string(const Stmt &s, int depth)
{
    const std::string pad = indent(depth);
    switch (s.kind) {
      case Stmt::Kind::AssignLocal:
        return pad + "v" + std::to_string(s.index) + " = " +
               to_string(*s.expr) + ";\n";
      case Stmt::Kind::StoreGlobal:
        return pad + "g" + std::to_string(s.index) + "[" +
               to_string(*s.addr) + "] = " + to_string(*s.expr) + ";\n";
      case Stmt::Kind::If: {
        std::string out = pad + "if (" + to_string(*s.cond) + ") {\n" +
                          body_to_string(s.then_body, depth + 1);
        if (!s.else_body.empty()) {
            out += pad + "} else {\n" + body_to_string(s.else_body,
                                                       depth + 1);
        }
        return out + pad + "}\n";
      }
      case Stmt::Kind::While:
        return pad + "while (" + to_string(*s.cond) + ") {\n" +
               body_to_string(s.else_body, depth + 1) + pad + "}\n";
      case Stmt::Kind::Return:
        return pad + "return " + to_string(*s.expr) + ";\n";
      case Stmt::Kind::ExprStmt:
        return pad + to_string(*s.expr) + ";\n";
    }
    return pad + "?;\n";
}

std::string
to_string(const ProcedureAst &p)
{
    std::string out = "int " + p.name + "(";
    for (int i = 0; i < p.num_params; ++i) {
        if (i > 0) {
            out += ", ";
        }
        out += "int p" + std::to_string(i);
    }
    out += ") {\n";
    out += body_to_string(p.body, 1);
    out += "}\n";
    return out;
}

}  // namespace firmup::lang
