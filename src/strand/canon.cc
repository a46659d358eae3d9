#include "strand/canon.h"

#include <algorithm>
#include <map>
#include <string_view>

#include "strand/memo.h"
#include "support/error.h"
#include "support/hash.h"
#include "support/trace.h"

namespace firmup::strand {

namespace {

const trace::Counter c_procedures("canon.procedures");
const trace::Counter c_strands("canon.strands_extracted");
const trace::Counter c_passes("canon.passes_applied");

}  // namespace

using ir::BinOp;
using ir::Operand;
using ir::Stmt;
using ir::UnOp;

namespace {

/** Expression node in the canonicalization arena. */
struct Expr
{
    enum class Kind : std::uint8_t {
        Const, Input, Offset, Load, Bin, Un, Select, Call,
    };
    Kind kind;
    std::uint32_t cval = 0;   ///< Const payload
    ir::RegId reg = 0;        ///< Input origin register
    std::uint64_t raw = 0;    ///< Offset original value
    BinOp bin = BinOp::Add;
    UnOp un = UnOp::Neg;
    int a = -1, b = -1, c = -1;
    std::uint64_t shash = 0;  ///< structural, allocation-independent
};

std::uint32_t
eval_binop(BinOp op, std::uint32_t a, std::uint32_t b)
{
    const auto sa = static_cast<std::int32_t>(a);
    const auto sb = static_cast<std::int32_t>(b);
    switch (op) {
      case BinOp::Add: return a + b;
      case BinOp::Sub: return a - b;
      case BinOp::Mul: return a * b;
      case BinOp::DivS:
        return (sb == 0 || (sa == INT32_MIN && sb == -1))
                   ? 0 : static_cast<std::uint32_t>(sa / sb);
      case BinOp::DivU: return b == 0 ? 0 : a / b;
      case BinOp::RemS:
        return (sb == 0 || (sa == INT32_MIN && sb == -1))
                   ? 0 : static_cast<std::uint32_t>(sa % sb);
      case BinOp::RemU: return b == 0 ? 0 : a % b;
      case BinOp::And: return a & b;
      case BinOp::Or: return a | b;
      case BinOp::Xor: return a ^ b;
      case BinOp::Shl: return a << (b & 31);
      case BinOp::ShrL: return a >> (b & 31);
      case BinOp::ShrA:
        return static_cast<std::uint32_t>(sa >> (b & 31));
      case BinOp::CmpEQ: return a == b;
      case BinOp::CmpNE: return a != b;
      case BinOp::CmpLTS: return sa < sb;
      case BinOp::CmpLTU: return a < b;
      case BinOp::CmpLES: return sa <= sb;
      case BinOp::CmpLEU: return a <= b;
    }
    return 0;
}

/**
 * Arena + smart constructors implementing the simplification rules.
 * The arena is reused across all strands of a procedure: reset()
 * truncates it without releasing capacity, so steady-state
 * canonicalization allocates nothing.
 */
class Builder
{
  public:
    explicit Builder(const CanonOptions &options) : opt_(options) {}

    const Expr &at(int i) const { return arena_[static_cast<size_t>(i)]; }

    /** Truncate the arena, keeping its capacity for the next strand. */
    void reset() { arena_.clear(); }

    int
    constant(std::uint32_t value)
    {
        if (opt_.eliminate_offsets && opt_.sections.contains(value)) {
            Expr e{Expr::Kind::Offset};
            e.raw = value;
            e.shash = mix64(0x0FF5E7);  // all offsets structurally equal
            return add(e);
        }
        Expr e{Expr::Kind::Const};
        e.cval = value;
        e.shash = hash_combine(1, value);
        return add(e);
    }

    int
    input(ir::RegId reg)
    {
        Expr e{Expr::Kind::Input};
        e.reg = reg;
        // Inputs hash identically so that register allocation cannot
        // perturb commutative operand ordering.
        e.shash = mix64(0x1A9F7);
        return add(e);
    }

    int
    load(int addr)
    {
        Expr e{Expr::Kind::Load};
        e.a = addr;
        e.shash = hash_combine(mix64(3), at(addr).shash);
        return add(e);
    }

    int
    call(int target)
    {
        Expr e{Expr::Kind::Call};
        e.a = target;
        e.shash = hash_combine(mix64(4), at(target).shash);
        return add(e);
    }

    int
    select(int cond, int t, int f)
    {
        Expr e{Expr::Kind::Select};
        e.a = cond;
        e.b = t;
        e.c = f;
        e.shash = hash_combine(
            hash_combine(mix64(5), at(cond).shash),
            hash_combine(at(t).shash, at(f).shash));
        return add(e);
    }

    int
    unop(UnOp op, int a)
    {
        if (opt_.optimize) {
            const Expr &ea = at(a);
            if (ea.kind == Expr::Kind::Const) {
                return constant(op == UnOp::Neg ? 0u - ea.cval : ~ea.cval);
            }
            // neg(neg(x)) = x, not(not(x)) = x
            if (ea.kind == Expr::Kind::Un && ea.un == op) {
                return ea.a;
            }
        }
        Expr e{Expr::Kind::Un};
        e.un = op;
        e.a = a;
        e.shash = hash_combine(mix64(10 + static_cast<int>(op)),
                               at(a).shash);
        return add(e);
    }

    int
    binop(BinOp op, int a, int b)
    {
        if (!opt_.optimize) {
            return raw_bin(op, a, b);
        }
        // Constant folding.
        if (is_const(a) && is_const(b)) {
            return constant(eval_binop(op, cval(a), cval(b)));
        }
        // Normalize subtraction-by-constant into addition.
        if (op == BinOp::Sub && is_const(b)) {
            return binop(BinOp::Add, a, constant(0u - cval(b)));
        }
        // Constant to the right for commutative operators.
        if (ir::is_commutative(op) && is_const(a) && !is_const(b)) {
            std::swap(a, b);
        }
        // Reassociate (x + c1) + c2. Copy the child indexes out first:
        // the nested constant() may grow the arena and invalidate any
        // reference into it while the argument list is evaluated.
        if (op == BinOp::Add && is_const(b)) {
            const Expr &ea = at(a);
            if (ea.kind == Expr::Kind::Bin && ea.bin == BinOp::Add &&
                is_const(ea.b)) {
                const int x = ea.a;
                const std::uint32_t folded = cval(ea.b) + cval(b);
                return binop(BinOp::Add, x, constant(folded));
            }
        }
        // Identities with a constant rhs.
        if (is_const(b)) {
            const std::uint32_t c = cval(b);
            switch (op) {
              case BinOp::Add:
              case BinOp::Sub:
              case BinOp::Or:
              case BinOp::Xor:
              case BinOp::Shl:
              case BinOp::ShrL:
              case BinOp::ShrA:
                if (c == 0) {
                    return a;
                }
                break;
              case BinOp::Mul:
                if (c == 0) {
                    return constant(0);
                }
                if (c == 1) {
                    return a;
                }
                // Strength-reduction normal form: one toolchain emits a
                // multiply, another a shift; converge on the shift.
                if ((c & (c - 1)) == 0) {
                    std::uint32_t log2 = 0;
                    while ((1u << log2) < c) {
                        ++log2;
                    }
                    return binop(BinOp::Shl, a, constant(log2));
                }
                break;
              case BinOp::And:
                if (c == 0) {
                    return constant(0);
                }
                if (c == 0xffffffffu) {
                    return a;
                }
                break;
              default:
                break;
            }
            // Instruction-combining rules for compare idioms:
            //   sltiu r, x, 1      ->  x == 0
            //   xori  r, cmp, 1    ->  !cmp
            //   andi  r, cmp, 1    ->  cmp
            if (op == BinOp::CmpLTU && c == 1) {
                return binop(BinOp::CmpEQ, a, constant(0));
            }
            if (op == BinOp::Xor && c == 1 && is_cmp(a)) {
                return negate(a);
            }
            if (op == BinOp::And && c == 1 && is_cmp(a)) {
                return a;
            }
            if ((op == BinOp::CmpEQ || op == BinOp::CmpNE) && c == 0) {
                //   cmp == 0  ->  !cmp ;  cmp != 0  ->  cmp
                if (is_cmp(a)) {
                    return op == BinOp::CmpNE ? a : negate(a);
                }
                //   (x ^ y) == 0  ->  x == y   (MIPS seq idiom)
                const Expr &ea = at(a);
                if (ea.kind == Expr::Kind::Bin && ea.bin == BinOp::Xor) {
                    return binop(op, ea.a, ea.b);
                }
            }
        }
        //   sltu r, 0, x  ->  x != 0
        if (op == BinOp::CmpLTU && is_const(a) && cval(a) == 0) {
            return binop(BinOp::CmpNE, b, constant(0));
        }
        // x - x, x ^ x, x & x, x | x with identical subtrees.
        if (a == b || at(a).shash == at(b).shash) {
            if (structurally_equal(a, b)) {
                switch (op) {
                  case BinOp::Sub:
                  case BinOp::Xor:
                    // Only safe when both sides are the *same value*,
                    // which equal structure over shared inputs implies.
                    if (a == b) {
                        return constant(0);
                    }
                    break;
                  case BinOp::And:
                  case BinOp::Or:
                    if (a == b) {
                        return a;
                    }
                    break;
                  default:
                    break;
                }
            }
        }
        // Canonical operand order for commutative operators: constants
        // stay rightmost; everything else sorts by structural hash.
        if (ir::is_commutative(op)) {
            if (is_const(a) && !is_const(b)) {
                std::swap(a, b);
            } else if (!is_const(a) && !is_const(b) &&
                       at(a).shash > at(b).shash) {
                std::swap(a, b);
            }
        }
        return raw_bin(op, a, b);
    }

    /** Logical negation of a comparison node. */
    int
    negate(int cmp)
    {
        const Expr &e = at(cmp);
        FIRMUP_ASSERT(is_cmp(cmp), "negate of non-compare");
        switch (e.bin) {
          case BinOp::CmpEQ: return raw_bin(BinOp::CmpNE, e.a, e.b);
          case BinOp::CmpNE: return raw_bin(BinOp::CmpEQ, e.a, e.b);
          case BinOp::CmpLTS: return raw_bin(BinOp::CmpLES, e.b, e.a);
          case BinOp::CmpLES: return raw_bin(BinOp::CmpLTS, e.b, e.a);
          case BinOp::CmpLTU: return raw_bin(BinOp::CmpLEU, e.b, e.a);
          default: return raw_bin(BinOp::CmpLTU, e.b, e.a);
        }
    }

    bool
    is_cmp(int i) const
    {
        const Expr &e = at(i);
        return e.kind == Expr::Kind::Bin && ir::is_comparison(e.bin);
    }

  private:
    int
    add(const Expr &e)
    {
        arena_.push_back(e);
        return static_cast<int>(arena_.size()) - 1;
    }

    int
    raw_bin(BinOp op, int a, int b)
    {
        Expr e{Expr::Kind::Bin};
        e.bin = op;
        e.a = a;
        e.b = b;
        const std::uint64_t ha = at(a).shash;
        const std::uint64_t hb = at(b).shash;
        const std::uint64_t hop = mix64(100 + static_cast<int>(op));
        e.shash = ir::is_commutative(op)
                      ? hash_combine(hop, ha + hb)
                      : hash_combine(hash_combine(hop, ha), hb);
        return add(e);
    }

    bool is_const(int i) const { return at(i).kind == Expr::Kind::Const; }
    std::uint32_t cval(int i) const { return at(i).cval; }

    /** Deep structural equality (identity of Input regs matters here). */
    bool
    structurally_equal(int x, int y) const
    {
        if (x == y) {
            return true;
        }
        const Expr &ex = at(x);
        const Expr &ey = at(y);
        if (ex.kind != ey.kind || ex.cval != ey.cval ||
            ex.reg != ey.reg || ex.bin != ey.bin || ex.un != ey.un) {
            return false;
        }
        auto eq_child = [this](int cx, int cy) {
            if ((cx < 0) != (cy < 0)) {
                return false;
            }
            return cx < 0 || structurally_equal(cx, cy);
        };
        return eq_child(ex.a, ey.a) && eq_child(ex.b, ey.b) &&
               eq_child(ex.c, ey.c);
    }

    const CanonOptions &opt_;
    std::vector<Expr> arena_;
};

/**
 * Symbolic evaluation environment over one strand.
 *
 * The temp/register environments are dense epoch-stamped arrays, not
 * std::maps: begin_strand() bumps the epoch, which invalidates every
 * slot in O(1) — no per-strand clearing, no tree allocations. Temp ids
 * beyond the dense window (only possible on malformed input) spill to
 * an ordered map.
 */
class StrandEval
{
  public:
    explicit StrandEval(Builder &builder) : b_(builder) {}

    /** Invalidate all bindings; O(1) except after epoch wraparound. */
    void
    begin_strand()
    {
        if (++epoch_ == 0) {
            std::fill(temp_epoch_.begin(), temp_epoch_.end(), 0u);
            std::fill(reg_epoch_.begin(), reg_epoch_.end(), 0u);
            std::fill(input_epoch_.begin(), input_epoch_.end(), 0u);
            epoch_ = 1;
        }
        if (!temp_overflow_.empty()) {
            temp_overflow_.clear();
        }
    }

    int
    operand(const Operand &op)
    {
        switch (op.kind) {
          case Operand::Kind::Temp: {
            // A temp defined by a statement outside the slice can only
            // happen on malformed input; treat it as an opaque input.
            const int node = temp_node(op.as_temp());
            return node >= 0 ? node : b_.input(0xffff);
          }
          case Operand::Kind::Const:
            return b_.constant(op.as_const());
          case Operand::Kind::None:
            return b_.constant(0);
        }
        return b_.constant(0);
    }

    /** Node bound to @p t this strand, or -1. */
    int
    temp_node(ir::TempId t) const
    {
        if (t < temp_epoch_.size()) {
            return temp_epoch_[t] == epoch_
                       ? temp_value_[t]
                       : -1;
        }
        if (t >= kDenseTempCap) {
            const auto it = temp_overflow_.find(t);
            return it != temp_overflow_.end() ? it->second : -1;
        }
        return -1;
    }

    int
    reg_value(ir::RegId reg)
    {
        ensure_reg(reg);
        if (reg_epoch_[reg] == epoch_) {
            return reg_value_[reg];
        }
        if (input_epoch_[reg] == epoch_) {
            return input_value_[reg];
        }
        const int node = b_.input(reg);
        input_epoch_[reg] = epoch_;
        input_value_[reg] = node;
        return node;
    }

    /** Evaluate one statement. */
    void
    eval(const Stmt &s)
    {
        switch (s.kind) {
          case Stmt::Kind::Get:
            set_temp(s.dst, reg_value(s.reg));
            break;
          case Stmt::Kind::Put: {
            const int v = operand(s.a);
            ensure_reg(s.reg);
            reg_epoch_[s.reg] = epoch_;
            reg_value_[s.reg] = v;
            break;
          }
          case Stmt::Kind::Bin: {
            const int a = operand(s.a);
            const int b = operand(s.b);
            set_temp(s.dst, b_.binop(s.bin_op, a, b));
            break;
          }
          case Stmt::Kind::Un:
            set_temp(s.dst, b_.unop(s.un_op, operand(s.a)));
            break;
          case Stmt::Kind::Load:
            set_temp(s.dst, b_.load(operand(s.a)));
            break;
          case Stmt::Kind::Select: {
            const int cond = operand(s.a);
            const int t = operand(s.b);
            const int f = operand(s.extra);
            set_temp(s.dst, b_.select(cond, t, f));
            break;
          }
          case Stmt::Kind::Call:
            set_temp(s.dst, b_.call(operand(s.a)));
            break;
          case Stmt::Kind::Store:
          case Stmt::Kind::Exit:
            break;  // effects; handled at the root
        }
    }

  private:
    /**
     * Dense window for temp ids. Real blocks use small consecutive
     * ids; a hostile 32-bit dst beyond the cap lands in the overflow
     * map instead of forcing a gigabyte resize.
     */
    static constexpr std::size_t kDenseTempCap = std::size_t{1} << 16;

    void
    set_temp(ir::TempId t, int node)
    {
        if (t >= kDenseTempCap) {
            temp_overflow_[t] = node;
            return;
        }
        if (t >= temp_epoch_.size()) {
            temp_epoch_.resize(t + 1, 0u);
            temp_value_.resize(t + 1, -1);
        }
        temp_epoch_[t] = epoch_;
        temp_value_[t] = node;
    }

    void
    ensure_reg(ir::RegId reg)
    {
        if (reg >= reg_epoch_.size()) {
            reg_epoch_.resize(reg + 1, 0u);
            reg_value_.resize(reg + 1, -1);
            input_epoch_.resize(reg + 1, 0u);
            input_value_.resize(reg + 1, -1);
        }
    }

    Builder &b_;
    std::uint32_t epoch_ = 0;
    std::vector<std::uint32_t> temp_epoch_;
    std::vector<int> temp_value_;
    std::map<ir::TempId, int> temp_overflow_;
    std::vector<std::uint32_t> reg_epoch_;
    std::vector<int> reg_value_;
    std::vector<std::uint32_t> input_epoch_;
    std::vector<int> input_value_;
};

/**
 * Appearance-order name table for normalized inputs/offsets, reused
 * across strands. The per-strand name count is tiny, so first-seen
 * lookup is a linear scan over a flat vector.
 */
class NameTable
{
  public:
    void
    reset()
    {
        inputs_.clear();
        offsets_.clear();
    }

    std::size_t
    input_name(ir::RegId reg)
    {
        for (std::size_t i = 0; i < inputs_.size(); ++i) {
            if (inputs_[i] == reg) {
                return i;
            }
        }
        inputs_.push_back(reg);
        return inputs_.size() - 1;
    }

    std::size_t
    offset_name(std::uint64_t raw)
    {
        for (std::size_t i = 0; i < offsets_.size(); ++i) {
            if (offsets_[i] == raw) {
                return i;
            }
        }
        offsets_.push_back(raw);
        return offsets_.size() - 1;
    }

  private:
    std::vector<ir::RegId> inputs_;
    std::vector<std::uint64_t> offsets_;
};

/** Streams canonical bytes straight into an FNV-1a state. */
struct HashSink
{
    std::uint64_t state = kFnv1a64Seed;

    void append(std::string_view s) { state = fnv1a64_update(state, s); }
    void append(char c) { state = fnv1a64_update(state, c); }
};

/** Accumulates the canonical bytes as a string (the reference oracle). */
struct StringSink
{
    std::string out;

    void append(std::string_view s) { out.append(s); }
    void append(char c) { out.push_back(c); }
};

/** Decimal digits of @p v, no allocation. */
template <typename Sink>
void
append_dec(Sink &sink, std::uint64_t v)
{
    char buf[20];
    char *p = buf + sizeof(buf);
    do {
        *--p = static_cast<char>('0' + v % 10);
        v /= 10;
    } while (v != 0);
    sink.append(std::string_view(p, static_cast<std::size_t>(
                                        buf + sizeof(buf) - p)));
}

/** Lowercase hex digits of @p v without the 0x prefix (matches %llx). */
template <typename Sink>
void
append_hex(Sink &sink, std::uint64_t v)
{
    static constexpr char kDigits[] = "0123456789abcdef";
    char buf[16];
    char *p = buf + sizeof(buf);
    do {
        *--p = kDigits[v & 15];
        v >>= 4;
    } while (v != 0);
    sink.append(std::string_view(p, static_cast<std::size_t>(
                                        buf + sizeof(buf) - p)));
}

/**
 * Emits an expression tree with appearance-order name normalization.
 *
 * Every token is appended in an explicitly sequenced left-to-right
 * order — the canonical byte format contract (DESIGN.md section 12).
 * This is what makes the streamed hash equal the hash of the printed
 * string, and the name numbering independent of the compiler's
 * argument-evaluation order.
 */
template <typename Sink>
class Emitter
{
  public:
    Emitter(const Builder &builder, const CanonOptions &options,
            NameTable &names, Sink &sink)
        : b_(builder), opt_(options), names_(names), sink_(sink)
    {
    }

    void
    print(int i)
    {
        const Expr &e = b_.at(i);
        switch (e.kind) {
          case Expr::Kind::Const:
            sink_.append("0x");
            append_hex(sink_, e.cval);
            return;
          case Expr::Kind::Input:
            if (!opt_.normalize_names) {
                sink_.append('r');
                append_dec(sink_, e.reg);
                return;
            }
            sink_.append("reg");
            append_dec(sink_, names_.input_name(e.reg));
            return;
          case Expr::Kind::Offset:
            if (!opt_.normalize_names) {
                sink_.append("0x");
                append_hex(sink_, e.raw);
                return;
            }
            sink_.append("off");
            append_dec(sink_, names_.offset_name(e.raw));
            return;
          case Expr::Kind::Load:
            sink_.append("load(");
            print(e.a);
            sink_.append(')');
            return;
          case Expr::Kind::Call:
            sink_.append("call(");
            print(e.a);
            sink_.append(')');
            return;
          case Expr::Kind::Select:
            sink_.append("ite(");
            print(e.a);
            sink_.append(", ");
            print(e.b);
            sink_.append(", ");
            print(e.c);
            sink_.append(')');
            return;
          case Expr::Kind::Un:
            sink_.append(std::string_view(ir::unop_name(e.un)));
            sink_.append('(');
            print(e.a);
            sink_.append(')');
            return;
          case Expr::Kind::Bin:
            sink_.append(std::string_view(ir::binop_name(e.bin)));
            sink_.append('(');
            print(e.a);
            sink_.append(", ");
            print(e.b);
            sink_.append(')');
            return;
        }
        sink_.append('?');
    }

  private:
    const Builder &b_;
    const CanonOptions &opt_;
    NameTable &names_;
    Sink &sink_;
};

/**
 * Reusable per-procedure canonicalization state: one arena, one
 * evaluator, one name table, one slicer, shared by every strand.
 * begin_strand() resets the per-strand pieces in O(1) (amortized)
 * without freeing memory.
 */
struct Workspace
{
    Builder builder;
    StrandEval eval;
    NameTable names;
    StrandSlicer slicer;

    explicit Workspace(const CanonOptions &options)
        : builder(options), eval(builder)
    {
    }

    void
    begin_strand()
    {
        builder.reset();
        eval.begin_strand();
        names.reset();
    }
};

/**
 * Lightweight strand view over a block's statement array: the slicer's
 * index span stands in for a materialized std::vector<Stmt>. Duck-typed
 * against Strand for the emit templates.
 */
struct IndexedStrand
{
    const std::vector<Stmt> &stmts;
    const std::uint32_t *idx;
    std::size_t count;

    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }
    const Stmt &operator[](std::size_t k) const { return stmts[idx[k]]; }
    const Stmt &back() const { return stmts[idx[count - 1]]; }
};

/**
 * Canonicalize @p strand into @p sink. Root handling mirrors the
 * paper's register folding: a Put root under name normalization prints
 * as the strand's return value. Operand evaluation and printing are
 * explicitly sequenced left to right.
 */
template <typename Sink, typename StrandLike>
void
emit_strand(Workspace &ws, const StrandLike &strand,
            const CanonOptions &options, Sink &sink)
{
    ws.begin_strand();
    for (std::size_t i = 0; i + 1 < strand.size(); ++i) {
        ws.eval.eval(strand[i]);
    }
    const Stmt &root = strand.back();
    Emitter<Sink> emit(ws.builder, options, ws.names, sink);
    switch (root.kind) {
      case Stmt::Kind::Put: {
        const int v = ws.eval.operand(root.a);
        if (options.normalize_names) {
            // Register folding: the stored-to register is anonymized;
            // the computed value is the strand's return value.
            sink.append("ret ");
            emit.print(v);
            return;
        }
        sink.append("put r");
        append_dec(sink, root.reg);
        sink.append(", ");
        emit.print(v);
        return;
      }
      case Stmt::Kind::Store: {
        const int addr = ws.eval.operand(root.a);
        const int value = ws.eval.operand(root.b);
        sink.append("store(");
        emit.print(addr);
        sink.append(", ");
        emit.print(value);
        sink.append(')');
        return;
      }
      case Stmt::Kind::Exit: {
        const int cond = ws.eval.operand(root.a);
        const int target = ws.eval.operand(root.b);
        sink.append("exit(");
        emit.print(cond);
        sink.append(") -> ");
        emit.print(target);
        return;
      }
      case Stmt::Kind::Call: {
        const int target = ws.eval.operand(root.a);
        sink.append("call(");
        emit.print(target);
        sink.append(')');
        return;
      }
      default: {
        // A value-producing statement nothing in the block consumes.
        ws.eval.eval(root);
        const int bound = ws.eval.temp_node(root.dst);
        const int v =
            bound >= 0 ? bound : ws.eval.operand(Operand::none());
        sink.append("val ");
        emit.print(v);
        return;
      }
    }
}

/** Hash one strand by streaming its canonical bytes into FNV-1a. */
template <typename StrandLike>
std::uint64_t
hash_strand(Workspace &ws, const StrandLike &strand,
            const CanonOptions &options)
{
    if (strand.empty()) {
        return kFnv1a64Seed;  // == fnv1a64("")
    }
    HashSink sink;
    emit_strand(ws, strand, options, sink);
    return sink.state;
}

}  // namespace

std::string
canonical_strand(const Strand &strand, const CanonOptions &options)
{
    if (strand.empty()) {
        return "";
    }
    Workspace ws(options);
    StringSink sink;
    emit_strand(ws, strand, options, sink);
    return std::move(sink.out);
}

std::uint64_t
strand_hash(const Strand &strand, const CanonOptions &options)
{
    Workspace ws(options);
    return hash_strand(ws, strand, options);
}

void
ProcedureStrands::finalize()
{
    std::sort(hashes.begin(), hashes.end());
    hashes.erase(std::unique(hashes.begin(), hashes.end()),
                 hashes.end());
}

bool
ProcedureStrands::contains(std::uint64_t h) const
{
    return std::binary_search(hashes.begin(), hashes.end(), h);
}

ProcedureStrands
strand_set(std::vector<std::uint64_t> hashes)
{
    ProcedureStrands out;
    out.hashes = std::move(hashes);
    out.finalize();
    return out;
}

ProcedureStrands
represent_procedure(const ir::Procedure &proc, const CanonOptions &options)
{
    ProcedureStrands out;
    out.block_count = proc.blocks.size();
    Workspace ws(options);
    // Slice + canonicalize + hash one block into @p dst: the slicer
    // yields reusable index spans and the hash streams the canonical
    // bytes, so nothing is materialized. canonical_strings() is the
    // reference (copied strands, canonical strings) it must match.
    const auto hash_block_into = [&ws, &options](
                                     const ir::Block &block,
                                     std::vector<std::uint64_t> &dst) {
        ws.slicer.decompose(block);
        for (std::size_t s = 0; s < ws.slicer.strand_count(); ++s) {
            const IndexedStrand view{block.stmts, ws.slicer.indexes(s),
                                     ws.slicer.size(s)};
            dst.push_back(hash_strand(ws, view, options));
        }
    };
    std::vector<std::uint64_t> scratch;
    std::uint64_t strands = 0;
    for (const auto &[addr, block] : proc.blocks) {
        out.stmt_count += block.stmts.size();
        if (options.memo != nullptr) {
            const CanonMemo::Key key = block_memo_key(block, options);
            const std::vector<std::uint64_t> *span =
                options.memo->find(key);
            if (span == nullptr) {
                scratch.clear();
                hash_block_into(block, scratch);
                span = options.memo->publish(key, scratch);
            }
            out.hashes.insert(out.hashes.end(), span->begin(),
                              span->end());
            strands += span->size();
            continue;
        }
        const std::size_t before = out.hashes.size();
        hash_block_into(block, out.hashes);
        strands += out.hashes.size() - before;
    }
    out.finalize();
    c_procedures.add();
    // Strand/pass accounting counts represented strands — on a memo hit
    // that is the memoized span's length, so the totals equal a memo-off
    // run's and stay invariant across worker-thread counts.
    c_strands.add(strands);
    // Each strand runs the enabled canonicalization passes (offset
    // elimination, symbolic re-optimization, name normalization).
    const std::uint64_t enabled_passes =
        (options.eliminate_offsets ? 1u : 0u) +
        (options.optimize ? 1u : 0u) + (options.normalize_names ? 1u : 0u);
    c_passes.add(strands * enabled_passes);
    return out;
}

std::vector<std::string>
canonical_strings(const ir::Procedure &proc, const CanonOptions &options)
{
    std::vector<std::string> out;
    Workspace ws(options);
    for (const auto &[addr, block] : proc.blocks) {
        for (const Strand &strand : decompose_block(block)) {
            if (strand.empty()) {
                out.emplace_back();
                continue;
            }
            StringSink sink;
            emit_strand(ws, strand, options, sink);
            out.push_back(std::move(sink.out));
        }
    }
    return out;
}

}  // namespace firmup::strand
