/**
 * @file
 * µIR — the VEX-like intermediate representation produced by the lifters.
 *
 * The paper (section 3.1) lifts machine code to Valgrind's VEX-IR because
 * assembly is "succinct and not expressive": sub-registers alias and flag
 * side-effects are implicit. µIR plays the same role here. Its properties,
 * chosen to match what the strand machinery (section 3.2) relies on:
 *
 *  - Temporaries are in SSA form *within a basic block* (each temp is
 *    assigned exactly once); guest registers carry state across statements
 *    via explicit Get/Put statements.
 *  - All side effects are explicit: a lifted compare instruction Puts every
 *    flag register it defines.
 *  - Calls are ordinary statements (basic blocks do not split at calls,
 *    matching IDA-style block extraction used by the paper; see Fig. 1(a)
 *    where `jalr` appears mid-block).
 *
 * Guest registers are identified by flat RegId values; the mapping to names
 * is per-ISA and irrelevant to canonicalization, which folds registers into
 * normalized procedure inputs anyway.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace firmup::ir {

/** Flat guest-register identifier (per-ISA numbering, plus pseudo regs). */
using RegId = std::uint16_t;

/** Temporary identifier, SSA within a block. */
using TempId = std::uint32_t;

/** Binary operators. Comparisons yield 0/1 in a 32-bit temp. */
enum class BinOp : std::uint8_t {
    Add, Sub, Mul, DivS, DivU, RemS, RemU,
    And, Or, Xor, Shl, ShrL, ShrA,
    CmpEQ, CmpNE, CmpLTS, CmpLTU, CmpLES, CmpLEU,
};

/** Unary operators. */
enum class UnOp : std::uint8_t { Neg, Not };

/** Name of a binary operator, for printing. */
const char *binop_name(BinOp op);
/** Name of a unary operator, for printing. */
const char *unop_name(UnOp op);

/** True for CmpEQ..CmpLEU. */
bool is_comparison(BinOp op);
/** True for Add/Mul/And/Or/Xor/CmpEQ/CmpNE (operand order irrelevant). */
bool is_commutative(BinOp op);

/** An operand: either a temporary or an immediate constant. */
struct Operand
{
    enum class Kind : std::uint8_t { None, Temp, Const } kind = Kind::None;
    std::uint64_t value = 0;  ///< TempId or 32-bit constant (zero-extended)

    static Operand temp(TempId t) { return {Kind::Temp, t}; }
    static Operand imm(std::uint32_t c) { return {Kind::Const, c}; }
    static Operand none() { return {}; }

    bool is_temp() const { return kind == Kind::Temp; }
    bool is_const() const { return kind == Kind::Const; }
    TempId as_temp() const { return static_cast<TempId>(value); }
    std::uint32_t as_const() const { return static_cast<std::uint32_t>(value); }

    bool operator==(const Operand &) const = default;
};

/**
 * One µIR statement.
 *
 * Statement kinds and their operand usage:
 *  - Get:    dst = guest register `reg`
 *  - Put:    guest register `reg` = a
 *  - Bin:    dst = binop(a, b)
 *  - Un:     dst = unop(a)
 *  - Load:   dst = mem[a]
 *  - Store:  mem[a] = b
 *  - Select: dst = a ? b : c   (c stored in `extra`)
 *  - Call:   dst = call a      (dst models the ABI return register value)
 *  - Exit:   if (a) goto const b   (side exit; `b` is a code address)
 */
struct Stmt
{
    enum class Kind : std::uint8_t {
        Get, Put, Bin, Un, Load, Store, Select, Call, Exit,
    };

    Kind kind;
    TempId dst = 0;          ///< defined temp (Get/Bin/Un/Load/Select/Call)
    RegId reg = 0;           ///< guest register (Get/Put)
    BinOp bin_op = BinOp::Add;
    UnOp un_op = UnOp::Neg;
    Operand a, b;
    Operand extra;           ///< Select's false-arm
    std::uint64_t insn_addr = 0;  ///< address of the originating instruction

    static Stmt get(TempId dst, RegId reg);
    static Stmt put(RegId reg, Operand a);
    static Stmt bin(TempId dst, BinOp op, Operand a, Operand b);
    static Stmt un(TempId dst, UnOp op, Operand a);
    static Stmt load(TempId dst, Operand addr);
    static Stmt store(Operand addr, Operand value);
    static Stmt select(TempId dst, Operand cond, Operand t, Operand f);
    static Stmt call(TempId dst, Operand target);
    static Stmt exit(Operand cond, Operand target);

    /** True for kinds that define `dst`. */
    bool
    defines_temp() const
    {
        switch (kind) {
          case Kind::Get:
          case Kind::Bin:
          case Kind::Un:
          case Kind::Load:
          case Kind::Select:
          case Kind::Call:
            return true;
          case Kind::Put:
          case Kind::Store:
          case Kind::Exit:
            return false;
        }
        return false;
    }
};

/** How a basic block transfers control at its end. */
enum class BlockEndKind : std::uint8_t {
    Fallthrough,  ///< falls into the next block
    Jump,         ///< unconditional jump to `target`
    CondJump,     ///< Exit statement taken => `target`, else fallthrough
    Ret,          ///< procedure return
};

/** A µIR basic block: statements plus structured control-flow exit. */
struct Block
{
    std::uint64_t addr = 0;        ///< guest address of the first instruction
    std::vector<Stmt> stmts;
    BlockEndKind end = BlockEndKind::Fallthrough;
    std::uint64_t target = 0;      ///< jump/branch destination address
    std::uint64_t fallthrough = 0; ///< address of the fallthrough successor

    /** Successor block addresses implied by `end`. */
    std::vector<std::uint64_t> successors() const;
};

/** A lifted procedure: CFG of blocks keyed by address. */
struct Procedure
{
    std::uint64_t entry = 0;
    std::string name;              ///< empty when stripped
    std::map<std::uint64_t, Block> blocks;

    /** Addresses of procedures this one calls with constant targets. */
    std::vector<std::uint64_t> callees() const;

    /** Total statement count across all blocks. */
    std::size_t stmt_count() const;
};

/**
 * A variable for data-flow purposes: a temp or a guest register.
 * Memory is deliberately not modeled as a variable: a Load is an input
 * leaf of its strand and a Store is an outward-facing output, matching
 * the per-block slicing granularity of Alg. 1.
 */
struct Var
{
    enum class Kind : std::uint8_t { Temp, Reg } kind;
    std::uint32_t id;

    static Var temp(TempId t) { return {Kind::Temp, t}; }
    static Var reg(RegId r) { return {Kind::Reg, r}; }

    bool operator==(const Var &) const = default;
    auto operator<=>(const Var &) const = default;
};

/** Variables read (used) by a statement — RSet in Alg. 1. */
std::vector<Var> read_set(const Stmt &s);
/** Variables written (defined) by a statement — WSet in Alg. 1. */
std::vector<Var> write_set(const Stmt &s);

/** Render a statement as text (for debugging and the Fig. 3 example). */
std::string to_string(const Stmt &s);
/** Render a whole block. */
std::string to_string(const Block &b);
/** Render a whole procedure. */
std::string to_string(const Procedure &p);

}  // namespace firmup::ir
