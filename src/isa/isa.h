/**
 * @file
 * Common definitions shared by the four target ISAs.
 *
 * The paper's corpus spans "MIPS32, ARM32, PPC32, and Intel-x86"
 * (section 1, Main contributions). We implement all four as simplified but
 * genuinely distinct machine languages: MIPS32 uses real MIPS-I/R6
 * encodings with branch delay slots; PPC32 is big-endian with a condition
 * register; ARM32 is little-endian with NZCV-style flags and a condition
 * field; x86 is little-endian, variable-length, two-operand with EFLAGS.
 * Deviations from the commercial ISAs (documented per header) do not matter
 * for the reproduction: both the assembler and the disassembler in this
 * repository speak the same language, and the binary-search problem is
 * unchanged.
 *
 * All ISAs share the MachInst carrier struct; the meaning of its operand
 * fields is per-ISA (each ISA header documents its usage).
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/bytes.h"
#include "support/error.h"

namespace firmup::isa {

/** Target architecture. */
enum class Arch : std::uint8_t { Mips32, Arm32, Ppc32, X86 };

/** Human-readable architecture name. */
const char *arch_name(Arch arch);

/** Instruction/data byte order of the architecture. */
bool arch_is_big_endian(Arch arch);

/** All architectures, in a fixed order (for sweeps and tests). */
inline constexpr Arch kAllArches[] = {Arch::Mips32, Arch::Arm32,
                                      Arch::Ppc32, Arch::X86};

/**
 * Comparison condition, always read as `a <cond> b` over the two values
 * that were most recently compared. Greater-than forms are canonicalized
 * by the compiler into swapped less-than forms, so six conditions suffice.
 */
enum class Cond : std::uint8_t { EQ, NE, LTS, LES, LTU, LEU };

/** Printable condition mnemonic suffix (eq, ne, lt, ...). */
const char *cond_name(Cond cond);

/** Machine register number (per-ISA numbering). */
using MReg = std::uint8_t;

/**
 * A decoded/encodable machine instruction.
 *
 * `op` holds a per-ISA opcode enum value. Operand field meaning is
 * ISA-specific; the symbolic `ref` fields carry unresolved references
 * emitted by the code generator and patched by the linker:
 *  - Block:     imm becomes the address of a block label (branch target)
 *  - Proc:      imm becomes the entry address of a module procedure
 *  - GlobalHi/GlobalLo: upper/lower half of a data-section address
 *  - GlobalAbs: full 32-bit data-section address
 */
struct MachInst
{
    enum class Ref : std::uint8_t {
        None, Block, Proc, ProcHi, ProcLo, GlobalHi, GlobalLo, GlobalAbs,
    };

    std::uint16_t op = 0;
    MReg rd = 0;
    MReg rs = 0;
    MReg rt = 0;
    Cond cond = Cond::EQ;
    std::int64_t imm = 0;

    Ref ref = Ref::None;
    int ref_index = 0;        ///< block id / proc index / global index
    std::int32_t ref_offset = 0;  ///< byte offset added to a global address
};

/** ABI description used by the code generator and the lifters. */
struct AbiInfo
{
    std::vector<MReg> arg_regs;   ///< argument registers (empty: stack args)
    MReg ret_reg = 0;             ///< return-value register
    MReg sp_reg = 0;              ///< stack pointer
    MReg fp_reg = 0;              ///< frame pointer (x86 only; else == sp)
    bool has_link_reg = false;
    MReg link_reg = 0;            ///< return-address register when present
    std::vector<MReg> caller_saved;  ///< allocatable, clobbered by calls
    std::vector<MReg> callee_saved;  ///< allocatable, preserved by calls
    MReg scratch0 = 0;            ///< reserved for spill/selection sequences
    MReg scratch1 = 0;
};

/** Result of decoding one instruction. */
struct Decoded
{
    MachInst inst;
    int size = 0;  ///< bytes consumed
};

/**
 * A decode failure: ErrorCode::UndecodableInsn with a fixed literal
 * message, so it allocates nothing. The lifter's prologue scan probes
 * every unclaimed aligned text address, and most of them fail. Callers
 * that show the failure name the bytes themselves (`firmup disasm`).
 */
template <std::size_t N>
Result<Decoded>
decode_error(const char (&message)[N])
{
    return Result<Decoded>::error(ErrorCode::UndecodableInsn, message);
}

/**
 * Per-ISA function table. One instance per architecture; obtained from
 * target_for(). Plain function pointers keep the table trivially copyable
 * and make the ISA boundary explicit.
 */
struct Target
{
    Arch arch;
    const AbiInfo *abi;

    /** Byte size the instruction will encode to (pre-layout). */
    int (*inst_size)(const MachInst &inst);

    /**
     * Append the encoding of @p inst (located at address @p addr, needed
     * for pc-relative fields) to @p out. Refs must be resolved.
     */
    void (*encode)(const MachInst &inst, std::uint64_t addr,
                   ByteBuffer &out);

    /**
     * Decode one instruction at @p p (with @p avail bytes remaining),
     * located at guest address @p addr. Branch/call targets come back as
     * absolute addresses in `imm`.
     */
    Result<Decoded> (*decode)(const std::uint8_t *p, std::size_t avail,
                              std::uint64_t addr);

    /** Render assembly text (for examples and debugging). */
    std::string (*disasm)(const MachInst &inst);

    /** Register name for assembly rendering. */
    const char *(*reg_name)(MReg reg);
};

/** The function table for @p arch. */
const Target &target_for(Arch arch);

}  // namespace firmup::isa
