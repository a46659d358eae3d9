/**
 * @file
 * Linear-scan register allocation over MIR virtual registers.
 *
 * Intervals are built from iterative liveness; values live across a call
 * are restricted to callee-saved registers so the backends never need to
 * spill around call sites. Values that do not fit are assigned frame
 * spill slots; the backends rematerialize them through reserved scratch
 * registers.
 *
 * The allocation preference order (caller-saved first vs callee-saved
 * first) is a toolchain knob: it changes register *names* in otherwise
 * identical code, one of the syntactic differences visible in the paper's
 * Fig. 1 that strand canonicalization must dissolve.
 */
#pragma once

#include <vector>

#include "compiler/mir.h"
#include "isa/isa.h"

namespace firmup::codegen {

/** Where a vreg lives at execution time. */
struct Loc
{
    enum class Kind : std::uint8_t { None, Reg, Spill } kind = Kind::None;
    isa::MReg reg = 0;
    int slot = 0;

    bool is_reg() const { return kind == Kind::Reg; }
    bool is_spill() const { return kind == Kind::Spill; }
};

/** Result of register allocation for one procedure. */
struct Allocation
{
    std::vector<Loc> locs;                    ///< indexed by vreg
    std::vector<isa::MReg> used_callee_saved; ///< must be saved/restored
    int num_spill_slots = 0;
};

/** Allocate registers for @p proc under @p abi. */
Allocation allocate_registers(const compiler::MProc &proc,
                              const isa::AbiInfo &abi,
                              bool callee_saved_first);

}  // namespace firmup::codegen
