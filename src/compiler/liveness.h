/**
 * @file
 * Backward liveness of MIR virtual registers, one bit per vreg packed in
 * 64-bit words. Dead-code elimination (passes.cc) and the register
 * allocator (codegen/regalloc.cc) both read it.
 */
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "compiler/mir.h"

namespace firmup::compiler {

/** Call @p fn with every vreg @p inst reads. */
template <typename Fn>
void
for_each_use(const MInst &inst, Fn fn)
{
    switch (inst.kind) {
      case MInst::Kind::Const:
      case MInst::Kind::GAddr:
        break;
      case MInst::Kind::Copy:
      case MInst::Kind::Load:
        fn(inst.a);
        break;
      case MInst::Kind::Bin:
      case MInst::Kind::Store:
        fn(inst.a);
        if (inst.b.is_vreg()) {
            fn(inst.b.reg);
        }
        break;
      case MInst::Kind::Call:
        for (VReg arg : inst.args) {
            fn(arg);
        }
        break;
    }
}

/**
 * A set of the vregs below a fixed bound (a procedure's next_vreg).
 * Vregs at or above the bound are never members: inserting one is a
 * no-op.
 */
class VRegSet
{
  public:
    explicit VRegSet(std::size_t bound = 0)
        : bound_(bound), words_((bound + 63) / 64, 0)
    {
    }

    bool
    contains(VReg v) const
    {
        return v < bound_ && ((words_[v >> 6] >> (v & 63)) & 1) != 0;
    }

    void
    insert(VReg v)
    {
        if (v < bound_) {
            words_[v >> 6] |= std::uint64_t{1} << (v & 63);
        }
    }

    void
    erase(VReg v)
    {
        if (v < bound_) {
            words_[v >> 6] &= ~(std::uint64_t{1} << (v & 63));
        }
    }

    void clear() { std::fill(words_.begin(), words_.end(), 0); }

    /** Add every member of @p other, a set with the same bound. */
    void
    unite(const VRegSet &other)
    {
        for (std::size_t w = 0; w < words_.size(); ++w) {
            words_[w] |= other.words_[w];
        }
    }

    /** Call @p fn with every member, ascending. */
    template <typename Fn>
    void
    for_each(Fn fn) const
    {
        for (std::size_t w = 0; w < words_.size(); ++w) {
            for (std::uint64_t bits = words_[w]; bits != 0;
                 bits &= bits - 1) {
                fn(static_cast<VReg>(64 * w + std::countr_zero(bits)));
            }
        }
    }

  private:
    friend class Liveness;

    std::size_t bound_;
    std::vector<std::uint64_t> words_;
};

/**
 * The vregs live at each block boundary of one procedure, from the
 * iterative backward fixpoint over its CFG. A successor id that names no
 * block contributes nothing.
 */
class Liveness
{
  public:
    explicit Liveness(const MProc &proc);

    /** Vregs live on entry to proc.blocks[@p block]. */
    const VRegSet &live_in(std::size_t block) const
    {
        return live_in_[block];
    }

    /**
     * Overwrite @p out with the vregs live after the last instruction of
     * proc.blocks[@p block]: its successors' live-in plus the vreg its
     * terminator reads. @p out must have the procedure's bound.
     */
    void live_out(std::size_t block, VRegSet &out) const;

  private:
    /** A block's successors (by position) and its terminator's use. */
    struct Exit
    {
        static constexpr std::size_t kNone = SIZE_MAX;
        std::size_t succ[2] = {kNone, kNone};
        VReg use = 0;
        bool has_use = false;
    };

    std::vector<Exit> exits_;
    std::vector<VRegSet> live_in_;
};

}  // namespace firmup::compiler
