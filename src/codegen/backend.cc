#include "codegen/backend.h"

#include "compiler/liveness.h"
#include "support/error.h"

namespace firmup::codegen {

using compiler::for_each_use;
using compiler::MBlock;
using compiler::MInst;
using compiler::MOp;
using compiler::MProc;
using compiler::MTerm;
using compiler::VReg;

namespace {

isa::Cond
cond_for(MOp op)
{
    switch (op) {
      case MOp::CmpEQ: return isa::Cond::EQ;
      case MOp::CmpNE: return isa::Cond::NE;
      case MOp::CmpLTS: return isa::Cond::LTS;
      case MOp::CmpLES: return isa::Cond::LES;
      case MOp::CmpLTU: return isa::Cond::LTU;
      case MOp::CmpLEU: return isa::Cond::LEU;
      default:
        FIRMUP_ASSERT(false, "not a compare");
    }
}

}  // namespace

Backend::Backend(isa::Arch arch, const compiler::ToolchainProfile &profile)
    : target_(isa::target_for(arch)), abi_(*target_.abi),
      profile_(profile)
{
}

void
Backend::bind(int label)
{
    code_.labels[label] = static_cast<int>(code_.insts.size());
}

isa::MReg
Backend::value_reg(VReg v, isa::MReg scratch)
{
    const Loc &loc = alloc_.locs[v];
    switch (loc.kind) {
      case Loc::Kind::Reg:
        return loc.reg;
      case Loc::Kind::Spill: {
        isa::MReg base = 0;
        std::int32_t disp = 0;
        spill_addr(loc.slot, base, disp);
        load_word(scratch, base, disp);
        return scratch;
      }
      case Loc::Kind::None:
        // Value never computed (unreachable code paths); any register is
        // as correct as any other.
        return scratch;
    }
    return scratch;
}

isa::MReg
Backend::dest_reg(VReg v, isa::MReg scratch) const
{
    const Loc &loc = alloc_.locs[v];
    return loc.is_reg() ? loc.reg : scratch;
}

void
Backend::store_result(VReg v, isa::MReg from)
{
    const Loc &loc = alloc_.locs[v];
    switch (loc.kind) {
      case Loc::Kind::Reg:
        if (loc.reg != from) {
            move(loc.reg, from);
        }
        break;
      case Loc::Kind::Spill: {
        isa::MReg base = 0;
        std::int32_t disp = 0;
        spill_addr(loc.slot, base, disp);
        store_word(from, base, disp);
        break;
      }
      case Loc::Kind::None:
        break;
    }
}

void
Backend::load_into(isa::MReg dst, VReg v)
{
    const Loc &loc = alloc_.locs[v];
    switch (loc.kind) {
      case Loc::Kind::Reg:
        if (loc.reg != dst) {
            move(dst, loc.reg);
        }
        break;
      case Loc::Kind::Spill: {
        isa::MReg base = 0;
        std::int32_t disp = 0;
        spill_addr(loc.slot, base, disp);
        load_word(dst, base, disp);
        break;
      }
      case Loc::Kind::None:
        load_const(dst, 0);
        break;
    }
}

void
Backend::bin_ri(MOp op, isa::MReg rd, isa::MReg a, std::int32_t imm)
{
    // Fallback: materialize into scratch1 (never holds operand a by the
    // driver's conventions) and use the register form.
    load_const(abi_.scratch1, imm);
    bin_rr(op, rd, a, abi_.scratch1);
}

void
Backend::param_init(int index, VReg v)
{
    FIRMUP_ASSERT(static_cast<std::size_t>(index) < abi_.arg_regs.size(),
                  "too many register parameters");
    store_result(v, abi_.arg_regs[static_cast<std::size_t>(index)]);
}

void
Backend::call_sequence(const MInst &inst)
{
    FIRMUP_ASSERT(inst.args.size() <= abi_.arg_regs.size(),
                  "too many call arguments");
    for (std::size_t i = 0; i < inst.args.size(); ++i) {
        load_into(abi_.arg_regs[i], inst.args[i]);
    }
    emit_call_inst(inst.callee);
    store_result(inst.dst, abi_.ret_reg);
}

std::vector<int>
Backend::count_uses() const
{
    std::vector<int> counts(proc_->next_vreg, 0);
    for (const MBlock &block : proc_->blocks) {
        for (const MInst &inst : block.insts) {
            for_each_use(inst, [&counts](VReg r) { ++counts[r]; });
        }
        if (block.term.kind == MTerm::Kind::Branch) {
            ++counts[block.term.cond];
        } else if (block.term.kind == MTerm::Kind::Ret) {
            ++counts[block.term.ret_reg];
        }
    }
    return counts;
}

ProcCode
Backend::generate(const MProc &proc)
{
    proc_ = &proc;
    code_ = ProcCode{};
    code_.name = proc.name;
    code_.exported = proc.exported;
    skip_.clear();

    alloc_ = allocate_registers(proc, abi_, profile_.callee_saved_first);
    use_count_ = count_uses();
    has_call_ = false;
    for (const MBlock &block : proc.blocks) {
        for (const MInst &inst : block.insts) {
            has_call_ |= inst.kind == MInst::Kind::Call;
        }
    }

    // Pre-pass: identify compare instructions fused into branches and
    // add-immediates folded into load/store displacements.
    for (const MBlock &block : proc.blocks) {
        if (block.term.kind == MTerm::Kind::Branch &&
            !block.insts.empty()) {
            const MInst &last = block.insts.back();
            if (last.kind == MInst::Kind::Bin &&
                compiler::mop_is_compare(last.op) &&
                last.dst == block.term.cond &&
                use_count_[last.dst] == 1) {
                skip_.insert(&last);
            }
        }
        for (std::size_t i = 1; i < block.insts.size(); ++i) {
            const MInst &mem = block.insts[i];
            const MInst &prev = block.insts[i - 1];
            const bool is_mem = mem.kind == MInst::Kind::Load ||
                                mem.kind == MInst::Kind::Store;
            if (is_mem && prev.kind == MInst::Kind::Bin &&
                prev.op == MOp::Add && prev.b.is_imm() &&
                prev.dst == mem.a && use_count_[prev.dst] == 1 &&
                prev.a != prev.dst) {
                skip_.insert(&prev);
            }
        }
    }

    plan_frame();
    emit_prologue();
    for (int i = 0; i < proc.num_params; ++i) {
        const auto v = static_cast<VReg>(i);
        if (v < proc.next_vreg && use_count_[v] > 0) {
            param_init(i, v);
        }
    }

    for (std::size_t bi = 0; bi < proc.blocks.size(); ++bi) {
        const MBlock &block = proc.blocks[bi];
        bind(block.id);
        for (std::size_t ii = 0; ii < block.insts.size(); ++ii) {
            const MInst &inst = block.insts[ii];
            if (skip_.contains(&inst)) {
                continue;
            }
            // Folded addressing: load/store whose address is the skipped
            // add-immediate right before it.
            if ((inst.kind == MInst::Kind::Load ||
                 inst.kind == MInst::Kind::Store) &&
                ii > 0 && skip_.contains(&block.insts[ii - 1]) &&
                block.insts[ii - 1].dst == inst.a) {
                const MInst &addr = block.insts[ii - 1];
                const isa::MReg base = value_reg(addr.a, abi_.scratch0);
                const auto disp = addr.b.imm;
                if (inst.kind == MInst::Kind::Load) {
                    const isa::MReg rd = dest_reg(inst.dst, abi_.scratch0);
                    load_word(rd, base, disp);
                    store_result(inst.dst, rd);
                } else {
                    const isa::MReg val =
                        value_reg(inst.b.reg, abi_.scratch1);
                    store_word(val, base, disp);
                }
                continue;
            }
            emit_inst(inst);
        }
        const int next_id = bi + 1 < proc.blocks.size()
                                ? proc.blocks[bi + 1].id
                                : kEpilogueLabel;
        emit_terminator(block, next_id);
    }
    bind(kEpilogueLabel);
    emit_epilogue();
    finalize();

    proc_ = nullptr;
    return std::move(code_);
}

void
Backend::emit_inst(const MInst &inst)
{
    const isa::MReg s0 = abi_.scratch0;
    const isa::MReg s1 = abi_.scratch1;
    switch (inst.kind) {
      case MInst::Kind::Const: {
        const isa::MReg rd = dest_reg(inst.dst, s0);
        load_const(rd, inst.imm);
        store_result(inst.dst, rd);
        break;
      }
      case MInst::Kind::Copy: {
        const Loc &dst = alloc_.locs[inst.dst];
        if (dst.is_reg()) {
            load_into(dst.reg, inst.a);
        } else {
            const isa::MReg src = value_reg(inst.a, s0);
            store_result(inst.dst, src);
        }
        break;
      }
      case MInst::Kind::Bin: {
        const isa::MReg a = value_reg(inst.a, s0);
        const isa::MReg rd = dest_reg(inst.dst, s0);
        if (compiler::mop_is_compare(inst.op)) {
            const RVal b = inst.b.is_imm()
                               ? RVal::i(inst.b.imm)
                               : RVal::r(value_reg(inst.b.reg, s1));
            cmp_set(cond_for(inst.op), rd, a, b);
        } else if (inst.b.is_imm()) {
            bin_ri(inst.op, rd, a, inst.b.imm);
        } else {
            const isa::MReg b = value_reg(inst.b.reg, s1);
            bin_rr(inst.op, rd, a, b);
        }
        store_result(inst.dst, rd);
        break;
      }
      case MInst::Kind::GAddr: {
        const isa::MReg rd = dest_reg(inst.dst, s0);
        load_global_addr(rd, inst.global_index, 0);
        store_result(inst.dst, rd);
        break;
      }
      case MInst::Kind::Load: {
        const isa::MReg base = value_reg(inst.a, s0);
        const isa::MReg rd = dest_reg(inst.dst, s0);
        load_word(rd, base, 0);
        store_result(inst.dst, rd);
        break;
      }
      case MInst::Kind::Store: {
        const isa::MReg base = value_reg(inst.a, s0);
        const isa::MReg val = value_reg(inst.b.reg, s1);
        store_word(val, base, 0);
        break;
      }
      case MInst::Kind::Call:
        call_sequence(inst);
        break;
    }
}

void
Backend::emit_terminator(const MBlock &block, int next_id)
{
    switch (block.term.kind) {
      case MTerm::Kind::Jump:
        if (block.term.target != next_id) {
            jump(block.term.target);
        }
        break;
      case MTerm::Kind::Branch: {
        const MInst *fused = nullptr;
        if (!block.insts.empty() && skip_.contains(&block.insts.back()) &&
            block.insts.back().kind == MInst::Kind::Bin &&
            compiler::mop_is_compare(block.insts.back().op) &&
            block.insts.back().dst == block.term.cond) {
            fused = &block.insts.back();
        }
        if (fused != nullptr) {
            const isa::MReg a = value_reg(fused->a, abi_.scratch0);
            const RVal b =
                fused->b.is_imm()
                    ? RVal::i(fused->b.imm)
                    : RVal::r(value_reg(fused->b.reg, abi_.scratch1));
            cmp_branch(cond_for(fused->op), a, b, block.term.target);
        } else {
            const isa::MReg cond =
                value_reg(block.term.cond, abi_.scratch0);
            branch_nonzero(cond, block.term.target);
        }
        if (block.term.fallthrough != next_id) {
            jump(block.term.fallthrough);
        }
        break;
      }
      case MTerm::Kind::Ret:
        load_into(abi_.ret_reg, block.term.ret_reg);
        if (next_id != kEpilogueLabel) {
            jump(kEpilogueLabel);
        }
        break;
    }
}

}  // namespace firmup::codegen
