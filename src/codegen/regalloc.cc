#include "codegen/regalloc.h"

#include <algorithm>

#include "compiler/liveness.h"
#include "support/error.h"

namespace firmup::codegen {

using compiler::for_each_use;
using compiler::MBlock;
using compiler::MInst;
using compiler::MProc;
using compiler::VReg;

namespace {

struct Interval
{
    VReg vreg = 0;
    int start = 0;
    int end = 0;
    bool crosses_call = false;
    bool used = false;
};

}  // namespace

Allocation
allocate_registers(const MProc &proc, const isa::AbiInfo &abi,
                   bool callee_saved_first)
{
    const std::size_t n_vregs = proc.next_vreg;
    Allocation out;
    out.locs.resize(n_vregs);

    const compiler::Liveness liveness(proc);
    compiler::VRegSet live_out(n_vregs);

    // Assign linear positions: each instruction gets one slot, block
    // boundaries get their own positions so cross-block liveness extends
    // intervals to the whole block span.
    std::vector<Interval> ivs(n_vregs);
    for (std::size_t v = 0; v < n_vregs; ++v) {
        ivs[v].vreg = static_cast<VReg>(v);
        ivs[v].start = INT32_MAX;
        ivs[v].end = -1;
    }
    auto touch = [&ivs](VReg v, int pos) {
        ivs[v].used = true;
        ivs[v].start = std::min(ivs[v].start, pos);
        ivs[v].end = std::max(ivs[v].end, pos);
    };

    std::vector<int> call_positions;
    int pos = 0;
    for (std::size_t bi = 0; bi < proc.blocks.size(); ++bi) {
        const MBlock &block = proc.blocks[bi];
        const int block_start = pos++;
        // live-in vregs are live at the block start position.
        liveness.live_in(bi).for_each(
            [&touch, block_start](VReg v) { touch(v, block_start); });
        for (const MInst &inst : block.insts) {
            for_each_use(inst,
                         [&touch, pos](VReg r) { touch(r, pos); });
            if (inst.has_dst()) {
                touch(inst.dst, pos);
            }
            if (inst.kind == MInst::Kind::Call) {
                call_positions.push_back(pos);
            }
            ++pos;
        }
        const int block_end = pos++;
        // live-out (successors' live-in plus the terminator's operand) is
        // live at the block end position.
        liveness.live_out(bi, live_out);
        live_out.for_each(
            [&touch, block_end](VReg v) { touch(v, block_end); });
    }
    // Parameters are live-in to the procedure.
    for (int i = 0; i < proc.num_params; ++i) {
        const auto v = static_cast<VReg>(i);
        if (v < n_vregs && ivs[v].used) {
            ivs[v].start = 0;
        }
    }

    for (Interval &iv : ivs) {
        if (!iv.used) {
            continue;
        }
        for (int cp : call_positions) {
            if (iv.start < cp && iv.end > cp) {
                iv.crosses_call = true;
                break;
            }
        }
    }

    // Linear scan.
    std::vector<Interval> order;
    for (const Interval &iv : ivs) {
        if (iv.used) {
            order.push_back(iv);
        }
    }
    std::sort(order.begin(), order.end(),
              [](const Interval &a, const Interval &b) {
                  return a.start != b.start ? a.start < b.start
                                            : a.vreg < b.vreg;
              });

    std::vector<isa::MReg> free_caller = abi.caller_saved;
    std::vector<isa::MReg> free_callee = abi.callee_saved;
    struct Active
    {
        VReg vreg;
        int end;
        isa::MReg reg;
        bool callee;
    };
    std::vector<Active> active;
    auto release = [&](const Active &a) {
        (a.callee ? free_callee : free_caller).push_back(a.reg);
    };

    for (const Interval &iv : order) {
        std::erase_if(active, [&](const Active &a) {
            if (a.end < iv.start) {
                release(a);
                return true;
            }
            return false;
        });
        isa::MReg reg = 0;
        bool assigned = false;
        bool is_callee = false;
        auto take = [&](std::vector<isa::MReg> &pool, bool callee) {
            if (!assigned && !pool.empty()) {
                reg = pool.front();
                pool.erase(pool.begin());
                assigned = true;
                is_callee = callee;
            }
        };
        if (iv.crosses_call) {
            take(free_callee, true);
        } else if (callee_saved_first) {
            take(free_callee, true);
            take(free_caller, false);
        } else {
            take(free_caller, false);
            take(free_callee, true);
        }
        if (assigned) {
            out.locs[iv.vreg] = Loc{Loc::Kind::Reg, reg, 0};
            active.push_back(Active{iv.vreg, iv.end, reg, is_callee});
            if (is_callee &&
                std::find(out.used_callee_saved.begin(),
                          out.used_callee_saved.end(),
                          reg) == out.used_callee_saved.end()) {
                out.used_callee_saved.push_back(reg);
            }
        } else {
            out.locs[iv.vreg] =
                Loc{Loc::Kind::Spill, 0, out.num_spill_slots++};
        }
    }
    return out;
}

}  // namespace firmup::codegen
