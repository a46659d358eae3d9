#include "compiler/passes.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "compiler/liveness.h"
#include "support/error.h"

namespace firmup::compiler {

namespace {

/** Evaluate a folded binary operation. Divide-by-zero folds to 0. */
std::int32_t
eval_binop(MOp op, std::int32_t a, std::int32_t b)
{
    const auto ua = static_cast<std::uint32_t>(a);
    const auto ub = static_cast<std::uint32_t>(b);
    switch (op) {
      case MOp::Add: return static_cast<std::int32_t>(ua + ub);
      case MOp::Sub: return static_cast<std::int32_t>(ua - ub);
      case MOp::Mul: return static_cast<std::int32_t>(ua * ub);
      case MOp::DivS:
        if (b == 0 || (a == INT32_MIN && b == -1)) {
            return 0;
        }
        return a / b;
      case MOp::RemS:
        if (b == 0 || (a == INT32_MIN && b == -1)) {
            return 0;
        }
        return a % b;
      case MOp::And: return static_cast<std::int32_t>(ua & ub);
      case MOp::Or: return static_cast<std::int32_t>(ua | ub);
      case MOp::Xor: return static_cast<std::int32_t>(ua ^ ub);
      case MOp::Shl: return static_cast<std::int32_t>(ua << (ub & 31));
      case MOp::ShrA: return a >> (ub & 31);
      case MOp::ShrL: return static_cast<std::int32_t>(ua >> (ub & 31));
      case MOp::CmpEQ: return a == b;
      case MOp::CmpNE: return a != b;
      case MOp::CmpLTS: return a < b;
      case MOp::CmpLES: return a <= b;
      case MOp::CmpLTU: return ua < ub;
      case MOp::CmpLEU: return ua <= ub;
    }
    return 0;
}

bool
is_power_of_two(std::int32_t v)
{
    return v > 0 && (static_cast<std::uint32_t>(v) &
                     (static_cast<std::uint32_t>(v) - 1)) == 0;
}

int
log2_of(std::int32_t v)
{
    int n = 0;
    while ((1 << n) < v) {
        ++n;
    }
    return n;
}

}  // namespace

void
fold_constants(MProc &proc, bool strength_reduce)
{
    for (MBlock &block : proc.blocks) {
        std::map<VReg, std::int32_t> known;
        for (MInst &inst : block.insts) {
            // Resolve vreg operands that are known constants.
            if (inst.kind == MInst::Kind::Copy) {
                if (auto it = known.find(inst.a); it != known.end()) {
                    inst = MInst::make_const(inst.dst, it->second);
                }
            } else if (inst.kind == MInst::Kind::Bin) {
                if (inst.b.is_vreg()) {
                    if (auto it = known.find(inst.b.reg);
                        it != known.end()) {
                        inst.b = MVal::immediate(it->second);
                    }
                }
                const auto a_known = known.find(inst.a);
                if (a_known != known.end() && inst.b.is_imm()) {
                    inst = MInst::make_const(
                        inst.dst,
                        eval_binop(inst.op, a_known->second, inst.b.imm));
                } else if (inst.b.is_imm()) {
                    // Algebraic identities on a constant rhs.
                    const std::int32_t c = inst.b.imm;
                    switch (inst.op) {
                      case MOp::Add:
                      case MOp::Sub:
                      case MOp::Or:
                      case MOp::Xor:
                      case MOp::Shl:
                      case MOp::ShrA:
                      case MOp::ShrL:
                        if (c == 0) {
                            inst = MInst::copy(inst.dst, inst.a);
                        }
                        break;
                      case MOp::Mul:
                        if (c == 0) {
                            inst = MInst::make_const(inst.dst, 0);
                        } else if (c == 1) {
                            inst = MInst::copy(inst.dst, inst.a);
                        } else if (strength_reduce && is_power_of_two(c)) {
                            inst.op = MOp::Shl;
                            inst.b = MVal::immediate(log2_of(c));
                        }
                        break;
                      case MOp::And:
                        if (c == 0) {
                            inst = MInst::make_const(inst.dst, 0);
                        } else if (c == -1) {
                            inst = MInst::copy(inst.dst, inst.a);
                        }
                        break;
                      default:
                        break;
                    }
                }
            }
            // Update known-constant facts.
            if (inst.has_dst()) {
                known.erase(inst.dst);
                if (inst.kind == MInst::Kind::Const) {
                    known[inst.dst] = inst.imm;
                }
            }
        }
    }
}

void
propagate_copies(MProc &proc)
{
    for (MBlock &block : proc.blocks) {
        std::map<VReg, VReg> alias;  // dst -> original source
        auto resolve = [&alias](VReg r) {
            auto it = alias.find(r);
            return it != alias.end() ? it->second : r;
        };
        for (MInst &inst : block.insts) {
            // Rewrite uses through the alias map.
            switch (inst.kind) {
              case MInst::Kind::Copy:
              case MInst::Kind::Load:
                inst.a = resolve(inst.a);
                break;
              case MInst::Kind::Bin:
              case MInst::Kind::Store:
                inst.a = resolve(inst.a);
                if (inst.b.is_vreg()) {
                    inst.b = MVal::vreg(resolve(inst.b.reg));
                }
                break;
              case MInst::Kind::Call:
                for (VReg &arg : inst.args) {
                    arg = resolve(arg);
                }
                break;
              default:
                break;
            }
            if (inst.has_dst()) {
                // A redefinition invalidates aliases in both directions.
                alias.erase(inst.dst);
                for (auto it = alias.begin(); it != alias.end();) {
                    it = it->second == inst.dst ? alias.erase(it)
                                                : std::next(it);
                }
                if (inst.kind == MInst::Kind::Copy &&
                    inst.a != inst.dst) {
                    alias[inst.dst] = inst.a;
                }
            }
        }
        // Terminator uses are only safe to rewrite with aliases that
        // survived to the end of the block.
        if (block.term.kind == MTerm::Kind::Branch) {
            block.term.cond = resolve(block.term.cond);
        } else if (block.term.kind == MTerm::Kind::Ret) {
            block.term.ret_reg = resolve(block.term.ret_reg);
        }
    }
}

void
eliminate_common_subexpressions(MProc &proc)
{
    for (MBlock &block : proc.blocks) {
        // Version counters invalidate expressions whose inputs changed.
        std::map<VReg, int> version;
        auto ver = [&version](VReg r) {
            auto it = version.find(r);
            return it != version.end() ? it->second : 0;
        };
        struct Key
        {
            MInst::Kind kind;
            MOp op;
            VReg a;
            int a_ver;
            bool b_is_vreg;
            VReg b_reg;
            int b_ver;
            std::int32_t imm;
            int global_index;
            auto operator<=>(const Key &) const = default;
        };
        std::map<Key, VReg> available;
        int load_barrier = 0;  // stores/calls invalidate loads

        for (MInst &inst : block.insts) {
            std::optional<Key> key;
            switch (inst.kind) {
              case MInst::Kind::Bin:
                key = Key{inst.kind, inst.op, inst.a, ver(inst.a),
                          inst.b.is_vreg(),
                          inst.b.is_vreg() ? inst.b.reg : 0,
                          inst.b.is_vreg() ? ver(inst.b.reg) : 0,
                          inst.b.is_imm() ? inst.b.imm : 0, -1};
                break;
              case MInst::Kind::GAddr:
                key = Key{inst.kind, MOp::Add, 0, 0, false, 0, 0, 0,
                          inst.global_index};
                break;
              case MInst::Kind::Load:
                key = Key{inst.kind, MOp::Add, inst.a, ver(inst.a), false,
                          0, load_barrier, 0, -1};
                break;
              default:
                break;
            }
            if (inst.kind == MInst::Kind::Store ||
                inst.kind == MInst::Kind::Call) {
                ++load_barrier;
            }
            bool reused = false;
            if (key) {
                auto it = available.find(*key);
                if (it != available.end()) {
                    inst = MInst::copy(inst.dst, it->second);
                    reused = true;
                }
            }
            if (inst.has_dst()) {
                version[inst.dst] = ver(inst.dst) + 1;
                // Drop expressions whose cached dst was overwritten...
                for (auto it = available.begin(); it != available.end();) {
                    it = it->second == inst.dst ? available.erase(it)
                                                : std::next(it);
                }
                // ...then publish the freshly computed expression.
                if (key && !reused) {
                    available[*key] = inst.dst;
                }
            }
        }
    }
}

void
eliminate_dead_code(MProc &proc)
{
    const Liveness liveness(proc);
    VRegSet live(proc.next_vreg);
    // Delete instructions whose result is dead at that point.
    for (std::size_t bi = 0; bi < proc.blocks.size(); ++bi) {
        MBlock &block = proc.blocks[bi];
        liveness.live_out(bi, live);
        std::vector<MInst> kept;
        kept.reserve(block.insts.size());
        for (std::size_t ii = block.insts.size(); ii-- > 0;) {
            MInst &inst = block.insts[ii];
            const bool needed = inst.has_side_effects() ||
                                (inst.has_dst() && live.contains(inst.dst));
            if (!needed) {
                continue;
            }
            if (inst.has_dst()) {
                live.erase(inst.dst);
            }
            for_each_use(inst, [&live](VReg r) { live.insert(r); });
            kept.push_back(std::move(inst));
        }
        std::reverse(kept.begin(), kept.end());
        block.insts = std::move(kept);
    }
}

void
simplify_branches(MProc &proc)
{
    for (MBlock &block : proc.blocks) {
        if (block.term.kind != MTerm::Kind::Branch) {
            continue;
        }
        // Find the last in-block definition of the condition.
        std::optional<std::int32_t> value;
        for (const MInst &inst : block.insts) {
            if (inst.has_dst() && inst.dst == block.term.cond) {
                if (inst.kind == MInst::Kind::Const) {
                    value = inst.imm;
                } else {
                    value.reset();
                }
            }
        }
        if (value) {
            block.term = MTerm::jump(*value != 0 ? block.term.target
                                                 : block.term.fallthrough);
        }
    }
}

void
remove_unreachable_blocks(MProc &proc)
{
    std::set<int> reachable;
    std::vector<int> work{proc.blocks.empty() ? 0 : proc.blocks[0].id};
    while (!work.empty()) {
        const int id = work.back();
        work.pop_back();
        if (!reachable.insert(id).second) {
            continue;
        }
        const MBlock *b = proc.block_by_id(id);
        if (b == nullptr) {
            continue;
        }
        switch (b->term.kind) {
          case MTerm::Kind::Jump:
            work.push_back(b->term.target);
            break;
          case MTerm::Kind::Branch:
            work.push_back(b->term.target);
            work.push_back(b->term.fallthrough);
            break;
          case MTerm::Kind::Ret:
            break;
        }
    }
    std::erase_if(proc.blocks, [&reachable](const MBlock &b) {
        return !reachable.contains(b.id);
    });
}

void
merge_blocks(MProc &proc)
{
    bool changed = true;
    while (changed) {
        changed = false;
        // Count predecessors (and detect self-loops).
        std::map<int, int> preds;
        for (const MBlock &b : proc.blocks) {
            switch (b.term.kind) {
              case MTerm::Kind::Jump:
                ++preds[b.term.target];
                break;
              case MTerm::Kind::Branch:
                ++preds[b.term.target];
                ++preds[b.term.fallthrough];
                break;
              case MTerm::Kind::Ret:
                break;
            }
        }
        // Bypass empty forwarding blocks (B: jump C, B has no insts).
        std::map<int, int> forward;
        for (const MBlock &b : proc.blocks) {
            if (b.insts.empty() && b.term.kind == MTerm::Kind::Jump &&
                b.term.target != b.id) {
                forward[b.id] = b.term.target;
            }
        }
        auto resolve = [&forward](int id) {
            std::set<int> seen;
            while (forward.contains(id) && seen.insert(id).second) {
                id = forward[id];
            }
            return id;
        };
        for (MBlock &b : proc.blocks) {
            switch (b.term.kind) {
              case MTerm::Kind::Jump: {
                const int t = resolve(b.term.target);
                changed |= t != b.term.target;
                b.term.target = t;
                break;
              }
              case MTerm::Kind::Branch: {
                const int t = resolve(b.term.target);
                const int f = resolve(b.term.fallthrough);
                changed |= t != b.term.target ||
                           f != b.term.fallthrough;
                b.term.target = t;
                b.term.fallthrough = f;
                break;
              }
              case MTerm::Kind::Ret:
                break;
            }
        }
        remove_unreachable_blocks(proc);
        // Fuse B -> C when C is B's unique successor and B its unique
        // predecessor.
        preds.clear();
        for (const MBlock &b : proc.blocks) {
            switch (b.term.kind) {
              case MTerm::Kind::Jump:
                ++preds[b.term.target];
                break;
              case MTerm::Kind::Branch:
                ++preds[b.term.target];
                ++preds[b.term.fallthrough];
                break;
              case MTerm::Kind::Ret:
                break;
            }
        }
        for (MBlock &b : proc.blocks) {
            if (b.term.kind != MTerm::Kind::Jump ||
                b.term.target == b.id ||
                preds[b.term.target] != 1 ||
                b.term.target == proc.blocks.front().id) {
                continue;
            }
            MBlock *succ = proc.block_by_id(b.term.target);
            if (succ == nullptr) {
                continue;
            }
            b.insts.insert(b.insts.end(), succ->insts.begin(),
                           succ->insts.end());
            b.term = succ->term;
            succ->insts.clear();
            succ->term = MTerm::jump(succ->id);  // now unreachable
            changed = true;
            break;  // restart: pred counts are stale
        }
        remove_unreachable_blocks(proc);
    }
}

int
rotate_loops(MProc &proc)
{
    // Find while-shaped heads: H ends in Branch, some block jumps back
    // to H (backedge), and H's condition computation is side-effect
    // free. Rotation duplicates H into a guard block G; entry edges are
    // retargeted to G, backedges keep testing at H — the bottom-tested
    // form compilers emit at -O2.
    // Collect candidate head ids first; mutation below invalidates
    // iterators and shifts layout positions.
    std::vector<int> heads;
    int max_id = 0;
    for (const MBlock &b : proc.blocks) {
        max_id = std::max(max_id, b.id);
        if (b.term.kind != MTerm::Kind::Branch ||
            b.id == proc.blocks.front().id) {
            continue;
        }
        bool pure = true;
        for (const MInst &inst : b.insts) {
            pure &= !inst.has_side_effects();
        }
        if (!pure) {
            continue;
        }
        bool has_backedge = false;
        bool has_entry_edge = false;
        for (const MBlock &p : proc.blocks) {
            const bool reaches =
                (p.term.kind == MTerm::Kind::Jump &&
                 p.term.target == b.id) ||
                (p.term.kind == MTerm::Kind::Branch &&
                 (p.term.target == b.id || p.term.fallthrough == b.id));
            if (!reaches) {
                continue;
            }
            // Lowering assigns ids in source order: a predecessor with a
            // higher id is the loop body's backedge.
            if (p.id > b.id) {
                has_backedge = true;
            } else {
                has_entry_edge = true;
            }
        }
        if (has_backedge && has_entry_edge) {
            heads.push_back(b.id);
        }
    }

    int rotated = 0;
    for (int head_id : heads) {
        std::size_t head_pos = proc.blocks.size();
        for (std::size_t i = 0; i < proc.blocks.size(); ++i) {
            if (proc.blocks[i].id == head_id) {
                head_pos = i;
                break;
            }
        }
        if (head_pos == proc.blocks.size()) {
            continue;
        }
        MBlock guard;
        guard.id = ++max_id;
        guard.insts = proc.blocks[head_pos].insts;
        guard.term = proc.blocks[head_pos].term;
        // Retarget entry edges (lower-id predecessors) to the guard;
        // backedges and later blocks keep testing at the original head.
        for (MBlock &b : proc.blocks) {
            if (b.id >= head_id) {
                continue;
            }
            if (b.term.kind == MTerm::Kind::Jump &&
                b.term.target == head_id) {
                b.term.target = guard.id;
            } else if (b.term.kind == MTerm::Kind::Branch) {
                if (b.term.target == head_id) {
                    b.term.target = guard.id;
                }
                if (b.term.fallthrough == head_id) {
                    b.term.fallthrough = guard.id;
                }
            }
        }
        proc.blocks.insert(
            proc.blocks.begin() + static_cast<std::ptrdiff_t>(head_pos),
            std::move(guard));
        ++rotated;
    }
    return rotated;
}

void
swap_commutative_operands(MProc &proc)
{
    for (MBlock &block : proc.blocks) {
        for (MInst &inst : block.insts) {
            if (inst.kind == MInst::Kind::Bin &&
                mop_is_commutative(inst.op) && inst.b.is_vreg()) {
                std::swap(inst.a, inst.b.reg);
            }
        }
    }
}

void
reorder_blocks(MProc &proc, bool reverse)
{
    if (reverse && proc.blocks.size() > 2) {
        std::reverse(proc.blocks.begin() + 1, proc.blocks.end());
    }
}

int
inline_small_procs(MModule &module, int threshold)
{
    if (threshold <= 0) {
        return 0;
    }
    // Identify inlinable callees: a single block, no calls, ending in Ret.
    std::vector<bool> inlinable(module.procs.size(), false);
    for (std::size_t i = 0; i < module.procs.size(); ++i) {
        const MProc &p = module.procs[i];
        if (p.blocks.size() != 1 ||
            p.blocks[0].term.kind != MTerm::Kind::Ret ||
            p.inst_count() > static_cast<std::size_t>(threshold)) {
            continue;
        }
        bool has_call = false;
        for (const MInst &inst : p.blocks[0].insts) {
            has_call |= inst.kind == MInst::Kind::Call;
        }
        inlinable[i] = !has_call;
    }

    int inlined = 0;
    for (MProc &proc : module.procs) {
        for (MBlock &block : proc.blocks) {
            std::vector<MInst> out;
            for (MInst &inst : block.insts) {
                const bool can_inline =
                    inst.kind == MInst::Kind::Call && inst.callee >= 0 &&
                    static_cast<std::size_t>(inst.callee) <
                        module.procs.size() &&
                    inlinable[static_cast<std::size_t>(inst.callee)] &&
                    module.procs[static_cast<std::size_t>(inst.callee)]
                            .name != proc.name;
                if (!can_inline) {
                    out.push_back(std::move(inst));
                    continue;
                }
                const MProc &callee =
                    module.procs[static_cast<std::size_t>(inst.callee)];
                // Remap callee vregs into the caller's vreg space.
                std::map<VReg, VReg> remap;
                for (int a = 0; a < callee.num_params; ++a) {
                    remap[static_cast<VReg>(a)] =
                        static_cast<std::size_t>(a) < inst.args.size()
                            ? inst.args[static_cast<std::size_t>(a)]
                            : inst.args.empty() ? 0 : inst.args[0];
                }
                auto map_vreg = [&](VReg r) {
                    auto it = remap.find(r);
                    if (it != remap.end()) {
                        return it->second;
                    }
                    const VReg fresh = proc.fresh();
                    remap[r] = fresh;
                    return fresh;
                };
                for (const MInst &ci : callee.blocks[0].insts) {
                    MInst copy = ci;
                    // dst must map to a *fresh* name even when it shadows
                    // a parameter, so map uses first, then define dst.
                    switch (copy.kind) {
                      case MInst::Kind::Copy:
                      case MInst::Kind::Load:
                        copy.a = map_vreg(copy.a);
                        break;
                      case MInst::Kind::Bin:
                      case MInst::Kind::Store:
                        copy.a = map_vreg(copy.a);
                        if (copy.b.is_vreg()) {
                            copy.b = MVal::vreg(map_vreg(copy.b.reg));
                        }
                        break;
                      case MInst::Kind::Call:
                        for (VReg &arg : copy.args) {
                            arg = map_vreg(arg);
                        }
                        break;
                      default:
                        break;
                    }
                    if (copy.has_dst()) {
                        const VReg fresh = proc.fresh();
                        remap[copy.dst] = fresh;
                        copy.dst = fresh;
                    }
                    out.push_back(std::move(copy));
                }
                out.push_back(MInst::copy(
                    inst.dst, map_vreg(callee.blocks[0].term.ret_reg)));
                ++inlined;
            }
            block.insts = std::move(out);
        }
    }
    return inlined;
}

void
optimize_module(MModule &module, const ToolchainProfile &profile)
{
    if (profile.opt_level >= 2) {
        inline_small_procs(module, profile.inline_threshold);
    }
    for (MProc &proc : module.procs) {
        remove_unreachable_blocks(proc);
        if (profile.opt_level >= 1) {
            for (int round = 0; round < 2; ++round) {
                fold_constants(proc, profile.strength_reduce);
                propagate_copies(proc);
                if (profile.use_cse && profile.opt_level >= 2) {
                    eliminate_common_subexpressions(proc);
                    propagate_copies(proc);
                }
                simplify_branches(proc);
                remove_unreachable_blocks(proc);
                eliminate_dead_code(proc);
            }
            merge_blocks(proc);
        }
        if (profile.opt_level >= 2 && profile.rotate_loops) {
            rotate_loops(proc);
        }
        if (profile.swap_commutative) {
            swap_commutative_operands(proc);
        }
        reorder_blocks(proc, profile.reverse_block_layout);
    }
}

}  // namespace firmup::compiler
