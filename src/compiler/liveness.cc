#include "compiler/liveness.h"

#include <map>

namespace firmup::compiler {

Liveness::Liveness(const MProc &proc)
{
    const std::size_t n_vregs = proc.next_vreg;
    const std::size_t n_blocks = proc.blocks.size();
    std::map<int, std::size_t> block_pos;
    for (std::size_t i = 0; i < n_blocks; ++i) {
        block_pos[proc.blocks[i].id] = i;
    }
    auto position = [&block_pos](int id) {
        const auto it = block_pos.find(id);
        return it == block_pos.end() ? Exit::kNone : it->second;
    };

    // Summarize each block once: gen holds the vregs it reads before
    // writing them (its terminator's use included), kill the vregs it
    // writes. Then live_in = gen | (live_out & ~kill), a word at a time.
    std::vector<VRegSet> gen(n_blocks, VRegSet(n_vregs));
    std::vector<VRegSet> kill(n_blocks, VRegSet(n_vregs));
    exits_.resize(n_blocks);
    for (std::size_t bi = 0; bi < n_blocks; ++bi) {
        const MBlock &block = proc.blocks[bi];
        Exit &exit = exits_[bi];
        switch (block.term.kind) {
          case MTerm::Kind::Jump:
            exit.succ[0] = position(block.term.target);
            break;
          case MTerm::Kind::Branch:
            exit.succ[0] = position(block.term.target);
            exit.succ[1] = position(block.term.fallthrough);
            exit.use = block.term.cond;
            exit.has_use = true;
            break;
          case MTerm::Kind::Ret:
            exit.use = block.term.ret_reg;
            exit.has_use = true;
            break;
        }
        VRegSet &reads = gen[bi];
        if (exit.has_use) {
            reads.insert(exit.use);
        }
        for (std::size_t ii = block.insts.size(); ii-- > 0;) {
            const MInst &inst = block.insts[ii];
            if (inst.has_dst()) {
                reads.erase(inst.dst);
                kill[bi].insert(inst.dst);
            }
            for_each_use(inst, [&reads](VReg r) { reads.insert(r); });
        }
    }

    // Iterate to the least fixed point; any sweep order reaches it.
    live_in_.assign(n_blocks, VRegSet(n_vregs));
    const std::size_t words = (n_vregs + 63) / 64;
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t bi = n_blocks; bi-- > 0;) {
            const Exit &exit = exits_[bi];
            std::vector<std::uint64_t> &in = live_in_[bi].words_;
            for (std::size_t w = 0; w < words; ++w) {
                std::uint64_t out = 0;
                for (const std::size_t s : exit.succ) {
                    if (s != Exit::kNone) {
                        out |= live_in_[s].words_[w];
                    }
                }
                const std::uint64_t next =
                    gen[bi].words_[w] | (out & ~kill[bi].words_[w]);
                if (next != in[w]) {
                    in[w] = next;
                    changed = true;
                }
            }
        }
    }
}

void
Liveness::live_out(std::size_t block, VRegSet &out) const
{
    out.clear();
    const Exit &exit = exits_[block];
    for (const std::size_t s : exit.succ) {
        if (s != Exit::kNone) {
            out.unite(live_in_[s]);
        }
    }
    if (exit.has_use) {
        out.insert(exit.use);
    }
}

}  // namespace firmup::compiler
