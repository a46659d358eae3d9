#include "lifter/cfg.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "isa/arm.h"
#include "isa/mips.h"
#include "isa/ppc.h"
#include "isa/x86.h"
#include "support/error.h"
#include "support/trace.h"

namespace firmup::lifter {

namespace {

const trace::Counter c_executables("lift.executables");
const trace::Counter c_procedures("lift.procedures");
const trace::Counter c_blocks("lift.blocks");

/** One decoded instruction with its lifted control-flow class. */
struct DecodedInst
{
    std::uint64_t addr = 0;
    isa::MachInst inst;
    int size = 0;
    Flow flow;
};

/**
 * One procedure's decoded instructions keyed by address: a flat vector in
 * decode order plus an open-addressing index over it (linear probing,
 * power-of-two capacity, at most half full). Both grow with the
 * procedures they hold, never with the text. Slots are epoch-stamped, so
 * clear() costs nothing however large an earlier procedure made them.
 */
class InstTable
{
  public:
    void
    clear()
    {
        insts_.clear();
        if (++epoch_ == 0) {  // wrapped: old stamps could read as current
            std::fill(slots_.begin(), slots_.end(), Slot{});
            epoch_ = 1;
        }
    }

    const std::vector<DecodedInst> &all() const { return insts_; }

    const DecodedInst *
    find(std::uint64_t addr) const
    {
        if (slots_.empty()) {
            return nullptr;
        }
        for (std::size_t i = home(addr);; i = (i + 1) & mask()) {
            if (slots_[i].epoch != epoch_) {
                return nullptr;
            }
            if (slots_[i].addr == addr) {
                return &insts_[slots_[i].index];
            }
        }
    }

    /** Add @p di; its address must not be in the table yet. */
    const DecodedInst &
    insert(const DecodedInst &di)
    {
        if (2 * (insts_.size() + 1) > slots_.size()) {
            grow();
        }
        insts_.push_back(di);
        place(di.addr, static_cast<std::uint32_t>(insts_.size() - 1));
        return insts_.back();
    }

  private:
    struct Slot
    {
        std::uint64_t addr = 0;
        std::uint32_t index = 0;  ///< into insts_
        std::uint32_t epoch = 0;  ///< occupied when equal to epoch_
    };

    std::size_t mask() const { return slots_.size() - 1; }

    std::size_t
    home(std::uint64_t addr) const
    {
        // Fibonacci hashing spreads runs of consecutive addresses.
        return static_cast<std::size_t>(
                   (addr * 0x9e3779b97f4a7c15ULL) >> 32) &
               mask();
    }

    void
    place(std::uint64_t addr, std::uint32_t index)
    {
        std::size_t i = home(addr);
        while (slots_[i].epoch == epoch_) {
            i = (i + 1) & mask();
        }
        slots_[i] = Slot{addr, index, epoch_};
    }

    void
    grow()
    {
        slots_.assign(std::max<std::size_t>(64, 2 * slots_.size()), Slot{});
        for (std::size_t k = 0; k < insts_.size(); ++k) {
            place(insts_[k].addr, static_cast<std::uint32_t>(k));
        }
    }

    std::vector<DecodedInst> insts_;
    std::vector<Slot> slots_;
    std::uint32_t epoch_ = 1;
};

/** Does @p inst look like the first instruction of a procedure? */
bool
is_prologue(isa::Arch arch, const isa::MachInst &inst)
{
    switch (arch) {
      case isa::Arch::Mips32:
        return static_cast<isa::mips::Op>(inst.op) ==
                   isa::mips::Op::Addiu &&
               inst.rd == isa::mips::Sp && inst.rs == isa::mips::Sp &&
               inst.imm < 0;
      case isa::Arch::Arm32:
        return static_cast<isa::arm::Op>(inst.op) ==
                   isa::arm::Op::SubImm &&
               inst.rd == isa::arm::Sp && inst.rs == isa::arm::Sp &&
               inst.imm > 0;
      case isa::Arch::Ppc32:
        return static_cast<isa::ppc::Op>(inst.op) == isa::ppc::Op::Addi &&
               inst.rd == isa::ppc::R1 && inst.rs == isa::ppc::R1 &&
               inst.imm < 0;
      case isa::Arch::X86:
        return static_cast<isa::x86::Op>(inst.op) == isa::x86::Op::Push &&
               inst.rd == isa::x86::Ebp;
    }
    return false;
}

/**
 * Discovers and lifts procedures one at a time. Its tables are reused
 * from one procedure to the next, so they are sized by the largest
 * procedure lifted so far, never by the text.
 */
class ProcLifter
{
  public:
    ProcLifter(const isa::Target &target, const loader::Executable &exe)
        : target_(target), exe_(exe),
          is_mips_(target.arch == isa::Arch::Mips32)
    {
    }

    /**
     * Lift the procedure at @p entry; nullopt when its entry does not
     * decode. On success, @p claimed gains the procedure's instruction
     * addresses and call_targets() holds its direct call targets.
     */
    std::optional<ir::Procedure>
    lift(std::uint64_t entry, std::vector<bool> &claimed)
    {
        insts_.clear();
        leaders_.assign(1, entry);
        call_targets_.clear();
        std::vector<std::uint64_t> work{entry};

        // Pass A: discover leaders and instruction runs. A popped address
        // already in the table needs no second look, and one that failed
        // to decode fails again, so no separate `explored` set is kept.
        while (!work.empty()) {
            std::uint64_t addr = work.back();
            work.pop_back();
            while (insts_.find(addr) == nullptr) {
                const DecodedInst *di = decode(addr);
                if (di == nullptr) {
                    // Lifter bail-out (paper 3.1: tools "may still fail
                    // to identify several blocks"); keep what we have.
                    break;
                }
                const std::uint64_t next =
                    addr + static_cast<std::uint64_t>(di->size);
                const Flow flow = di->flow;
                if (flow.kind == Flow::Kind::Normal) {
                    addr = next;
                    continue;
                }
                // Control transfer: account for the MIPS delay slot.
                std::uint64_t after = next;
                if (is_mips_) {
                    const DecodedInst *slot = insts_.find(next);
                    if (slot == nullptr) {
                        slot = decode(next);
                    }
                    if (slot != nullptr) {
                        after = next + static_cast<std::uint64_t>(slot->size);
                    }
                }
                switch (flow.kind) {
                  case Flow::Kind::Branch:
                    leaders_.push_back(flow.target);
                    leaders_.push_back(after);
                    work.push_back(flow.target);
                    work.push_back(after);
                    break;
                  case Flow::Kind::Jump:
                    leaders_.push_back(flow.target);
                    work.push_back(flow.target);
                    break;
                  case Flow::Kind::Ret:
                  case Flow::Kind::Normal:
                    break;
                }
                break;
            }
        }
        if (insts_.find(entry) == nullptr) {
            return std::nullopt;  // undecodable entry (corrupt or data)
        }
        // Leaders may lie outside text (a branch to text_end, say): they
        // start no block but still end the block that falls into them.
        std::sort(leaders_.begin(), leaders_.end());
        leaders_.erase(std::unique(leaders_.begin(), leaders_.end()),
                       leaders_.end());
        std::sort(call_targets_.begin(), call_targets_.end());
        call_targets_.erase(
            std::unique(call_targets_.begin(), call_targets_.end()),
            call_targets_.end());

        // Pass B: build blocks leader-by-leader.
        ir::Procedure proc;
        proc.entry = entry;
        for (std::size_t i = 0; i < leaders_.size(); ++i) {
            if (insts_.find(leaders_[i]) != nullptr) {
                build_block(proc, i);
            }
        }
        for (const DecodedInst &di : insts_.all()) {
            claimed[static_cast<std::size_t>(di.addr - exe_.text_addr)] = true;
        }
        return proc;
    }

    /** Direct call targets of the last lifted procedure, ascending. */
    const std::vector<std::uint64_t> &call_targets() const
    {
        return call_targets_;
    }

  private:
    /**
     * Decode the instruction at @p addr into the table and classify its
     * control flow by lifting it into the scratch block; records a
     * direct call target. nullptr outside text or when undecodable.
     */
    const DecodedInst *
    decode(std::uint64_t addr)
    {
        if (!exe_.in_text(addr)) {
            return nullptr;
        }
        const std::size_t offset =
            static_cast<std::size_t>(addr - exe_.text_addr);
        auto decoded = target_.decode(exe_.text.data() + offset,
                                      exe_.text.size() - offset, addr);
        if (!decoded.ok()) {
            return nullptr;
        }
        DecodedInst di;
        di.addr = addr;
        di.inst = decoded.value().inst;
        di.size = decoded.value().size;
        scratch_.stmts.clear();
        LiftState state;
        di.flow = lift_inst(target_.arch, di.inst, addr, state, scratch_);
        std::uint64_t call_target = 0;
        for (const ir::Stmt &s : scratch_.stmts) {
            if (s.kind == ir::Stmt::Kind::Call && s.a.is_const()) {
                call_target = s.a.as_const();
            }
        }
        if (call_target != 0) {
            call_targets_.push_back(call_target);
        }
        return &insts_.insert(di);
    }

    void
    build_block(ir::Procedure &proc, std::size_t leader_index)
    {
        const std::uint64_t leader = leaders_[leader_index];
        ir::Block block;
        block.addr = leader;
        // Statements grow in the scratch block and are copied out once,
        // at their final size.
        scratch_.stmts.clear();
        LiftState state;
        std::uint64_t addr = leader;
        // leaders_[following] is the first leader not below the walk.
        std::size_t following = leader_index + 1;
        while (true) {
            const DecodedInst *di = insts_.find(addr);
            if (di == nullptr) {
                // Decode hole: end the block conservatively.
                block.end = ir::BlockEndKind::Ret;
                break;
            }
            const std::uint64_t next =
                addr + static_cast<std::uint64_t>(di->size);
            if (di->flow.kind == Flow::Kind::Normal) {
                lift_inst(target_.arch, di->inst, addr, state, scratch_);
                while (following < leaders_.size() &&
                       leaders_[following] < next) {
                    ++following;
                }
                if (following < leaders_.size() &&
                    leaders_[following] == next) {
                    block.end = ir::BlockEndKind::Fallthrough;
                    block.fallthrough = next;
                    break;
                }
                addr = next;
                continue;
            }
            // Control transfer. For MIPS, the delay-slot instruction
            // executes regardless of the branch outcome and (by the
            // toolchain's filling rules) never feeds the branch
            // condition, so lifting it *before* the branch preserves
            // semantics and re-attaches it to this block — the paper's
            // block-boundary fix.
            std::uint64_t after = next;
            if (is_mips_) {
                if (const DecodedInst *slot = insts_.find(next)) {
                    lift_inst(target_.arch, slot->inst, next, state,
                              scratch_);
                    after = next + static_cast<std::uint64_t>(slot->size);
                }
            }
            lift_inst(target_.arch, di->inst, addr, state, scratch_);
            switch (di->flow.kind) {
              case Flow::Kind::Branch:
                block.end = ir::BlockEndKind::CondJump;
                block.target = di->flow.target;
                block.fallthrough = after;
                break;
              case Flow::Kind::Jump:
                block.end = ir::BlockEndKind::Jump;
                block.target = di->flow.target;
                break;
              default:
                block.end = ir::BlockEndKind::Ret;
                break;
            }
            break;
        }
        block.stmts = scratch_.stmts;
        proc.blocks.emplace_hint(proc.blocks.end(), leader, std::move(block));
    }

    const isa::Target &target_;
    const loader::Executable &exe_;
    const bool is_mips_;
    InstTable insts_;
    std::vector<std::uint64_t> leaders_;  ///< sorted and unique in pass B
    std::vector<std::uint64_t> call_targets_;
    ir::Block scratch_;  ///< lift target of decode() and build_block()
};

}  // namespace

isa::Arch
detect_arch(const loader::Executable &exe)
{
    int best_score = -1;
    isa::Arch best = exe.declared_arch;
    for (isa::Arch arch : isa::kAllArches) {
        const isa::Target &target = isa::target_for(arch);
        std::uint64_t addr = exe.entry;
        int score = 0;
        for (int i = 0; i < 64; ++i) {
            if (addr >= exe.text_addr + exe.text.size()) {
                break;
            }
            const std::size_t offset =
                static_cast<std::size_t>(addr - exe.text_addr);
            auto decoded = target.decode(exe.text.data() + offset,
                                         exe.text.size() - offset, addr);
            if (!decoded.ok()) {
                break;
            }
            ++score;
            addr += static_cast<std::uint64_t>(decoded.value().size);
        }
        // Prefer the declared arch on ties: vendors are usually right.
        if (score > best_score ||
            (score == best_score && arch == exe.declared_arch)) {
            best_score = score;
            best = arch;
        }
    }
    return best;
}

Result<LiftedExecutable>
lift_executable(const loader::Executable &exe, const LiftOptions &options)
{
    FIRMUP_ASSERT(!exe.released, "lifting released executable " + exe.name);
    const trace::TraceSpan span("lift", exe.name);
    LiftedExecutable out;
    out.name = exe.name;
    out.arch = options.sniff_arch ? detect_arch(exe) : exe.declared_arch;
    out.text_addr = exe.text_addr;
    out.text_end = exe.text_addr + exe.text.size();
    out.data_addr = exe.data_addr;
    out.data_end = exe.data_addr + exe.data.size();
    const isa::Target &target = isa::target_for(out.arch);

    // Transient state beyond one procedure: one bit per text byte for
    // each of `entries` and `claimed`.
    std::vector<bool> entries(exe.text.size());
    std::vector<bool> claimed(exe.text.size());
    std::vector<std::uint64_t> work;
    auto add_entry = [&](std::uint64_t addr) {
        if (!exe.in_text(addr)) {
            return;
        }
        const auto offset = static_cast<std::size_t>(addr - out.text_addr);
        if (!entries[offset]) {
            entries[offset] = true;
            work.push_back(addr);
        }
    };
    add_entry(exe.entry);
    for (const loader::Symbol &sym : exe.symbols) {
        add_entry(sym.addr);
    }

    ProcLifter lifter(target, exe);
    auto drain = [&] {
        while (!work.empty()) {
            const std::uint64_t entry = work.back();
            work.pop_back();
            auto proc = lifter.lift(entry, claimed);
            if (!proc) {
                continue;  // undecodable entry (corrupt or data)
            }
            proc->name = exe.symbol_at(static_cast<std::uint32_t>(entry));
            out.procs.emplace(entry, std::move(*proc));
            for (std::uint64_t t : lifter.call_targets()) {
                add_entry(t);
            }
        }
    };
    drain();

    if (options.prologue_scan) {
        // Sweep unclaimed, 4-aligned text for prologue shapes; each hit
        // seeds another discovery round (its callees follow).
        for (std::uint64_t addr = out.text_addr; addr + 4 <= out.text_end;
             addr += 4) {
            const std::size_t offset =
                static_cast<std::size_t>(addr - out.text_addr);
            if (claimed[offset] || entries[offset]) {
                continue;
            }
            auto decoded = target.decode(exe.text.data() + offset,
                                         exe.text.size() - offset, addr);
            if (decoded.ok() &&
                is_prologue(out.arch, decoded.value().inst)) {
                add_entry(addr);
                drain();
            }
        }
    }
    c_executables.add();
    c_procedures.add(out.procs.size());
    if (trace::level() != trace::Level::Off) {
        std::uint64_t blocks = 0;
        for (const auto &[entry, proc] : out.procs) {
            blocks += proc.blocks.size();
        }
        c_blocks.add(blocks);
    }
    return out;
}

}  // namespace firmup::lifter
