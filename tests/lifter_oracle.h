/**
 * @file
 * The reference lifter: procedure discovery and CFG recovery as written
 * before the flat tables of DESIGN.md section 12. Every decoded
 * instruction is a std::map node, `claimed`, `entries`, `explored` and
 * the leaders are std::sets, and each instruction is classified by
 * lifting it into a fresh block. Kept verbatim (minus the trace span and
 * counters) as the oracle that tests/test_lifter.cc compares
 * lifter::lift_executable against; nothing in src/ uses it.
 */
#pragma once

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "isa/arm.h"
#include "isa/mips.h"
#include "isa/ppc.h"
#include "isa/x86.h"
#include "lifter/cfg.h"
#include "lifter/lift.h"
#include "support/error.h"

namespace firmup::lifter::oracle {

/** One decoded instruction with its lifted control-flow class. */
struct DecodedInst
{
    isa::MachInst inst;
    int size = 0;
    Flow flow;
    std::uint64_t call_target = 0;  ///< nonzero for direct calls
    bool is_call = false;
};

/** Decode + classify one instruction (lifting into a throwaway block). */
inline Result<DecodedInst>
decode_classify(const isa::Target &target, const loader::Executable &exe,
                std::uint64_t addr)
{
    if (addr < exe.text_addr ||
        addr >= exe.text_addr + exe.text.size()) {
        return Result<DecodedInst>::error(ErrorCode::UndecodableInsn,
                                          "address outside text");
    }
    const std::size_t offset =
        static_cast<std::size_t>(addr - exe.text_addr);
    auto decoded = target.decode(exe.text.data() + offset,
                                 exe.text.size() - offset, addr);
    if (!decoded.ok()) {
        return Result<DecodedInst>::error(ErrorCode::UndecodableInsn,
                                          decoded.error_message());
    }
    DecodedInst out;
    out.inst = decoded.value().inst;
    out.size = decoded.value().size;
    ir::Block scratch;
    LiftState state;
    out.flow = lift_inst(target.arch, out.inst, addr, state, scratch);
    for (const ir::Stmt &s : scratch.stmts) {
        if (s.kind == ir::Stmt::Kind::Call) {
            out.is_call = true;
            if (s.a.is_const()) {
                out.call_target = s.a.as_const();
            }
        }
    }
    return out;
}

/** Does @p inst look like the first instruction of a procedure? */
inline bool
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

/** Discovers and lifts one procedure; records call targets. */
class ProcLifter
{
  public:
    ProcLifter(const isa::Target &target, const loader::Executable &exe)
        : target_(target), exe_(exe),
          is_mips_(target.arch == isa::Arch::Mips32)
    {
    }

    /**
     * Lift the procedure at @p entry.
     * @param claimed global set of instruction addresses; extended with
     *        this procedure's instructions.
     * @param call_targets out: direct call targets found.
     */
    Result<ir::Procedure>
    lift(std::uint64_t entry, std::set<std::uint64_t> &claimed,
         std::set<std::uint64_t> &call_targets)
    {
        leaders_ = {entry};
        std::set<std::uint64_t> explored;
        std::vector<std::uint64_t> work{entry};

        // Pass A: discover leaders and instruction runs.
        while (!work.empty()) {
            std::uint64_t addr = work.back();
            work.pop_back();
            if (explored.contains(addr)) {
                continue;
            }
            explored.insert(addr);
            while (true) {
                if (insts_.contains(addr)) {
                    break;  // ran into already-decoded code
                }
                auto di = decode_classify(target_, exe_, addr);
                if (!di.ok()) {
                    // Lifter bail-out (paper 3.1: tools "may still fail
                    // to identify several blocks"); keep what we have.
                    break;
                }
                insts_[addr] = di.value();
                if (di.value().is_call && di.value().call_target != 0) {
                    call_targets.insert(di.value().call_target);
                }
                const std::uint64_t next =
                    addr + static_cast<std::uint64_t>(di.value().size);
                const Flow flow = di.value().flow;
                if (flow.kind == Flow::Kind::Normal) {
                    addr = next;
                    continue;
                }
                // Control transfer: account for the MIPS delay slot.
                std::uint64_t after = next;
                if (is_mips_) {
                    auto slot = decode_classify(target_, exe_, next);
                    if (slot.ok()) {
                        insts_[next] = slot.value();
                        if (slot.value().is_call &&
                            slot.value().call_target != 0) {
                            call_targets.insert(slot.value().call_target);
                        }
                        after = next + static_cast<std::uint64_t>(
                                           slot.value().size);
                    }
                }
                switch (flow.kind) {
                  case Flow::Kind::Branch:
                    leaders_.insert(flow.target);
                    leaders_.insert(after);
                    work.push_back(flow.target);
                    work.push_back(after);
                    break;
                  case Flow::Kind::Jump:
                    leaders_.insert(flow.target);
                    work.push_back(flow.target);
                    break;
                  case Flow::Kind::Ret:
                  case Flow::Kind::Normal:
                    break;
                }
                break;
            }
        }

        // Pass B: build blocks leader-by-leader.
        ir::Procedure proc;
        proc.entry = entry;
        for (std::uint64_t leader : leaders_) {
            if (!insts_.contains(leader)) {
                continue;  // unlifted region (decode failure)
            }
            build_block(proc, leader);
        }
        if (proc.blocks.empty()) {
            return Result<ir::Procedure>::error(
                ErrorCode::LiftBailout, "no decodable block at entry");
        }
        for (const auto &[addr, di] : insts_) {
            claimed.insert(addr);
        }
        return proc;
    }

  private:
    void
    build_block(ir::Procedure &proc, std::uint64_t leader)
    {
        ir::Block block;
        block.addr = leader;
        LiftState state;
        std::uint64_t addr = leader;
        while (true) {
            const auto it = insts_.find(addr);
            if (it == insts_.end()) {
                // Decode hole: end the block conservatively.
                block.end = ir::BlockEndKind::Ret;
                break;
            }
            const DecodedInst &di = it->second;
            const std::uint64_t next =
                addr + static_cast<std::uint64_t>(di.size);
            if (di.flow.kind == Flow::Kind::Normal) {
                lift_inst(target_.arch, di.inst, addr, state, block);
                if (leaders_.contains(next)) {
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
                const auto slot = insts_.find(next);
                if (slot != insts_.end()) {
                    lift_inst(target_.arch, slot->second.inst, next, state,
                              block);
                    after = next + static_cast<std::uint64_t>(
                                       slot->second.size);
                }
            }
            lift_inst(target_.arch, di.inst, addr, state, block);
            switch (di.flow.kind) {
              case Flow::Kind::Branch:
                block.end = ir::BlockEndKind::CondJump;
                block.target = di.flow.target;
                block.fallthrough = after;
                break;
              case Flow::Kind::Jump:
                block.end = ir::BlockEndKind::Jump;
                block.target = di.flow.target;
                break;
              default:
                block.end = ir::BlockEndKind::Ret;
                break;
            }
            break;
        }
        proc.blocks[leader] = std::move(block);
    }

    const isa::Target &target_;
    const loader::Executable &exe_;
    const bool is_mips_;
    std::set<std::uint64_t> leaders_;
    std::map<std::uint64_t, DecodedInst> insts_;
};

inline Result<LiftedExecutable>
lift_executable(const loader::Executable &exe,
                const LiftOptions &options = {})
{
    LiftedExecutable out;
    out.name = exe.name;
    out.arch = options.sniff_arch ? detect_arch(exe) : exe.declared_arch;
    out.text_addr = exe.text_addr;
    out.text_end = exe.text_addr + exe.text.size();
    out.data_addr = exe.data_addr;
    out.data_end = exe.data_addr + exe.data.size();
    const isa::Target &target = isa::target_for(out.arch);

    std::set<std::uint64_t> entries;
    std::set<std::uint64_t> claimed;
    std::vector<std::uint64_t> work;
    auto add_entry = [&](std::uint64_t addr) {
        if (addr >= out.text_addr && addr < out.text_end &&
            entries.insert(addr).second) {
            work.push_back(addr);
        }
    };
    add_entry(exe.entry);
    for (const loader::Symbol &sym : exe.symbols) {
        add_entry(sym.addr);
    }

    auto drain = [&] {
        while (!work.empty()) {
            const std::uint64_t entry = work.back();
            work.pop_back();
            if (out.procs.contains(entry)) {
                continue;
            }
            ProcLifter lifter(target, exe);
            std::set<std::uint64_t> call_targets;
            auto proc = lifter.lift(entry, claimed, call_targets);
            if (!proc.ok()) {
                continue;  // undecodable entry (corrupt or data)
            }
            proc.value().name = exe.symbol_at(
                static_cast<std::uint32_t>(entry));
            out.procs[entry] = std::move(proc).take();
            for (std::uint64_t t : call_targets) {
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
            if (claimed.contains(addr) || entries.contains(addr)) {
                continue;
            }
            const std::size_t offset =
                static_cast<std::size_t>(addr - out.text_addr);
            auto decoded = target.decode(exe.text.data() + offset,
                                         exe.text.size() - offset, addr);
            if (decoded.ok() &&
                is_prologue(out.arch, decoded.value().inst)) {
                add_entry(addr);
                drain();
            }
        }
    }
    return out;
}

}  // namespace firmup::lifter::oracle
