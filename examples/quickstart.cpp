/**
 * @file
 * Quickstart: the whole FirmUp pipeline on a hand-written procedure.
 *
 *  1. Define a tiny source package (a procedure comparing a value
 *     against the magic 0x1F, like the paper's Fig. 1/3 example).
 *  2. Compile it for MIPS32 with two different toolchains.
 *  3. Lift the binaries back to µIR.
 *  4. Decompose into strands and canonicalize (Fig. 3's three stages:
 *     assembly -> lifted IR -> canonical strand).
 *  5. Compute Sim() across the two compilations.
 */
#include <cstdio>

#include "codegen/build.h"
#include "lang/ast.h"
#include "lifter/cfg.h"
#include "sim/similarity.h"
#include "strand/canon.h"

using namespace firmup;

namespace {

/** int check(int p0) { if (p0 != 31) return g0[2]; return p0 + 1; } */
lang::PackageSource
make_source()
{
    using lang::Expr;
    using lang::Stmt;
    lang::PackageSource pkg;
    pkg.name = "quickstart";
    pkg.version = "1.0";
    pkg.globals = {{"g0", 8}};

    lang::ProcedureAst proc;
    proc.name = "check";
    proc.num_params = 1;
    proc.num_locals = 2;
    std::vector<lang::StmtPtr> then_body;
    then_body.push_back(Stmt::ret(
        Expr::load_global(0, Expr::constant(2))));
    proc.body.push_back(Stmt::if_stmt(
        Expr::bin(lang::BinOp::Ne, Expr::param(0), Expr::constant(0x1f)),
        std::move(then_body), {}));
    proc.body.push_back(Stmt::ret(
        Expr::bin(lang::BinOp::Add, Expr::param(0), Expr::constant(1))));
    pkg.procedures.push_back(std::move(proc));
    return pkg;
}

void
show_build(const char *title, const compiler::ToolchainProfile &profile)
{
    std::printf("---- %s ----\n", title);
    codegen::BuildRequest request;
    request.arch = isa::Arch::Mips32;
    request.profile = profile;
    const loader::Executable exe =
        codegen::build_executable(make_source(), request);

    // Disassembly (what a human sees in the binary).
    const isa::Target &target = isa::target_for(isa::Arch::Mips32);
    std::printf("assembly:\n");
    std::uint64_t addr = exe.entry;
    while (addr < exe.text_addr + exe.text.size()) {
        const std::size_t offset =
            static_cast<std::size_t>(addr - exe.text_addr);
        auto decoded = target.decode(exe.text.data() + offset,
                                     exe.text.size() - offset, addr);
        if (!decoded.ok()) {
            break;
        }
        std::printf("  %06llx: %s\n",
                    static_cast<unsigned long long>(addr),
                    target.disasm(decoded.value().inst).c_str());
        addr += static_cast<std::uint64_t>(decoded.value().size);
    }

    // Lifted µIR (what VEX gives the paper) and canonical strands.
    auto lifted = lifter::lift_executable(exe).take();
    const ir::Procedure &proc = lifted.procs.begin()->second;
    std::printf("\nlifted IR (first block):\n%s",
                ir::to_string(proc.blocks.begin()->second).c_str());

    strand::CanonOptions options;
    options.sections.text_lo = lifted.text_addr;
    options.sections.text_hi = lifted.text_end;
    options.sections.data_lo = lifted.data_addr;
    options.sections.data_hi = lifted.data_end;
    std::printf("\ncanonical strands:\n");
    for (const std::string &s :
         strand::canonical_strings(proc, options)) {
        std::printf("  %s\n", s.c_str());
    }
    std::printf("\n");
}

}  // namespace

int
main()
{
    std::printf("== FirmUp quickstart ==\n\n");
    show_build("gcc-like -O2", compiler::gcc_like_toolchain());
    show_build("vendor toolchain", compiler::vendor_toolchains()[1]);

    // Pairwise similarity across the two compilations.
    auto index_for = [](const compiler::ToolchainProfile &profile) {
        codegen::BuildRequest request;
        request.arch = isa::Arch::Mips32;
        request.profile = profile;
        const auto exe =
            codegen::build_executable(make_source(), request);
        return sim::index_executable(lifter::lift_executable(exe).take());
    };
    const auto a = index_for(compiler::gcc_like_toolchain());
    const auto b = index_for(compiler::vendor_toolchains()[1]);
    std::printf("Sim(check@gcc, check@vendor) = %d "
                "(of %zu / %zu strands)\n",
                sim::sim_score(a.procs[0].strands, b.procs[0].strands),
                a.procs[0].strands.size(), b.procs[0].strands.size());
    return 0;
}
