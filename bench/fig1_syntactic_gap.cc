/**
 * @file
 * Fig. 1 — "Wget ftp_retrieve_glob() vulnerability snippets": the same
 * source procedure compiled by two different toolchains shares (almost)
 * no assembly lines, yet canonical strands recover the similarity.
 *
 * Prints the first basic block of wget's ftp_retrieve_glob under the
 * reference gcc-like toolchain and under a vendor toolchain (both MIPS32,
 * as in the figure), the line-level overlap, and the strand-level
 * similarity that survives.
 */
#include <cstdio>

#include <set>

#include "codegen/build.h"
#include "eval/report.h"
#include "firmware/catalog.h"
#include "isa/mips.h"
#include "lifter/cfg.h"
#include "sim/similarity.h"

namespace {

using namespace firmup;

struct Built
{
    loader::Executable exe;
    lifter::LiftedExecutable lifted;
};

Built
build(const compiler::ToolchainProfile &profile)
{
    const auto &pkg = firmware::package_by_name("wget");
    const auto source = firmware::generate_package_source(pkg, "1.15");
    codegen::BuildRequest request;
    request.arch = isa::Arch::Mips32;
    request.profile = profile;
    Built b{codegen::build_executable(source, request), {}};
    auto lifted = lifter::lift_executable(b.exe);
    b.lifted = std::move(lifted).take();
    return b;
}

std::vector<std::string>
first_block_disasm(const Built &b, int max_insts)
{
    std::uint64_t entry = 0;
    for (const loader::Symbol &sym : b.exe.symbols) {
        if (sym.name == "ftp_retrieve_glob") {
            entry = sym.addr;
        }
    }
    const isa::Target &target = isa::target_for(isa::Arch::Mips32);
    std::vector<std::string> lines;
    std::uint64_t addr = entry;
    // Skip the prologue (sp adjust + register saves): every toolchain
    // emits a near-identical one; the interesting divergence is the body.
    while (true) {
        const std::size_t offset =
            static_cast<std::size_t>(addr - b.exe.text_addr);
        auto decoded = target.decode(b.exe.text.data() + offset,
                                     b.exe.text.size() - offset, addr);
        if (!decoded.ok()) {
            break;
        }
        const auto op =
            static_cast<isa::mips::Op>(decoded.value().inst.op);
        const bool prologue =
            (op == isa::mips::Op::Addiu &&
             decoded.value().inst.rd == isa::mips::Sp) ||
            (op == isa::mips::Op::Sw &&
             decoded.value().inst.rs == isa::mips::Sp);
        if (!prologue) {
            break;
        }
        addr += static_cast<std::uint64_t>(decoded.value().size);
    }
    for (int i = 0; i < max_insts; ++i) {
        const std::size_t offset =
            static_cast<std::size_t>(addr - b.exe.text_addr);
        auto decoded = target.decode(b.exe.text.data() + offset,
                                     b.exe.text.size() - offset, addr);
        if (!decoded.ok()) {
            break;
        }
        lines.push_back(target.disasm(decoded.value().inst));
        addr += static_cast<std::uint64_t>(decoded.value().size);
    }
    return lines;
}

}  // namespace

int
main()
{
    using namespace firmup;

    std::printf("== Fig. 1: the syntactic gap across toolchains ==\n\n");
    const Built query = build(compiler::gcc_like_toolchain());
    const Built vendor = build(compiler::vendor_toolchains()[1]);

    const auto a = first_block_disasm(query, 12);
    const auto b = first_block_disasm(vendor, 12);
    eval::Table table({"(a) gcc-like -O2", "(b) vendor toolchain"});
    for (std::size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
        table.add_row({i < a.size() ? a[i] : "",
                       i < b.size() ? b[i] : ""});
    }
    std::printf("%s\n", table.render().c_str());

    const std::set<std::string> set_a(a.begin(), a.end());
    int shared_lines = 0;
    for (const std::string &line : b) {
        shared_lines += set_a.contains(line) ? 1 : 0;
    }
    std::printf("identical assembly lines in the first %zu/%zu shown: "
                "%d\n",
                a.size(), b.size(), shared_lines);

    // Strand-level similarity of the full procedures.
    const auto qi = sim::index_executable(query.lifted);
    const auto ti = sim::index_executable(vendor.lifted);
    const int q = qi.find_by_name("ftp_retrieve_glob");
    const int t = ti.find_by_name("ftp_retrieve_glob");
    const auto qr = qi.procs[static_cast<std::size_t>(q)].strands;
    const auto tr = ti.procs[static_cast<std::size_t>(t)].strands;
    std::printf("canonical strands: query=%zu target=%zu shared=%d\n",
                qr.size(), tr.size(),
                sim::sim_score(qr, tr));
    std::printf("\npaper reference: the Fig. 1 snippets share zero "
                "assembly lines yet are the same procedure;\nshape to "
                "check: near-zero shared lines, substantial shared "
                "canonical strands.\n");
    return 0;
}
