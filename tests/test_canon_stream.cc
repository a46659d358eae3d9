/**
 * @file
 * Cold-path indexing equivalences: the streaming strand hasher must be
 * bit-identical to hashing the reference canonical strings
 * (canonical_strand, canonical_strings) — on every ISA and under every
 * ablation combination — and the cross-executable canon memo must be
 * invisible to results: memo-on and memo-off indexes are identical,
 * differing only in work done.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "codegen/build.h"
#include "firmware/catalog.h"
#include "firmware/corpus.h"
#include "lifter/cfg.h"
#include "sim/similarity.h"
#include "strand/canon.h"
#include "strand/memo.h"
#include "strand/slice.h"
#include "support/hash.h"

namespace firmup::strand {
namespace {

const lifter::LiftedExecutable &
lifted_for(isa::Arch arch)
{
    static std::map<isa::Arch, lifter::LiftedExecutable> cache = [] {
        std::map<isa::Arch, lifter::LiftedExecutable> out;
        const auto &pkg = firmware::package_by_name("wget");
        const auto source =
            firmware::generate_package_source(pkg, "1.15");
        for (isa::Arch arch : {isa::Arch::Mips32, isa::Arch::Arm32,
                               isa::Arch::Ppc32, isa::Arch::X86}) {
            codegen::BuildRequest request;
            request.arch = arch;
            request.profile = compiler::gcc_like_toolchain();
            const auto exe = codegen::build_executable(source, request);
            out.emplace(arch, lifter::lift_executable(exe).take());
        }
        return out;
    }();
    return cache.at(arch);
}

CanonOptions
options_for(const lifter::LiftedExecutable &lifted, int ablation)
{
    CanonOptions options;
    options.sections.text_lo = lifted.text_addr;
    options.sections.text_hi = lifted.text_end;
    options.sections.data_lo = lifted.data_addr;
    options.sections.data_hi = lifted.data_end;
    options.eliminate_offsets = (ablation & 1) != 0;
    options.optimize = (ablation & 2) != 0;
    options.normalize_names = (ablation & 4) != 0;
    return options;
}

TEST(CanonStream, StreamEqualsStringHashOnAllIsasAndAblations)
{
    // The hard invariant of the streaming hasher: for every compiled
    // strand, under every knob combination, the streamed FNV-1a state
    // equals hashing the materialized canonical string.
    for (isa::Arch arch : {isa::Arch::Mips32, isa::Arch::Arm32,
                           isa::Arch::Ppc32, isa::Arch::X86}) {
        const lifter::LiftedExecutable &lifted = lifted_for(arch);
        ASSERT_FALSE(lifted.procs.empty());
        for (int ablation = 0; ablation < 8; ++ablation) {
            const CanonOptions options = options_for(lifted, ablation);
            std::size_t strands = 0;
            for (const auto &[entry, proc] : lifted.procs) {
                for (const auto &[addr, block] : proc.blocks) {
                    for (const Strand &s : decompose_block(block)) {
                        ASSERT_EQ(strand_hash(s, options),
                                  fnv1a64(canonical_strand(s, options)))
                            << isa::arch_name(arch) << " ablation "
                            << ablation;
                        ++strands;
                    }
                }
            }
            EXPECT_GT(strands, 0u) << isa::arch_name(arch);
        }
    }
}

TEST(CanonStream, SlicerPathMatchesMaterializingPath)
{
    // represent_procedure slices with StrandSlicer (index spans, no
    // statement copies) and streams each hash; canonical_strings
    // decomposes with the reference decompose_block and renders every
    // canonical string. Equal strand sets per procedure prove the
    // slicer emits the same strands under every ablation.
    for (isa::Arch arch : {isa::Arch::Mips32, isa::Arch::Arm32,
                           isa::Arch::Ppc32, isa::Arch::X86}) {
        const lifter::LiftedExecutable &lifted = lifted_for(arch);
        for (int ablation = 0; ablation < 8; ++ablation) {
            const CanonOptions options = options_for(lifted, ablation);
            for (const auto &[entry, proc] : lifted.procs) {
                const ProcedureStrands got =
                    represent_procedure(proc, options);
                std::vector<std::uint64_t> reference;
                for (const std::string &canonical :
                     canonical_strings(proc, options)) {
                    reference.push_back(fnv1a64(canonical));
                }
                ASSERT_EQ(got.hashes,
                          strand_set(std::move(reference)).hashes)
                    << isa::arch_name(arch) << " ablation " << ablation
                    << " proc " << proc.name;
                std::size_t stmts = 0;
                for (const auto &[addr, block] : proc.blocks) {
                    stmts += block.stmts.size();
                }
                EXPECT_EQ(got.block_count, proc.blocks.size());
                EXPECT_EQ(got.stmt_count, stmts);
            }
        }
    }
}

TEST(CanonStream, MemoOnAndOffIndexesAreBitIdentical)
{
    // Shared-package corpus: devices ship overlapping packages, so a
    // memo shared across index_executable calls sees repeated blocks.
    // The memo must only change the work done, never the result.
    firmware::CorpusOptions corpus_options;
    corpus_options.num_devices = 3;
    const firmware::Corpus corpus =
        firmware::build_corpus(corpus_options);

    CanonMemo memo;
    CanonOptions with_memo;
    with_memo.memo = &memo;
    std::size_t executables = 0;
    for (const auto &image : corpus.images) {
        for (const auto &exe : image.executables) {
            auto lifted = lifter::lift_executable(exe);
            if (!lifted.ok()) {
                continue;
            }
            const sim::ExecutableIndex on =
                sim::index_executable(lifted.value(), with_memo);
            const sim::ExecutableIndex off =
                sim::index_executable(lifted.value());
            ASSERT_EQ(on.procs.size(), off.procs.size()) << exe.name;
            for (std::size_t i = 0; i < on.procs.size(); ++i) {
                ASSERT_EQ(on.procs[i].entry, off.procs[i].entry);
                ASSERT_EQ(on.procs[i].name, off.procs[i].name);
                ASSERT_TRUE(std::ranges::equal(on.procs[i].strands,
                                               off.procs[i].strands))
                    << exe.name << " proc " << i;
            }
            ++executables;
        }
    }
    EXPECT_GT(executables, 1u);
    const CanonMemo::Stats stats = memo.stats();
    // Shared packages + repeated blocks: the memo must actually fire.
    EXPECT_GT(stats.hits, 0u);
    EXPECT_GT(stats.misses, 0u);
    EXPECT_EQ(memo.size(), stats.misses);
}

}  // namespace
}  // namespace firmup::strand
