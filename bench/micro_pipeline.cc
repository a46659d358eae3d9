/**
 * @file
 * Microbenchmarks (google-benchmark) for the pipeline's hot stages:
 * compilation, lifting, strand extraction + canonicalization, pairwise
 * Sim, and the full game. These are throughput numbers for the paper's
 * scalability claim (the corpus-scale search must stay static and cheap:
 * the paper's per-CVE wall clock is minutes for ~200k executables).
 */
#include <benchmark/benchmark.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <thread>

#include "codegen/build.h"
#include "eval/driver.h"
#include "firmware/catalog.h"
#include "game/game.h"
#include "lifter/cfg.h"
#include "sim/persist.h"
#include "strand/canon.h"
#include "support/fsio.h"
#include "support/mmapfile.h"

namespace {

using namespace firmup;

const loader::Executable &
wget_exe()
{
    static const loader::Executable exe = [] {
        const auto &pkg = firmware::package_by_name("wget");
        const auto source =
            firmware::generate_package_source(pkg, "1.15");
        codegen::BuildRequest request;
        request.arch = isa::Arch::Mips32;
        request.profile = compiler::gcc_like_toolchain();
        return codegen::build_executable(source, request);
    }();
    return exe;
}

const lifter::LiftedExecutable &
wget_lifted()
{
    static const lifter::LiftedExecutable lifted =
        lifter::lift_executable(wget_exe()).take();
    return lifted;
}

const sim::ExecutableIndex &
wget_index()
{
    static const sim::ExecutableIndex index =
        sim::index_executable(wget_lifted());
    return index;
}

const sim::ExecutableIndex &
vendor_index()
{
    static const sim::ExecutableIndex index = [] {
        const auto &pkg = firmware::package_by_name("wget");
        const auto source =
            firmware::generate_package_source(pkg, "1.15");
        codegen::BuildRequest request;
        request.arch = isa::Arch::Mips32;
        request.profile = compiler::vendor_toolchains()[1];
        request.strip = true;
        request.keep_exported = false;
        const auto exe = codegen::build_executable(source, request);
        return sim::index_executable(
            lifter::lift_executable(exe).take());
    }();
    return index;
}

void
BM_CompileAndLink(benchmark::State &state)
{
    const auto &pkg = firmware::package_by_name("wget");
    const auto source = firmware::generate_package_source(pkg, "1.15");
    codegen::BuildRequest request;
    request.arch = isa::Arch::Mips32;
    request.profile = compiler::gcc_like_toolchain();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            codegen::build_executable(source, request));
    }
}
BENCHMARK(BM_CompileAndLink)->Unit(benchmark::kMillisecond);

void
BM_LiftExecutable(benchmark::State &state)
{
    const loader::Executable &exe = wget_exe();
    for (auto _ : state) {
        benchmark::DoNotOptimize(lifter::lift_executable(exe));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(wget_lifted().procs.size()));
}
BENCHMARK(BM_LiftExecutable)->Unit(benchmark::kMillisecond);

void
BM_StrandExtraction(benchmark::State &state)
{
    const lifter::LiftedExecutable &lifted = wget_lifted();
    strand::CanonOptions options;
    options.sections.text_lo = lifted.text_addr;
    options.sections.text_hi = lifted.text_end;
    options.sections.data_lo = lifted.data_addr;
    options.sections.data_hi = lifted.data_end;
    for (auto _ : state) {
        for (const auto &[entry, proc] : lifted.procs) {
            benchmark::DoNotOptimize(
                strand::represent_procedure(proc, options));
        }
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(lifted.procs.size()));
}
BENCHMARK(BM_StrandExtraction)->Unit(benchmark::kMillisecond);

/**
 * Extraction against a warm canon memo: after the first iteration every
 * block replays its memoized strand-hash span, so this measures the
 * steady-state cost of indexing repeated content.
 */
void
BM_StrandExtractionMemoWarm(benchmark::State &state)
{
    const lifter::LiftedExecutable &lifted = wget_lifted();
    strand::CanonMemo memo;
    strand::CanonOptions options;
    options.sections.text_lo = lifted.text_addr;
    options.sections.text_hi = lifted.text_end;
    options.sections.data_lo = lifted.data_addr;
    options.sections.data_hi = lifted.data_end;
    options.memo = &memo;
    // Warm the memo so the timed loop is all hits.
    for (const auto &[entry, proc] : lifted.procs) {
        strand::represent_procedure(proc, options);
    }
    for (auto _ : state) {
        for (const auto &[entry, proc] : lifted.procs) {
            benchmark::DoNotOptimize(
                strand::represent_procedure(proc, options));
        }
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(lifted.procs.size()));
}
BENCHMARK(BM_StrandExtractionMemoWarm)->Unit(benchmark::kMillisecond);

void
BM_PairwiseSim(benchmark::State &state)
{
    const auto &q = wget_index();
    const auto &t = vendor_index();
    for (auto _ : state) {
        for (const auto &qp : q.procs) {
            for (const auto &tp : t.procs) {
                benchmark::DoNotOptimize(
                    sim::sim_score(qp.strands, tp.strands));
            }
        }
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(q.procs.size() * t.procs.size()));
}
BENCHMARK(BM_PairwiseSim);

void
BM_PostingBestMatch(benchmark::State &state)
{
    // The pruned counterpart of BM_PairwiseSim: one posting-list
    // accumulation per query procedure instead of |Q|x|T| pairwise
    // scores. The items/s ratio between the two is the per-query
    // speedup of the inverted index.
    const auto &q = wget_index();
    const auto &t = vendor_index();
    std::size_t pairs_scored = 0;
    for (auto _ : state) {
        for (const auto &qp : q.procs) {
            const auto candidates = sim::shared_candidates(t, qp.strands);
            pairs_scored += candidates.size();
            benchmark::DoNotOptimize(candidates.data());
        }
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(q.procs.size() * t.procs.size()));
    state.counters["pairs_scored_per_query"] = benchmark::Counter(
        static_cast<double>(pairs_scored) /
        static_cast<double>(state.iterations() * q.procs.size()));
}
BENCHMARK(BM_PostingBestMatch);

void
BM_PackIndex(benchmark::State &state)
{
    // The packing step of a cold build: procedure table, strand hashes
    // and the CSR posting sort, written straight into the FWIX blob the
    // index then views. A store write publishes these bytes unchanged.
    std::vector<sim::ProcInput> procs;
    for (const sim::ProcEntry &proc : wget_index().procs) {
        strand::ProcedureStrands repr;
        repr.hashes.assign(proc.strands.begin(), proc.strands.end());
        repr.block_count = proc.block_count;
        repr.stmt_count = proc.stmt_count;
        procs.push_back({proc.entry, proc.name, std::move(repr)});
    }
    std::int64_t bytes = 0;
    for (auto _ : state) {
        const sim::ExecutableIndex index =
            sim::build_index("wget", isa::Arch::Mips32, procs);
        bytes = static_cast<std::int64_t>(index.blob.size());
        benchmark::DoNotOptimize(index.blob.data());
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * bytes);
}
BENCHMARK(BM_PackIndex);

void
BM_MmapOpenV5(benchmark::State &state)
{
    // The warm path: map a persisted FWIX entry, verify the payload
    // checksum and open the index over the mapped arenas — no
    // posting/hash copies. Compare against BM_PackIndex: opening is
    // what a warm scan pays instead of lift + canon + pack.
    const std::span<const std::uint8_t> blob = wget_index().blob;
    const ScopedTempDir dir("firmup-bench-v5");
    const std::string path = dir.path() + "/index.fwix";
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(blob.data()),
                  static_cast<std::streamsize>(blob.size()));
    }
    for (auto _ : state) {
        auto mapped = MappedFile::map(path);
        if (!mapped.ok()) {
            state.SkipWithError("mmap failed");
            return;
        }
        auto file = std::make_shared<MappedFile>(std::move(mapped).take());
        auto guard = sim::check_container(file->data(), file->size());
        auto view = sim::open_index_view(file->data(), file->size(),
                                         file, /*checked=*/true);
        benchmark::DoNotOptimize(guard.ok() && view.ok());
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(blob.size()));
}
BENCHMARK(BM_MmapOpenV5);

void
BM_GameSearch(benchmark::State &state)
{
    const auto &q = wget_index();
    const auto &t = vendor_index();
    const int qv = q.find_by_name("ftp_retrieve_glob");
    for (auto _ : state) {
        benchmark::DoNotOptimize(game::match_query(q, qv, t));
    }
}
BENCHMARK(BM_GameSearch)->Unit(benchmark::kMillisecond);

void
BM_SearchCorpus(benchmark::State &state)
{
    // Full corpus fan-out at N worker threads (Arg). Thread 1 is the
    // serial reference; the hardware-concurrency row shows the
    // parallel_for scaling of eval::Driver::search_corpus.
    static const firmware::Corpus corpus = firmware::build_corpus();
    static const std::vector<eval::CorpusTarget> targets =
        eval::corpus_targets(corpus);
    const auto &cve = firmware::cve_database().front();
    const unsigned threads = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        eval::Driver driver;  // fresh caches: times indexing + games
        benchmark::DoNotOptimize(
            driver.search_corpus(cve, targets, threads));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(targets.size()));
}
BENCHMARK(BM_SearchCorpus)
    ->Arg(1)
    ->Arg(static_cast<int>(
        std::max(2u, std::thread::hardware_concurrency())))
    ->Unit(benchmark::kMillisecond);

void
BM_BatchHunt(benchmark::State &state)
{
    // The batched multi-CVE hunt at N worker threads (Arg): every CVE
    // in the database against the whole corpus through one driver, so
    // each target is indexed once and the (query, target) grid rides
    // the work-stealing scheduler. Compare the per-item rate against
    // BM_SearchCorpus x |CVEs| for the amortization win.
    static const firmware::Corpus corpus = firmware::build_corpus();
    static const std::vector<eval::CorpusTarget> targets =
        eval::corpus_targets(corpus);
    const auto &cves = firmware::cve_database();
    const unsigned threads = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        eval::Driver driver;  // fresh caches: times indexing + games
        benchmark::DoNotOptimize(
            driver.search_corpus_batch(cves, targets, threads));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(targets.size() * cves.size()));
}
BENCHMARK(BM_BatchHunt)
    ->Arg(1)
    ->Arg(static_cast<int>(
        std::max(2u, std::thread::hardware_concurrency())))
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
