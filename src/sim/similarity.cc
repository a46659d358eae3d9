#include "sim/similarity.h"

#include <algorithm>
#include <cmath>

#include "sim/persist.h"
#include "support/threadpool.h"
#include "support/trace.h"

namespace firmup::sim {

int
ExecutableIndex::find_by_entry(std::uint64_t addr) const
{
    const auto it = entry_map.find(addr);
    return it != entry_map.end() ? it->second : -1;
}

int
ExecutableIndex::find_by_name(const std::string &proc_name) const
{
    const auto it = name_map.find(proc_name);
    return it != name_map.end() ? it->second : -1;
}

ExecutableIndex
index_executable(const lifter::LiftedExecutable &lifted,
                 strand::CanonOptions options, unsigned threads)
{
    const trace::TraceSpan span("index", lifted.name);
    options.sections.text_lo = lifted.text_addr;
    options.sections.text_hi = lifted.text_end;
    options.sections.data_lo = lifted.data_addr;
    options.sections.data_hi = lifted.data_end;
    // Memo entries never cross ISAs, even though µIR statements alone
    // already determine the canonical form (see CanonOptions).
    options.memo_context = static_cast<std::uint64_t>(lifted.arch);

    std::vector<ProcInput> procs(lifted.procs.size());
    std::vector<const ir::Procedure *> order;
    order.reserve(lifted.procs.size());
    for (const auto &[entry, proc] : lifted.procs) {
        const std::size_t slot = order.size();
        order.push_back(&proc);
        procs[slot].entry = entry;
        procs[slot].name = proc.name;
    }
    const auto represent_slot = [&](std::size_t slot) {
        procs[slot].repr =
            strand::represent_procedure(*order[slot], options);
    };
    // Procedures are independent units of work; each writes only its
    // own pre-sized slot, so any schedule yields the same index. Small
    // executables (fuzz mutants, single-proc fixtures) stay inline —
    // a pool costs more than it saves there.
    constexpr std::size_t kParallelThreshold = 4;
    if (threads > 1 && order.size() >= kParallelThreshold) {
        ThreadPool::parallel_for(threads, order.size(), represent_slot);
    } else {
        for (std::size_t slot = 0; slot < order.size(); ++slot) {
            represent_slot(slot);
        }
    }
    return build_index(lifted.name, lifted.arch, procs);
}

int
sim_score(std::span<const std::uint64_t> q, std::span<const std::uint64_t> t)
{
    int shared = 0;
    for_each_shared(q, t, [&shared](std::size_t, std::size_t) { ++shared; });
    return shared;
}

std::vector<Candidate>
shared_candidates(const ExecutableIndex &T, std::span<const std::uint64_t> q)
{
    // Accumulate shared counts over the posting lists of q's strands:
    // only procedures sharing at least one strand are ever touched.
    std::vector<int> counts(T.procs.size(), 0);
    std::vector<std::uint32_t> touched;
    for_each_shared(q, T.posting_hashes, [&](std::size_t, std::size_t row) {
        for (std::uint32_t j = T.posting_offsets[row];
             j < T.posting_offsets[row + 1]; ++j) {
            const std::uint32_t proc = T.posting_procs[j];
            if (counts[proc]++ == 0) {
                touched.push_back(proc);
            }
        }
    });
    std::sort(touched.begin(), touched.end());
    std::vector<Candidate> out;
    out.reserve(touched.size());
    for (std::uint32_t proc : touched) {
        out.push_back({static_cast<int>(proc), counts[proc]});
    }
    return out;
}

double
GlobalContext::weight_of(std::uint64_t hash) const
{
    const auto it = weights.find(hash);
    return it != weights.end() ? it->second : default_weight;
}

GlobalContext
train_global_context(const std::vector<const ExecutableIndex *> &sample)
{
    GlobalContext context;
    std::map<std::uint64_t, int> counts;
    int total_procs = 0;
    for (const ExecutableIndex *index : sample) {
        for (const ProcEntry &proc : index->procs) {
            ++total_procs;
            for (const std::uint64_t h : proc.strands) {
                ++counts[h];
            }
        }
    }
    if (total_procs == 0) {
        return context;
    }
    // -log document frequency, as in statistical significance weighting:
    // a strand appearing in every procedure carries no evidence.
    for (const auto &[hash, count] : counts) {
        const double df =
            static_cast<double>(count) / static_cast<double>(total_procs);
        context.weights[hash] = std::max(0.05, -std::log(df));
    }
    // Unseen strands are maximally surprising.
    context.default_weight = -std::log(0.5 / total_procs);
    return context;
}

double
weighted_sim(std::span<const std::uint64_t> q,
             std::span<const std::uint64_t> t, const GlobalContext &context)
{
    double score = 0.0;
    for_each_shared(q, t, [&](std::size_t i, std::size_t) {
        score += context.weight_of(q[i]);
    });
    return score;
}

}  // namespace firmup::sim
