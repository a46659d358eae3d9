#include "sim/similarity.h"

#include <algorithm>
#include <cmath>

#include "sim/persist.h"
#include "support/threadpool.h"
#include "support/trace.h"

namespace firmup::sim {

namespace {

/**
 * First position in [first, last) not less than @p key, found by
 * exponential (galloping) probing followed by a bounded binary search.
 * Beats std::lower_bound when the answer is near the front — which it
 * is when intersecting a small sorted set against a huge one.
 */
const std::uint64_t *
gallop_lower_bound(const std::uint64_t *first, const std::uint64_t *last,
                   std::uint64_t key)
{
    const std::size_t n = static_cast<std::size_t>(last - first);
    std::size_t bound = 1;
    while (bound < n && first[bound] < key) {
        bound <<= 1;
    }
    return std::lower_bound(first + (bound >> 1),
                            first + std::min(bound + 1, n), key);
}

/**
 * Visit every hash shared by two flat strand sets, in ascending hash
 * order (the order matters: weighted_sim must accumulate bit-identically
 * no matter which side is smaller). Linear two-pointer merge for
 * comparable sizes, galloping from the smaller side when lopsided.
 */
template <typename OnShared>
void
for_each_shared(std::span<const std::uint64_t> a,
                std::span<const std::uint64_t> b, OnShared &&on)
{
    if (a.size() > b.size()) {
        std::swap(a, b);
    }
    if (a.empty()) {
        return;
    }
    const std::uint64_t *s = a.data();
    const std::uint64_t *se = s + a.size();
    const std::uint64_t *l = b.data();
    const std::uint64_t *le = l + b.size();
    constexpr std::size_t kGallopRatio = 16;
    if (b.size() / a.size() >= kGallopRatio) {
        for (; s != se && l != le; ++s) {
            l = gallop_lower_bound(l, le, *s);
            if (l != le && *l == *s) {
                on(*s);
                ++l;
            }
        }
        return;
    }
    while (s != se && l != le) {
        if (*s < *l) {
            ++s;
        } else if (*l < *s) {
            ++l;
        } else {
            on(*s);
            ++s;
            ++l;
        }
    }
}

}  // namespace

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

std::size_t
ExecutableIndex::memory_bytes() const
{
    // Approximate accounting for the resident-cache byte budget. Map
    // node overhead is deliberately coarse — the budget is a ballast
    // figure, not an allocator audit.
    std::size_t bytes = sizeof(*this) + name.size() + blob.size();
    for (const ProcEntry &proc : procs) {
        bytes += sizeof(ProcEntry) + proc.name.size();
    }
    // entry_map / name_map: one entry per procedure each, roughly.
    bytes += procs.size() * 2 * sizeof(std::uint64_t) * 2;
    return bytes;
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
    for_each_shared(q, t, [&shared](std::uint64_t) { ++shared; });
    return shared;
}

std::vector<Candidate>
shared_candidates(const ExecutableIndex &T,
                  std::span<const std::uint64_t> q, ScoringStats *stats)
{
    std::vector<Candidate> out;
    if (T.procs.empty() || q.empty()) {
        return out;
    }
    // Accumulate shared counts over the posting lists of q's strands:
    // only procedures sharing at least one strand are ever touched.
    ScoringStats local;
    std::vector<int> counts(T.procs.size(), 0);
    std::vector<std::uint32_t> touched;
    const std::uint64_t *base = T.posting_hashes.data();
    const std::uint64_t *ph = base;
    const std::uint64_t *pe = base + T.posting_hashes.size();
    for (const std::uint64_t h : q) {
        ++local.elem_ops;  // one probe per query hash
        ph = gallop_lower_bound(ph, pe, h);
        if (ph == pe) {
            break;
        }
        if (*ph != h) {
            continue;
        }
        const std::size_t row = static_cast<std::size_t>(ph - base);
        const std::uint32_t lo = T.posting_offsets[row];
        const std::uint32_t hi = T.posting_offsets[row + 1];
        for (std::uint32_t j = lo; j < hi; ++j) {
            const std::uint32_t proc = T.posting_procs[j];
            ++local.elem_ops;  // one accumulation per incidence
            if (counts[proc]++ == 0) {
                touched.push_back(proc);
                ++local.pairs_scored;
            }
        }
    }
    std::sort(touched.begin(), touched.end());
    out.reserve(touched.size());
    for (std::uint32_t proc : touched) {
        out.push_back({static_cast<int>(proc), counts[proc]});
    }
    if (stats != nullptr) {
        stats->pairs_scored += local.pairs_scored;
        stats->elem_ops += local.elem_ops;
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
    for_each_shared(q, t,
                    [&](std::uint64_t h) { score += context.weight_of(h); });
    return score;
}

}  // namespace firmup::sim
