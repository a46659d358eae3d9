#include "sim/similarity.h"

#include <algorithm>
#include <cmath>

#include "support/threadpool.h"
#include "support/trace.h"

namespace firmup::sim {

namespace {

const trace::Counter c_finalize_calls("index.finalize_calls");
const trace::Counter c_posting_hashes("index.posting_hashes");
const trace::Counter c_posting_incidences("index.posting_incidences");
const trace::Counter c_indexed_procs("index.procedures");

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
for_each_shared(const std::uint64_t *a, std::size_t an,
                const std::uint64_t *b, std::size_t bn, OnShared &&on)
{
    const std::uint64_t *sp = a;
    std::size_t sn = an;
    const std::uint64_t *lp = b;
    std::size_t ln = bn;
    if (sn > ln) {
        std::swap(sp, lp);
        std::swap(sn, ln);
    }
    if (sn == 0) {
        return;
    }
    const std::uint64_t *s = sp;
    const std::uint64_t *se = s + sn;
    const std::uint64_t *l = lp;
    const std::uint64_t *le = l + ln;
    constexpr std::size_t kGallopRatio = 16;
    if (ln / sn >= kGallopRatio) {
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

void
ExecutableIndex::finalize()
{
    entry_map.clear();
    name_map.clear();
    entry_map.reserve(procs.size());
    name_map.reserve(procs.size());
    std::size_t total_hashes = 0;
    for (std::size_t i = 0; i < procs.size(); ++i) {
        // First occurrence wins, matching the linear-scan semantics.
        entry_map.emplace(procs[i].entry, static_cast<int>(i));
        name_map.emplace(procs[i].name, static_cast<int>(i));
        total_hashes += procs[i].repr.hash_count();
    }
    // CSR inverted index: one (hash, proc) incidence per strand, sorted
    // by hash then procedure so every posting list is ascending.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> incidences;
    incidences.reserve(total_hashes);
    for (std::size_t i = 0; i < procs.size(); ++i) {
        const std::uint64_t *h = procs[i].repr.hash_data();
        const std::uint64_t *he = h + procs[i].repr.hash_count();
        for (; h != he; ++h) {
            incidences.emplace_back(*h, static_cast<std::uint32_t>(i));
        }
    }
    std::sort(incidences.begin(), incidences.end());
    // finalize() rebuilds owning posting vectors; if this index started
    // as a blob view, the rebuilt vectors supersede the mapped arrays.
    posting_hashes_view = nullptr;
    posting_offsets_view = nullptr;
    posting_procs_view = nullptr;
    posting_count_view = 0;
    posting_procs_count_view = 0;
    posting_hashes.clear();
    posting_offsets.clear();
    posting_procs.clear();
    posting_procs.reserve(incidences.size());
    for (const auto &[hash, proc] : incidences) {
        if (posting_hashes.empty() || posting_hashes.back() != hash) {
            posting_hashes.push_back(hash);
            posting_offsets.push_back(
                static_cast<std::uint32_t>(posting_procs.size()));
        }
        posting_procs.push_back(proc);
    }
    posting_offsets.push_back(
        static_cast<std::uint32_t>(posting_procs.size()));
    search_ready = true;
    c_finalize_calls.add();
    c_posting_hashes.add(posting_hashes.size());
    c_posting_incidences.add(posting_procs.size());
    c_indexed_procs.add(procs.size());
}

int
ExecutableIndex::find_by_entry(std::uint64_t addr) const
{
    if (search_ready) {
        const auto it = entry_map.find(addr);
        return it != entry_map.end() ? it->second : -1;
    }
    for (std::size_t i = 0; i < procs.size(); ++i) {
        if (procs[i].entry == addr) {
            return static_cast<int>(i);
        }
    }
    return -1;
}

int
ExecutableIndex::find_by_name(const std::string &proc_name) const
{
    if (search_ready) {
        const auto it = name_map.find(proc_name);
        return it != name_map.end() ? it->second : -1;
    }
    for (std::size_t i = 0; i < procs.size(); ++i) {
        if (procs[i].name == proc_name) {
            return static_cast<int>(i);
        }
    }
    return -1;
}

std::size_t
ExecutableIndex::memory_bytes() const
{
    // Approximate accounting for the resident-cache byte budget: the
    // big arenas plus the per-procedure fixed state. Map/table overhead
    // is deliberately ignored — the budget is a ballast figure, not an
    // allocator audit.
    std::size_t bytes = sizeof(*this);
    bytes += name.size();
    for (const ProcEntry &proc : procs) {
        bytes += sizeof(ProcEntry);
        bytes += proc.name.size();
        bytes += proc.repr.hashes.size() * sizeof(std::uint64_t);
    }
    // A view-mode index charges the whole mapped blob; its owning
    // vectors are empty, so the two terms never double-count (and a
    // mixed state — a view later finalize()d — charges both, which is
    // exactly what it holds).
    bytes += mapped_bytes;
    bytes += posting_hashes.size() * sizeof(std::uint64_t);
    bytes += posting_offsets.size() * sizeof(std::uint32_t);
    bytes += posting_procs.size() * sizeof(std::uint32_t);
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

    ExecutableIndex index;
    index.name = lifted.name;
    index.arch = lifted.arch;
    index.procs.resize(lifted.procs.size());
    std::vector<const ir::Procedure *> order;
    order.reserve(lifted.procs.size());
    for (const auto &[entry, proc] : lifted.procs) {
        const std::size_t slot = order.size();
        order.push_back(&proc);
        index.procs[slot].entry = entry;
        index.procs[slot].name = proc.name;
    }
    const auto represent_slot = [&](std::size_t slot) {
        index.procs[slot].repr =
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
    index.finalize();
    return index;
}

int
sim_score(const strand::ProcedureStrands &q,
          const strand::ProcedureStrands &t)
{
    int shared = 0;
    for_each_shared(q.hash_data(), q.hash_count(), t.hash_data(),
                    t.hash_count(), [&shared](std::uint64_t) { ++shared; });
    return shared;
}

std::vector<Candidate>
shared_candidates(const ExecutableIndex &T,
                  const strand::ProcedureStrands &q,
                  ScoringStats *stats)
{
    std::vector<Candidate> out;
    if (T.procs.empty() || q.hash_empty()) {
        return out;
    }
    ScoringStats local;
    if (!T.search_ready) {
        // Dense fallback for hand-assembled indexes: one pairwise merge
        // per procedure.
        for (std::size_t i = 0; i < T.procs.size(); ++i) {
            const int s = sim_score(q, T.procs[i].repr);
            ++local.pairs_scored;
            local.elem_ops +=
                q.hash_count() + T.procs[i].repr.hash_count();
            if (s > 0) {
                out.push_back({static_cast<int>(i), s});
            }
        }
        if (stats != nullptr) {
            stats->pairs_scored += local.pairs_scored;
            stats->elem_ops += local.elem_ops;
        }
        return out;
    }
    // Accumulate shared counts over the posting lists of q's strands:
    // only procedures sharing at least one strand are ever touched.
    std::vector<int> counts(T.procs.size(), 0);
    std::vector<std::uint32_t> touched;
    const std::uint64_t *base = T.posting_hash_data();
    const std::uint32_t *offsets = T.posting_offset_data();
    const std::uint32_t *plist = T.posting_proc_data();
    const std::uint64_t *ph = base;
    const std::uint64_t *pe = base + T.posting_hash_count();
    const std::uint64_t *qh = q.hash_data();
    const std::uint64_t *qe = qh + q.hash_count();
    for (; qh != qe; ++qh) {
        const std::uint64_t h = *qh;
        ++local.elem_ops;  // one probe per query hash
        ph = gallop_lower_bound(ph, pe, h);
        if (ph == pe) {
            break;
        }
        if (*ph != h) {
            continue;
        }
        const std::size_t row = static_cast<std::size_t>(ph - base);
        const std::uint32_t lo = offsets[row];
        const std::uint32_t hi = offsets[row + 1];
        for (std::uint32_t j = lo; j < hi; ++j) {
            const std::uint32_t proc = plist[j];
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
            const std::uint64_t *h = proc.repr.hash_data();
            const std::uint64_t *he = h + proc.repr.hash_count();
            for (; h != he; ++h) {
                ++counts[*h];
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
weighted_sim(const strand::ProcedureStrands &q,
             const strand::ProcedureStrands &t,
             const GlobalContext &context)
{
    double score = 0.0;
    for_each_shared(q.hash_data(), q.hash_count(), t.hash_data(),
                    t.hash_count(),
                    [&](std::uint64_t h) { score += context.weight_of(h); });
    return score;
}

}  // namespace firmup::sim
