#include "baseline/gitz_like.h"

#include <algorithm>

namespace firmup::baseline {

std::vector<RankedMatch>
gitz_rank(const sim::ExecutableIndex &Q, int qv_index,
          const sim::ExecutableIndex &T,
          const sim::GlobalContext *context)
{
    const auto query = Q.procs[static_cast<std::size_t>(qv_index)].strands;
    // Procedures sharing no strand score exactly 0 either way, so only
    // the inverted-index candidates need scoring; everything else stays
    // at 0 in index order (preserved by the stable sort below).
    std::vector<RankedMatch> ranked(T.procs.size());
    for (std::size_t i = 0; i < T.procs.size(); ++i) {
        ranked[i].target_index = static_cast<int>(i);
    }
    for (const sim::Candidate &c : sim::shared_candidates(T, query)) {
        const std::size_t i = static_cast<std::size_t>(c.index);
        ranked[i].score =
            context != nullptr
                ? sim::weighted_sim(query, T.procs[i].strands, *context)
                : static_cast<double>(c.sim);
    }
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const RankedMatch &a, const RankedMatch &b) {
                         return a.score > b.score;
                     });
    return ranked;
}

int
gitz_top1(const sim::ExecutableIndex &Q, int qv_index,
          const sim::ExecutableIndex &T,
          const sim::GlobalContext *context)
{
    const auto ranked = gitz_rank(Q, qv_index, T, context);
    return ranked.empty() ? -1 : ranked.front().target_index;
}

}  // namespace firmup::baseline
