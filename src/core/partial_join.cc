#include "core/partial_join.h"

#include <algorithm>
#include <memory>

#include "core/pair_streams.h"

namespace dhtjoin {

Result<std::vector<TupleAnswer>> PartialJoin::Run(
    const Graph& g, const DhtParams& params, int d, const QueryGraph& query,
    const Aggregate& f, std::size_t k) {
  DHTJOIN_RETURN_NOT_OK(params.Validate());
  DHTJOIN_RETURN_NOT_OK(query.Validate(g));
  if (k == 0) return Status::InvalidArgument("k must be positive");
  stats_ = Stats();

  // One top-m 2-way join per query edge (Alg. 1 Steps 2-4).
  std::vector<std::unique_ptr<PairStream>> streams;
  std::vector<PairStream*> stream_ptrs;
  std::vector<const IncrementalTwoWayJoin*> incremental;
  for (const JoinEdge& e : query.edges()) {
    const NodeSet& P = query.set(e.left);
    const NodeSet& Q = query.set(e.right);
    if (options_.incremental) {
      auto join = IncrementalTwoWayJoin::Create(
          g, params, d, P, Q, options_.m,
          IncrementalTwoWayJoin::Options{.bound = options_.bound,
                                         .snapshots = options_.snapshots});
      if (!join.ok()) return join.status();
      incremental.push_back(join->get());
      streams.push_back(std::make_unique<IncrementalPairStream>(
          std::move(join).value()));
    } else {
      auto stream = std::make_unique<RerunPairStream>(
          g, params, d, P, Q, options_.m, options_.bound);
      DHTJOIN_RETURN_NOT_OK(stream->status());
      streams.push_back(std::move(stream));
    }
    stream_ptrs.push_back(streams.back().get());
  }

  // Rank join over the streams (Alg. 1 Steps 5-14).
  Pbrj rank_join(query.num_sets(), query.edges(), &f, k,
                 Pbrj::Options{options_.pull_strategy});
  auto result = rank_join.Run(stream_ptrs);
  stats_.rank_join = rank_join.stats();
  stats_.pulls_per_edge = rank_join.stats().pulls_per_edge;
  stats_.beyond_m_per_edge.assign(stream_ptrs.size(), 0);
  for (std::size_t e = 0; e < stats_.pulls_per_edge.size(); ++e) {
    stats_.beyond_m_per_edge[e] =
        std::max<int64_t>(0, stats_.pulls_per_edge[e] -
                                 static_cast<int64_t>(options_.m));
  }
  stats_.ybound_cached =
      options_.bound == UpperBoundKind::kY && !incremental.empty();
  for (const IncrementalTwoWayJoin* join : incremental) {
    const TwoWayJoinStats& st = join->stats();
    stats_.join.walk_steps += st.walk_steps;
    stats_.join.walks_started += st.walks_started;
    stats_.join.pool_barriers += st.pool_barriers;
    stats_.join.state_hits += st.state_hits;
    stats_.join.state_misses += st.state_misses;
    stats_.join.state_evictions += st.state_evictions;
    stats_.join.state_resident_bytes += st.state_resident_bytes;
    stats_.warm_targets += join->warm_targets();
    stats_.cold_targets += join->cold_targets();
    stats_.ybound_cached = stats_.ybound_cached && join->ybound_cached();
  }
  return result;
}

}  // namespace dhtjoin
