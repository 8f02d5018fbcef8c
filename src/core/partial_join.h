/// \file core/partial_join.h
/// \brief PJ and PJ-i — the paper's contribution (Sec IV and VI-D).
///
/// PJ (Algorithm 1) evaluates only a TOP-m 2-way join per query edge
/// (B-IDJ under the hood) and rank-joins the short lists with PBRJ;
/// when the rank join needs a pair beyond the m-th, getNextNodePair
/// supplies it. The two variants differ exactly there:
///
///   * PJ   — re-runs a top-(m+1) 2-way join from scratch
///            (RerunPairStream);
///   * PJ-i — resumes the incremental F structure that the top-m join
///            already built (IncrementalPairStream), which is what makes
///            it up to ~50x faster and insensitive to m.
///
/// Both support any monotone aggregate and both DHT variants.

#ifndef DHTJOIN_CORE_PARTIAL_JOIN_H_
#define DHTJOIN_CORE_PARTIAL_JOIN_H_

#include "core/nway_join.h"
#include "join2/two_way_join.h"

namespace dhtjoin {

class BatchStateProvider;

class PartialJoin final : public NwayJoin {
 public:
  struct Options {
    /// Initial 2-way join depth per query edge (paper default m = 50).
    std::size_t m = 50;
    /// False = PJ (re-run from scratch); true = PJ-i (incremental).
    bool incremental = false;
    /// Remainder bound of the underlying B-IDJ (paper uses Y).
    UpperBoundKind bound = UpperBoundKind::kY;
    /// Rank-join pulling strategy (paper uses HRJN round-robin; the
    /// HRJN*-style adaptive strategy is an extension, see the ablation
    /// bench).
    PullStrategy pull_strategy = PullStrategy::kRoundRobin;
    /// Cross-query store of walk states for the incremental streams
    /// (the serving cache; see join2/incremental.h): each query edge
    /// imports its states when it is created and writes them back when
    /// the rank join ends. PJ-i only.
    BatchStateProvider* snapshots = nullptr;
  };

  struct Stats {
    /// Pairs the rank join actually consumed, per query edge.
    std::vector<int64_t> pulls_per_edge;
    /// Pairs requested beyond the initial top-m, per query edge
    /// (getNextNodePair traffic).
    std::vector<int64_t> beyond_m_per_edge;
    PbrjStats rank_join;
    /// PJ-i only: the per-edge enumerators' scalar counters, summed —
    /// walk_steps (walks plus the Y-bound sweeps actually run),
    /// walks_started, pool_barriers and the state_* counters.
    TwoWayJoinStats join;
    /// PJ-i only: targets whose state the provider seeded vs the rest
    /// (IncrementalTwoWayJoin::warm_targets), summed over the edges.
    int64_t warm_targets = 0;
    int64_t cold_targets = 0;
    /// PJ-i with the Y bound: every edge's table came from the provider.
    bool ybound_cached = false;
  };

  PartialJoin() = default;
  explicit PartialJoin(Options options) : options_(options) {}

  std::string Name() const override {
    return options_.incremental ? "PJ-i" : "PJ";
  }

  Result<std::vector<TupleAnswer>> Run(const Graph& g,
                                       const DhtParams& params, int d,
                                       const QueryGraph& query,
                                       const Aggregate& f,
                                       std::size_t k) override;

  const Stats& stats() const { return stats_; }

 private:
  Options options_;
  Stats stats_;
};

}  // namespace dhtjoin

#endif  // DHTJOIN_CORE_PARTIAL_JOIN_H_
