/// \file core/nl_join.h
/// \brief NL — the Nested Loop baseline (paper Sec III-B).
///
/// Enumerates every candidate answer with n nested loops and keeps the
/// k best. The per-edge DHT scores are batch-computed up front on
/// ForwardWalkerBatch (one forward walk per pair, kLaneWidth pairs per
/// edge pass) instead of the seed's one walk per TUPLE — still zero
/// pruning, every pair of every edge walked, but without recomputing a
/// pair for each tuple that contains it. Cost
/// sum_e |R_left| * |R_right| * d * |E_G| walks + Pi |R_i| enumeration —
/// the enumeration alone keeps NL infeasible for n >= 3 at paper scale;
/// an optional wall-clock budget lets benchmarks report DNF instead of
/// hanging. When the dense per-edge tables would exceed
/// Options::max_table_bytes, NL falls back to scoring each tuple's pairs
/// on demand, one pair per ForwardWalkerBatch::Run, instead of risking
/// an OOM.
///
/// The enumeration does no per-tuple work it can share. Each query edge
/// is scored at the loop of its later-bound endpoint, once per binding
/// of that prefix, and a prefix holding an invalid pair (u == v, or
/// h_d <= beta) is skipped as a block whose tuples still count in
/// Stats::tuples_enumerated, which is therefore always Pi |R_i|. Every
/// valid tuple gets its f and is tested with TopK::Rejects, the test
/// Offer itself applies; a TupleAnswer is built only for a tuple the
/// heap keeps, so the heap passes through the same states as if every
/// tuple were built and offered, and the answer bytes do not depend on
/// any of this. The per-tuple fallback walks each edge once per prefix
/// too, so its Stats::dht_computations counts walks per prefix, not
/// per tuple.

#ifndef DHTJOIN_CORE_NL_JOIN_H_
#define DHTJOIN_CORE_NL_JOIN_H_

#include <limits>
#include <memory>
#include <vector>

#include "core/nway_join.h"

namespace dhtjoin {

/// Cross-query source of per-edge score tables, implemented by the
/// serving cache (src/serve/). A fetched table is |L| x |R| row-major
/// h_d scores for exactly the (L, R, params, d) NL is about to walk;
/// since the batched forward engine is bit-deterministic (DESIGN.md §3)
/// a cached table is byte-equal to a recomputed one. Fetch returning
/// nullptr and Store discarding are both always legal. Implementations
/// must be thread-safe.
class EdgeScoreTableProvider {
 public:
  virtual ~EdgeScoreTableProvider() = default;

  /// Saved table for query edge (L, R), or nullptr.
  virtual std::shared_ptr<const std::vector<double>> Fetch(
      const NodeSet& L, const NodeSet& R) = 0;

  /// Offers a fully-computed table for future queries.
  virtual void Store(const NodeSet& L, const NodeSet& R,
                     std::shared_ptr<const std::vector<double>> table) = 0;
};

class NestedLoopJoin final : public NwayJoin {
 public:
  struct Options {
    /// Abort (returning OutOfRange) when the run exceeds this budget.
    double time_budget_seconds = std::numeric_limits<double>::infinity();
    /// Ceiling on the batched per-edge score tables (summed over query
    /// edges); above it NL walks per tuple in O(1) memory instead.
    std::size_t max_table_bytes = std::size_t{1} << 30;
    /// Optional cross-query table source (the serving cache). Must
    /// outlive the join.
    EdgeScoreTableProvider* tables = nullptr;
  };

  struct Stats {
    int64_t tuples_enumerated = 0;
    int64_t dht_computations = 0;
    /// Per-edge tables served by Options::tables instead of walked.
    int64_t table_hits = 0;
    bool completed = false;
  };

  NestedLoopJoin() = default;
  explicit NestedLoopJoin(Options options) : options_(options) {}

  std::string Name() const override { return "NL"; }

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

#endif  // DHTJOIN_CORE_NL_JOIN_H_
