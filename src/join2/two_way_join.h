/// \file join2/two_way_join.h
/// \brief Common interface of the paper's five 2-way join algorithms.
///
/// A top-k 2-way join over DHT (paper Sec V): given node sets P and Q,
/// return the k pairs (p, q), p in P, q in Q, with the highest truncated
/// DHT h_d(p, q), together with those scores.
///
/// Result semantics shared by every implementation (and inherited by the
/// n-way joins):
///  * self pairs (p == q, possible when P and Q overlap) are excluded —
///    h(u, u) is not defined by the measure;
///  * unreachable pairs (h_d == beta, i.e. q not reachable from p within
///    d steps) are excluded, mirroring Algorithm 2's `score[p] > beta`
///    insertion guard. This is the library-wide under-k decision: a
///    floor-score pair carries no proximity signal, so every algorithm
///    (and NestedLoopJoin) drops it via the same strict `score > beta`
///    test and returns FEWER than k pairs rather than padding with
///    unreachable ones;
///  * fewer than k pairs are returned when fewer valid pairs exist;
///  * output is sorted by score descending, ties broken by (p, q)
///    ascending — including at the k-th boundary: when several pairs tie
///    there, the ones with the smallest (p, q) are retained (the
///    PairTopK tie policy below), so all algorithms return the same
///    pairs regardless of enumeration order.
///
/// Implementations: F-BJ / F-IDJ (forward, Sec V-B), B-BJ / B-IDJ-X /
/// B-IDJ-Y (backward, Sec VI), each a separate translation unit.

#ifndef DHTJOIN_JOIN2_TWO_WAY_JOIN_H_
#define DHTJOIN_JOIN2_TWO_WAY_JOIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dht/params.h"
#include "graph/graph.h"
#include "graph/node_set.h"
#include "util/hash.h"
#include "util/status.h"
#include "util/top_k.h"

namespace dhtjoin {

/// One 2-way join result: nodes and their truncated DHT score h_d(p, q).
struct ScoredPair {
  NodeId p = kInvalidNode;
  NodeId q = kInvalidNode;
  double score = 0.0;

  bool operator==(const ScoredPair& other) const {
    return p == other.p && q == other.q && score == other.score;
  }
};

/// Descending score, ties by (p, q) ascending — the library-wide result
/// order.
inline bool ScoredPairGreater(const ScoredPair& a, const ScoredPair& b) {
  if (a.score != b.score) return a.score > b.score;
  if (a.p != b.p) return a.p < b.p;
  return a.q < b.q;
}

/// Tie policy for TopK<ScoredPair>: among equal scores, the smaller
/// (p, q) outranks — the tie half of ScoredPairGreater.
struct ScoredPairPrefer {
  bool operator()(const ScoredPair& a, const ScoredPair& b) const {
    if (a.p != b.p) return a.p < b.p;
    return a.q < b.q;
  }
};

/// The top-k heap every 2-way algorithm uses for candidate selection, so
/// the retained set at a tied k-th boundary is algorithm-independent.
using PairTopK = TopK<ScoredPair, ScoredPairPrefer>;

/// 64-bit key for hashing a node pair.
// dhtlint: allow(raw-id-param): key over ScoredPair's raw external ids
// (join OUTPUTS stay raw — DESIGN.md §10)
inline uint64_t PairKey(NodeId p, NodeId q) { return PackPair(p, q); }

/// Which remainder bound U_l^+ an IDJ-style algorithm plugs in.
enum class UpperBoundKind {
  kX,  ///< X_l^+ of Lemma 2 (pair-independent)
  kY,  ///< Y_l^+(P, q) of Theorem 1 (per-target, tighter)
};

/// Anytime-degradation record for a run under an ExecContext
/// (util/deadline.h, DESIGN.md §9). When a soft stop (deadline or
/// effort budget) interrupts an IDJ-style run, the executor cuts at the
/// last COMPLETED deepening level and returns that level's top-k; the
/// returned scores are then h_level_reached values, and by the §2
/// remainder bounds every exact score satisfies
///   score <= h_d <= score + eps_bound .
/// A full (undegraded) run reports {false, d, 0.0}.
struct PartialInfo {
  bool degraded = false;
  /// Depth of the returned scores: the last completed deepening level
  /// (0 = stopped before any level completed — scores are absent and
  /// the result is empty with eps_bound = U_0^+).
  int level_reached = 0;
  /// max over live targets q of U_{level_reached}^+(q): one scalar
  /// valid for every returned pair.
  double eps_bound = 0.0;
};

/// Observability counters filled in by every algorithm run.
struct TwoWayJoinStats {
  /// Total edges relaxed across all walks (multiply-adds into the next
  /// mass vector, as counted by the propagation engine). A dense step
  /// costs |E|; a frontier-adaptive step only what its frontier touches,
  /// so this is the number the sparse engine actually improves.
  int64_t walk_steps = 0;
  /// Number of walker (re)starts.
  int64_t walks_started = 0;
  /// For IDJ variants: number of live candidates (q for backward, p for
  /// forward) entering each deepening iteration; entry 0 is the initial
  /// size.
  std::vector<int64_t> live_per_iteration;
  /// For IDJ variants: cumulative fraction of candidates pruned after
  /// each deepening iteration (paper Fig. 10(b)).
  std::vector<double> pruned_fraction_per_iteration;

  /// Fork/join barriers (ThreadPool::ParallelFor dispatches) the run's
  /// batch engines paid in total, and per deepening round. The fused
  /// multi-target scheduler (dht/batch_core.h, DESIGN.md §8) keeps the
  /// per-round count at O(1) instead of O(|live targets|); gated in
  /// bench_scheduler and surfaced in dhtjoin_cli's stats JSON.
  int64_t pool_barriers = 0;
  std::vector<int64_t> barriers_per_iteration;

  /// Resume-state pool observability (filled by the IDJ-family runs, the
  /// incremental enumerator, and the serving executor): walks continued
  /// from a saved state vs started fresh (never saved, or evicted), and
  /// snapshots the byte budget forced out. `state_resident_bytes` is the
  /// pool's footprint when the run finished — together with the budget
  /// these are the inputs an autotuner needs (see
  /// AutotuneStateBudgetBytes in dht/batch_core.h).
  int64_t state_hits = 0;
  int64_t state_misses = 0;
  int64_t state_evictions = 0;
  int64_t state_resident_bytes = 0;

  /// Degradation record of the run (see PartialInfo); {false, d, 0}
  /// for a run that completed its exact final pass. `level_reached`
  /// stays 0 for the non-deepening algorithms (F-BJ, B-BJ), which
  /// never degrade.
  PartialInfo partial;

  /// Block-group cooperative checks performed by the run's engines
  /// (ExecContext::blocks_checked); 0 when no ExecContext was given.
  int64_t lifecycle_checks = 0;

  void Reset() { *this = TwoWayJoinStats(); }
};

/// Abstract top-k 2-way join algorithm.
class TwoWayJoin {
 public:
  virtual ~TwoWayJoin() = default;

  /// Algorithm name as used in the paper ("F-BJ", "B-IDJ-Y", ...).
  virtual std::string Name() const = 0;

  /// Runs the join; see file comment for result semantics.
  virtual Result<std::vector<ScoredPair>> Run(const Graph& g,
                                              const DhtParams& params, int d,
                                              const NodeSet& P,
                                              const NodeSet& Q,
                                              std::size_t k) = 0;

  /// Counters from the most recent Run().
  const TwoWayJoinStats& stats() const { return stats_; }

 protected:
  TwoWayJoinStats stats_;
};

/// Validates the common Run() preconditions; shared by implementations.
Status ValidateJoinInputs(const Graph& g, const DhtParams& params, int d,
                          const NodeSet& P, const NodeSet& Q, std::size_t k);

/// Sorts `pairs` into the library-wide result order and truncates to k.
void FinalizePairs(std::vector<ScoredPair>& pairs, std::size_t k);

}  // namespace dhtjoin

#endif  // DHTJOIN_JOIN2_TWO_WAY_JOIN_H_
