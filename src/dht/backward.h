/// \file dht/backward.h
/// \brief Backward first-hit propagation — the paper's backWalk (Eq. 5).
///
/// One backward walk from a target q yields h_d(u, q) for EVERY source u
/// simultaneously in O(d * |E|) worst case:
///   P_i(u, q) = sum_{(u,v) in E, v != q} p_uv * backProb[v]   (i > 1)
///   P_1(u, q) = p_uq
/// This |P|-fold advantage over forward processing is the core of the
/// paper's B-BJ / B-IDJ family (Sec VI). The frontier-adaptive engine
/// (dht/propagate.h) further makes the per-step cost proportional to the
/// reverse-reachable frontier instead of the whole graph; scores are
/// kept as deltas over the beta floor so Reset() costs O(touched), not
/// O(n). For advancing MANY targets at once, prefer BackwardWalkerBatch
/// (dht/backward_batch.h).
///
/// Walks are resumable two ways: Advance() continues from the current
/// level in place, and Save()/Restore() snapshot the full walk state so
/// one walker instance can interleave many targets' deepening schedules
/// (see WalkerStatePool in dht/walker_state.h). A restored walk is
/// bit-identical to the walk it was saved from — and, by the engine's
/// sorted-support determinism (DESIGN.md §3), to a from-scratch walk of
/// the same depth.

#ifndef DHTJOIN_DHT_BACKWARD_H_
#define DHTJOIN_DHT_BACKWARD_H_

#include <memory>
#include <utility>
#include <vector>

#include "dht/params.h"
#include "dht/propagate.h"
#include "graph/graph.h"

namespace dhtjoin {

class NodeSet;      // graph/node_set.h
class YBoundTable;  // dht/bounds.h

/// Snapshot of one in-flight backward walk (target, depth, propagation
/// mass, score deltas). O(touched) memory, not O(n).
struct BackwardWalkerState {
  ExtNodeId target;  ///< external id; invalid when the state is empty
  int level = 0;
  double lambda_pow = 1.0;
  PropagatorState engine;
  /// (INTERNAL id, h_level(u, q) - beta) of every touched u, strictly
  /// ascending by id, so a reader can search for the ids it needs
  /// instead of scanning the whole walk (DESIGN.md §3). Every delta is
  /// nonzero; an absent id's delta is exactly 0.0.
  std::vector<std::pair<NodeId, double>> score_delta;

  std::size_t ApproxBytes() const {
    return sizeof(*this) + engine.ApproxBytes() +
           score_delta.capacity() * sizeof(score_delta[0]);
  }
};

/// Cross-query source of saved backward walks and Y-bound tables,
/// implemented by the serving cache (src/serve/). The provider's key
/// context (graph, params) is fixed at construction; a fetched state is
/// a walk of `target` at some depth `state->level` in [1, d]. It may be
/// resumed from exactly that level, or — when that level is at or past
/// the one a caller needs — scored at that level directly from its
/// `score_delta` (DESIGN.md §3, §6), with bit-identical results. A
/// state at d is therefore never resumed and may carry no engine mass.
/// Fetch returning nullptr, and Store discarding its argument, are both
/// always legal — the provider is a cache, not a store of record.
/// Implementations must be thread-safe: concurrent query sessions share
/// one provider.
class BackwardSnapshotProvider {
 public:
  virtual ~BackwardSnapshotProvider() = default;

  /// Deepest saved walk of `target`, or nullptr.
  virtual std::shared_ptr<const BackwardWalkerState> Fetch(
      ExtNodeId target) = 0;

  /// Offers the walk of `target` for future queries.
  virtual void Store(ExtNodeId target, BackwardWalkerState state) = 0;

  /// Cheap pre-check: would a Store of `target` at `level` possibly be
  /// kept? False lets callers skip the snapshot copy entirely (the
  /// common warm case: the cache already holds an equal-or-deeper
  /// walk). Advisory only — Store remains the authoritative,
  /// race-safe arbiter.
  virtual bool WantsLevel(ExtNodeId target, int level) {
    (void)target;
    (void)level;
    return true;
  }

  /// Y-bound table of (P, Q) at depth d, shared with other queries
  /// (two-way ones included) over the same sets. On success `*cached`
  /// says whether it was already held; false means this call ran the
  /// sweep, whose edges the caller charges. nullptr (the default) means
  /// the caller builds its own table.
  virtual std::shared_ptr<const YBoundTable> SharedYBound(const NodeSet& P,
                                                          const NodeSet& Q,
                                                          int d,
                                                          bool* cached) {
    (void)P;
    (void)Q;
    (void)d;
    (void)cached;
    return nullptr;
  }
};

/// Resumable backward walker for a single target q.
///
/// Reset() fixes the target, Advance() deepens the walk, Score(u) reads
/// h_l(u, q) at the current depth l for any u. Workspace vectors are
/// reused across Reset() calls.
///
/// All node ids crossing this interface (targets, Score() arguments,
/// BackwardWalkerState::target) are EXTERNAL ids; the walker translates
/// to the graph's physical layout internally, so callers are oblivious
/// to reordering (graph/reorder.h).
class BackwardWalker {
 public:
  /// `soa_gather` selects the dense gather's edge stream (split SoA
  /// arrays vs AoS OutEdge; bit-identical — see Propagator).
  explicit BackwardWalker(const Graph& g,
                          PropagationMode mode = PropagationMode::kAdaptive,
                          bool restrict_dense = true,
                          bool soa_gather = true);

  /// Starts a new backward walk absorbed at `q`.
  void Reset(const DhtParams& params, ExtNodeId q);

  /// Advances the walk by `steps` more steps.
  void Advance(int steps);

  /// Snapshots the current walk into `out`; the walker is unchanged.
  /// The score deltas come out in ascending internal id, read off the
  /// dense delta vector in one O(n) pass.
  void Save(BackwardWalkerState* out) const;

  /// Replaces the current walk with `state` (saved with the same params;
  /// the caller is responsible for passing matching params). Subsequent
  /// Advance() calls produce bit-identical scores to the original walk.
  void Restore(const DhtParams& params, const BackwardWalkerState& state);

  /// Current depth l.
  int level() const { return level_; }

  ExtNodeId target() const { return target_; }

  /// h_l(u, q) at the current depth; equals params.beta when u cannot
  /// reach q within l steps. Score(q) itself is meaningless (self pair)
  /// and must not be consumed by joins.
  double Score(ExtNodeId u) const {
    return params_.beta +
           score_delta_[static_cast<std::size_t>(g_.ToInternal(u).value())];
  }

  /// Edges relaxed by this walker since construction (across Resets).
  int64_t edges_relaxed() const { return engine_.edges_relaxed(); }

 private:
  const Graph& g_;
  Propagator engine_;
  DhtParams params_;
  ExtNodeId target_;
  IntNodeId target_internal_;  // layout id, for absorption
  int level_ = 0;
  double lambda_pow_ = 1.0;  // lambda^level
  // score_delta_[u] = h_l(u, q) - beta for INTERNAL u; nonzero exactly
  // on touched_ (first-touch order), so Reset clears in O(|touched_|).
  std::vector<double> score_delta_;
  std::vector<NodeId> touched_;
};

}  // namespace dhtjoin

#endif  // DHTJOIN_DHT_BACKWARD_H_
