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
/// O(n).
///
/// Every join and the serving layer walk on the batch engine
/// (dht/backward_batch.h), at W = 8 for many targets and W = 1 for one.
/// This scalar walker is their reference: tests and benches check the
/// batch engine against it bit for bit.
///
/// Walks are resumable two ways: Advance() continues from the current
/// level in place, and Save()/Restore() snapshot the full walk state. A
/// restored walk is bit-identical to the walk it was saved from — and,
/// by the engine's sorted-support determinism (DESIGN.md §3), to a
/// from-scratch walk of the same depth.

#ifndef DHTJOIN_DHT_BACKWARD_H_
#define DHTJOIN_DHT_BACKWARD_H_

#include <utility>
#include <vector>

#include "dht/params.h"
#include "dht/propagate.h"
#include "graph/graph.h"

namespace dhtjoin {

/// Snapshot of one in-flight backward walk (target, depth, propagation
/// mass, score deltas). O(touched) memory, not O(n).
struct BackwardWalkerState {
  ExtNodeId target;  ///< external id; invalid when the state is empty
  int level = 0;
  double lambda_pow = 1.0;
  PropagatorState engine;
  /// (INTERNAL id, h_level(u, q) - beta) of every touched u, strictly
  /// ascending by id (DESIGN.md §3). Every delta is nonzero; an absent
  /// id's delta is exactly 0.0.
  std::vector<std::pair<NodeId, double>> score_delta;

  std::size_t ApproxBytes() const {
    return sizeof(*this) + engine.ApproxBytes() +
           score_delta.capacity() * sizeof(score_delta[0]);
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
