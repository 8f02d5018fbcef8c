/// \file dht/forward.h
/// \brief Forward first-hit random-walk propagation (paper Sec V-B).
///
/// Computes h_d(u, v) by pushing probability mass ALONG edge directions
/// from the source u, with absorption at the target v: at every step,
///   r'[w] = sum_{x != v, (x,w) in E} r[x] * p_xw ,
/// and r'[v] is the first-hit probability P_i(u, v) of that step.
/// One (u, v) pair costs O(d * |E|) worst case; the frontier-adaptive
/// engine (dht/propagate.h) makes it output-sensitive when the walk mass
/// stays concentrated, but the per-pair restart is still what makes the
/// forward 2-way join algorithms (F-BJ, F-IDJ) slow, as the paper
/// stresses. For evaluating MANY pairs, prefer ForwardWalkerBatch
/// (dht/forward_batch.h), which advances kLaneWidth source walkers per
/// out-CSR pass.
///
/// Walks are resumable two ways: Advance() continues from the current
/// level in place, and Save()/Restore() snapshot the full walk state,
/// so one walker can interleave many pairs' walks. A restored walk is
/// bit-identical to the walk it was saved from — and, by the engine's
/// sorted-support determinism (DESIGN.md §3), to a from-scratch walk of
/// the same depth.

#ifndef DHTJOIN_DHT_FORWARD_H_
#define DHTJOIN_DHT_FORWARD_H_

#include <vector>

#include "dht/params.h"
#include "dht/propagate.h"
#include "graph/graph.h"

namespace dhtjoin {

/// Snapshot of one in-flight forward walk. O(support) memory.
struct ForwardWalkerState {
  ExtNodeId source;  ///< external id; invalid when the state is empty
  ExtNodeId target;
  int level = 0;
  double score = 0.0;
  double lambda_pow = 1.0;
  PropagatorState engine;
  std::vector<double> hit_probs;

  std::size_t ApproxBytes() const {
    return sizeof(*this) + engine.ApproxBytes() +
           hit_probs.capacity() * sizeof(double);
  }
};

/// Resumable forward walker for a single (source, target) pair.
///
/// Reset() sets the pair, Advance() pushes the walk further; Score()
/// reads h_l(u, v) at the current depth l. The workspace is reused
/// across Reset() calls, so one walker instance can serve many pairs
/// without reallocating.
///
/// All node ids crossing this interface (sources, targets,
/// ForwardWalkerState ids) are EXTERNAL ids; the walker translates to
/// the graph's physical layout internally (graph/reorder.h).
class ForwardWalker {
 public:
  explicit ForwardWalker(const Graph& g,
                         PropagationMode mode = PropagationMode::kAdaptive,
                         bool restrict_dense = true);

  /// Starts a new walk from `u` absorbed at `v`. `u != v` required.
  void Reset(const DhtParams& params, ExtNodeId u, ExtNodeId v);

  /// Advances the walk by `steps` more steps.
  void Advance(int steps);

  /// Snapshots the current walk into `out`; the walker is unchanged.
  void Save(ForwardWalkerState* out) const;

  /// Replaces the current walk with `state` (saved with the same params;
  /// the caller is responsible for passing matching params).
  void Restore(const DhtParams& params, const ForwardWalkerState& state);

  /// Current depth l (number of steps taken since Reset).
  int level() const { return level_; }

  /// h_l(u, v) at the current depth.
  double Score() const { return score_; }

  /// First-hit probability P_i(u, v) for i in [1, level()].
  double HitProbability(int i) const;

  /// Convenience: full truncated score h_d(u, v) in one call.
  double Compute(const DhtParams& params, int d, ExtNodeId u, ExtNodeId v);

  /// Edges relaxed by this walker since construction (across Resets).
  int64_t edges_relaxed() const { return engine_.edges_relaxed(); }

 private:
  const Graph& g_;
  Propagator engine_;
  DhtParams params_;
  ExtNodeId source_;
  ExtNodeId target_;
  IntNodeId target_internal_;  // layout id, for absorption
  int level_ = 0;
  double score_ = 0.0;
  double lambda_pow_ = 1.0;        // lambda^level
  std::vector<double> hit_probs_;  // P_i for i = 1..level
};

}  // namespace dhtjoin

#endif  // DHTJOIN_DHT_FORWARD_H_
