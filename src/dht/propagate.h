/// \file dht/propagate.h
/// \brief Frontier-adaptive probability-mass propagation engine.
///
/// Every DHT primitive in the repo — the forward walker (Sec V-B), the
/// backward walker (Eq. 5), and the batched evaluators — bottoms
/// out in the same operation: one step of the random-walk transition,
///   next = M^T cur   (forward: push mass ALONG edges)
///   next = M   cur   (backward: push mass AGAINST edges)
/// where M is the row-stochastic transition matrix with entries p_uv.
///
/// The seed implementation evaluated this densely, O(n + m) per step
/// even when mass occupies a handful of nodes around the seed. This
/// engine tracks the *support* (nodes with nonzero mass) explicitly and
/// chooses per step, direction-optimizing style:
///
///  * SPARSE step: push mass only from support nodes, over their
///    out-rows (forward) or transposed in-rows (backward, which is why
///    Graph carries in-edge transition probabilities). Cost is
///    proportional to the frontier's degree sum — output-sensitive.
///  * DENSE step: the full sweep, a sequential gather in both
///    directions (backward: row u sums over its out-row; forward: row
///    w sums over its in-row) — but RESTRICTED to the weak components
///    of the walk's seeds (Graph::PlanDenseSweep): mass can never leave
///    them, so rows outside contribute exactly 0.0 and are skipped
///    without changing a single bit. A saturated-but-local walk
///    therefore pays O(|ball|) per dense step, not O(n + m); on a
///    connected graph the plan covers everything and the sweep is the
///    classic one. A gather writes each destination once, in row
///    order, where a push scatters random writes.
///
/// The adaptive policy compares the frontier degree sum against the
/// RESTRICTED dense cost with a constant penalty for the sparse step's
/// random writes, so worst-case cost never regresses beyond a constant
/// factor of the dense engine while small frontiers — the common case
/// for few-step truncated DHT on sparse graphs — cost almost nothing.
///
/// Numerical contract (DESIGN.md §3, §7): the support list is brought
/// into CANONICAL (external) node-id order before any step that
/// consumes its order (a sparse push), and CSR rows — out-rows and
/// in-rows alike — are stored in canonical order of the other
/// endpoint, so a sparse push visits sources in exactly the order the
/// dense gather's rows accumulate them — in EVERY physical layout.
/// Floating-point summation order is therefore identical across modes,
/// across restricted and full sweeps, and across graph reorderings
/// (graph/reorder.h): all of them produce bit-identical mass vectors.
/// This determinism is load-bearing: it is what lets a resumed walk
/// (SaveState/RestoreState, or the batched engines' per-target states)
/// produce byte-identical scores to a from-scratch walk, lets state
/// pools drop entries under memory pressure and restart without
/// changing any result, and makes a reordered graph a pure physical
/// optimization.

#ifndef DHTJOIN_DHT_PROPAGATE_H_
#define DHTJOIN_DHT_PROPAGATE_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace dhtjoin {

/// How a propagation engine executes each step.
enum class PropagationMode {
  kDense,     ///< always the full O(n + m) sweep (the seed engine)
  kSparse,    ///< always frontier pushes (can regress on dense frontiers)
  kAdaptive,  ///< per-step choice by frontier degree sum (the default)
};

/// Cost multiplier charged to a sparse step when the adaptive policy
/// compares it against a dense sweep: sparse pushes write to random
/// destinations while the dense gather streams sequentially, so a sparse
/// step is only chosen when its edge count is below dense/kSparsePenalty.
inline constexpr int64_t kSparsePenalty = 4;

/// The adaptive policy, shared by Propagator and the batch engines so
/// all of them flip modes at the same threshold. `dense_cost` is the
/// walk's restricted dense-sweep cost (SweepPlan::cost — covered edges
/// plus covered rows; n + m when the restriction is off or the graph is
/// connected).
///
/// SupportSizeForcesDense is the cheap early-out: once the support alone
/// crosses the threshold, the degree sum can only confirm it and the
/// per-node degree scan would cost real time every step of a saturated
/// walk. FrontierPrefersDense is the full comparison once the caller has
/// summed its frontier degrees.
inline bool SupportSizeForcesDense(std::size_t support_size,
                                   int64_t dense_cost) {
  return static_cast<int64_t>(support_size) * kSparsePenalty >= dense_cost;
}
inline bool FrontierPrefersDense(std::size_t support_size,
                                 int64_t frontier_edges,
                                 int64_t dense_cost) {
  return (frontier_edges + static_cast<int64_t>(support_size)) *
             kSparsePenalty >=
         dense_cost;
}

/// Sparse snapshot of a Propagator's in-flight mass: (node, mass) pairs
/// in support order. Entries with zero mass are preserved so a restored
/// engine has the exact support list (and thus the exact sparse/dense
/// policy decisions and edge billing) of the saved one. Node ids are
/// INTERNAL (layout) ids — a state is only meaningful on the graph (and
/// layout) it was saved from; the serving cache keys enforce that via
/// the layout-aware GraphFingerprint.
struct PropagatorState {
  std::vector<std::pair<NodeId, double>> mass;

  std::size_t ApproxBytes() const {
    return sizeof(*this) + mass.capacity() * sizeof(mass[0]);
  }
};

/// One unit of probability mass propagated through the graph, stepwise,
/// in either edge direction. Absorption (first-hit semantics) is the
/// caller's business: read Mass() at the absorbing node after a Step()
/// and ClearMass() it before the next.
///
/// This is the LOW-LEVEL engine: every node id crossing its interface
/// is an INTERNAL (layout) id. The scalar walkers and batch engines
/// translate external ids before reaching it.
class Propagator {
 public:
  enum class Direction {
    kForward,   ///< next[w] = sum_u p_uw * cur[u]
    kBackward,  ///< next[u] = sum_v p_uv * cur[v]
  };

  /// `restrict_dense` = false disables the reachability restriction
  /// (dense steps sweep all n rows and bill all m edges, as the seed
  /// engine did) — the benchmark baseline; results are bit-identical
  /// either way. `soa_gather` streams the split (to[], prob[]) arrays
  /// (Graph::OutTargets/OutProbs, 12 bytes/edge) in the dense backward
  /// gather instead of the 16-byte AoS OutEdge stream — the scalar
  /// gather does one madd per edge and is stream-bound, so the cut is
  /// a measured win (bench_reorder gates it); bit-identical either
  /// way.
  Propagator(const Graph& g, Direction dir,
             PropagationMode mode = PropagationMode::kAdaptive,
             bool restrict_dense = true, bool soa_gather = true);

  /// Drops all mass and places 1.0 at `seed`. O(|support|), not O(n).
  void Reset(IntNodeId seed);

  /// Drops all mass and places 1.0 at every seed (the YBoundTable sweep
  /// starts from all of P at once). Seeds are deduplicated; a duplicate
  /// seed still carries mass 1.0, not 2.0. Callers holding the raw
  /// output of Graph::MapToInternal view it via AsIntIds (zero copy).
  void Reset(std::span<const IntNodeId> seeds);

  /// Advances one transition step.
  void Step();

  /// Current mass at `u`; exact 0.0 for nodes outside the support.
  double Mass(IntNodeId u) const {
    return mass_[static_cast<std::size_t>(u.value())];
  }

  /// Zeroes the mass at `u` (absorption). The node may linger in the
  /// support list with zero mass; iteration skips it.
  void ClearMass(IntNodeId u) {
    mass_[static_cast<std::size_t>(u.value())] = 0.0;
  }

  /// Invokes fn(node, mass) for every node with nonzero mass; `node` is
  /// a RAW internal id (callers index internal-space arrays with it on
  /// every invocation). The iteration order is deterministic for a
  /// given walk but NOT guaranteed sorted (the canonical support sort
  /// is deferred until a step actually consumes the order); callers
  /// must be order-insensitive, which every per-node accumulation is.
  template <typename Fn>
  void ForEachMass(Fn&& fn) const {
    for (NodeId u : support_) {
      double m = mass_[static_cast<std::size_t>(u)];
      if (m != 0.0) fn(u, m);
    }
  }

  /// Copies the current mass state into `out` (support order, zero-mass
  /// entries included — see PropagatorState). The engine is unchanged.
  void SaveState(PropagatorState* out) const;

  /// Replaces the current mass state with `state`. A restored engine is
  /// indistinguishable from the one SaveState ran on: subsequent Step()
  /// calls produce bit-identical mass vectors.
  void RestoreState(const PropagatorState& state);

  /// Nodes currently carrying mass (upper bound: entries may be 0.0).
  std::size_t support_size() const { return support_.size(); }

  /// Total edges relaxed (multiply-adds into next) since construction;
  /// a dense sweep charges its PLAN's edges (all m when unrestricted).
  /// This is the engine's work measure, surfaced as
  /// TwoWayJoinStats::walk_steps.
  int64_t edges_relaxed() const { return edges_relaxed_; }

  /// True when the most recent Step() ran the dense sweep.
  bool last_step_dense() const { return last_step_dense_; }

  /// The dense-sweep plan of the current walk (for tests/benches).
  const SweepPlan& plan() const { return plan_; }

 private:
  bool ChooseDense() const;
  void RebuildPlan(std::span<const NodeId> seeds);
  /// Canonically sorts the support if a prior step left it unsorted.
  /// Only the steps that CONSUME the support order (the sparse pushes)
  /// pay this; the dense gathers never do, so a saturated dense walk
  /// skips the per-step sort entirely — the deferral is what keeps
  /// reordered layouts from paying an O(s log s) indirect sort per
  /// dense step.
  void EnsureCanonicalSupport() {
    if (!support_canonical_) {
      g_.SortCanonical(support_);
      support_canonical_ = true;
    }
  }
  /// The sparse step: pushes each support node's mass over rows(u) —
  /// out-rows forward, transposed in-rows backward — in support order.
  template <typename Rows>
  void PushSupport(Rows rows);
  /// The dense step: next[u] = row_sum(u) for every row u of the plan,
  /// where row_sum gathers over u's row in storage (canonical) order.
  template <typename RowSum>
  void GatherPlanRows(RowSum row_sum);

  const Graph& g_;
  Direction dir_;
  PropagationMode mode_;
  bool restrict_dense_;
  bool soa_gather_;
  // Invariant: mass_ and next_ are exactly 0.0 outside their support
  // lists, at all times. Steps clean up after themselves (sparse clear),
  // so Reset never pays O(n). support_ is brought into canonical order
  // before any step that consumes its order (the determinism contract
  // in the file comment; see EnsureCanonicalSupport).
  std::vector<double> mass_, next_;
  std::vector<NodeId> support_, next_support_;
  SweepPlan plan_;
  int64_t edges_relaxed_ = 0;
  bool last_step_dense_ = false;
  bool support_canonical_ = true;  // see EnsureCanonicalSupport
};

}  // namespace dhtjoin

#endif  // DHTJOIN_DHT_PROPAGATE_H_
