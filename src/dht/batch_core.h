/// \file dht/batch_core.h
/// \brief Shared machinery of the batched walk engines, templated on
/// direction policy and lane width.
///
/// BackwardWalkerBatch and ForwardWalkerBatch used to carry near-
/// verbatim copies of the same four pieces: the per-block lane
/// workspace with its zero-invariant pooling, the frontier-adaptive
/// blocked transition step, the by-(plan, level) block grouping that
/// turns a mixed-progress target set into uniform-level lane blocks,
/// and the write-back-under-budget slot commit. This header keeps ONE
/// copy of each, parameterized by:
///
///  * a DIRECTION POLICY (BackwardStepPolicy / ForwardStepPolicy) that
///    supplies the frontier degree, the push rows, and — the one
///    genuinely different piece — the dense kernel: the backward step
///    falls back to a sequential gather over the sweep plan's out-rows
///    (streaming the SoA (to[], prob[]) arrays, Graph::OutTargets),
///    while the forward "dense" step is the same frontier push with
///    dense billing, because a forward push already visits exactly the
///    nonzero rows in canonical order (the scalar Propagator's forward
///    dense step is a gather over in-rows instead);
///  * a LANE WIDTH W — 8 by default (one cache line of doubles), with
///    W = 4 as the narrow-lane option for memory-tight graphs: half
///    the workspace bytes per block and twice the blocks in flight,
///    bit-identical results (lanes are independent columns; see the
///    parity tests).
///
/// The fused multi-target scheduler built on top (AdvanceMany in each
/// engine) collects every live (plan, lane-block, level-group) of a
/// deepening round into one flat block list and dispatches a SINGLE
/// ParallelFor per round — instead of one fork/join barrier per target
/// per level, which is what a large |Q| with a shrunken live set
/// degenerates into under the per-target entry points (now thin
/// wrappers). Block enumeration order and per-block lane grouping are
/// exactly those of the per-target loop, so results — scores, support
/// orders, tie-breaks — are byte-identical by construction (DESIGN.md
/// §8; gated in bench_scheduler and the parity tests).

// dhtlint: allow-file(raw-id-param): below the remap boundary — every
// id in the batch kernels is internal-space by construction
// (graph/node_id.h layering note); the typed boundary is the batch
// engines' public Run/Advance surfaces.

#ifndef DHTJOIN_DHT_BATCH_CORE_H_
#define DHTJOIN_DHT_BATCH_CORE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "dht/propagate.h"
#include "dht/walker_state.h"
#include "graph/graph.h"

namespace dhtjoin {
namespace batch_core {

/// Workspace for one in-flight lane block. All arrays obey the
/// propagate.h zero-invariant (exactly 0.0 / false outside the support
/// lists), so a workspace popped from the free pool is clean without
/// any O(n) reset.
template <int W>
struct BlockWorkspace {
  explicit BlockWorkspace(NodeId n)
      : mass(static_cast<std::size_t>(n) * W, 0.0),
        next(static_cast<std::size_t>(n) * W, 0.0),
        in_next(static_cast<std::size_t>(n), 0) {}

  std::vector<double> mass, next;   // n x W row-major lane matrices
  std::vector<uint8_t> in_next;     // first-touch flags for `next`
  std::vector<NodeId> support, next_support;
  SweepPlan plan;                   // dense plan of the current block
  bool support_canonical = true;    // deferred sort; see StepLanes
  int64_t edges_relaxed = 0;        // per-lane, accumulated per run

  std::size_t ApproxBytes() const {
    return sizeof(*this) + (mass.capacity() + next.capacity()) *
                               sizeof(double) +
           in_next.capacity() +
           (support.capacity() + next_support.capacity()) * sizeof(NodeId);
  }

  /// Zeroes the mass rows of the current support and clears it, leaving
  /// the workspace reusable without an O(n) sweep.
  void RestoreZeroInvariant() {
    for (NodeId v : support) {
      double* row = &mass[static_cast<std::size_t>(v) * W];
      std::fill(row, row + W, 0.0);
    }
    support.clear();
    support_canonical = true;
  }
};

/// Pool of idle block workspaces, capped by bytes BETWEEN runs (a
/// workspace over the cap is freed instead of pinning W * 16 bytes/node
/// until the engine dies; trimming only at run boundaries keeps
/// intra-run recycling intact even when one workspace exceeds the cap).
/// Also the collection point for per-block edges_relaxed.
template <int W>
class WorkspacePool {
 public:
  WorkspacePool(NodeId num_nodes, std::size_t max_pooled_bytes)
      : num_nodes_(num_nodes), max_pooled_bytes_(max_pooled_bytes) {}

  std::unique_ptr<BlockWorkspace<W>> Acquire() {
    std::lock_guard<std::mutex> lock(mu_);
    if (free_.empty()) {
      return std::make_unique<BlockWorkspace<W>>(num_nodes_);
    }
    auto state = std::move(free_.back());
    free_.pop_back();
    pooled_bytes_ -= state->ApproxBytes();
    return state;
  }

  void Release(std::unique_ptr<BlockWorkspace<W>> state) {
    std::lock_guard<std::mutex> lock(mu_);
    edges_relaxed_ += state->edges_relaxed;
    state->edges_relaxed = 0;
    pooled_bytes_ += state->ApproxBytes();
    free_.push_back(std::move(state));
  }

  /// Frees pooled workspaces over the byte cap; call at run boundaries.
  void Trim() {
    std::lock_guard<std::mutex> lock(mu_);
    while (!free_.empty() && pooled_bytes_ > max_pooled_bytes_) {
      pooled_bytes_ -= free_.back()->ApproxBytes();
      free_.pop_back();
      ++discarded_;
    }
  }

  int64_t edges_relaxed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return edges_relaxed_;
  }
  std::size_t pooled_workspaces() const {
    std::lock_guard<std::mutex> lock(mu_);
    return free_.size();
  }
  std::size_t pooled_workspace_bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pooled_bytes_;
  }
  int64_t workspaces_discarded() const {
    std::lock_guard<std::mutex> lock(mu_);
    return discarded_;
  }

 private:
  const NodeId num_nodes_;
  const std::size_t max_pooled_bytes_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<BlockWorkspace<W>>> free_;
  std::size_t pooled_bytes_ = 0;
  int64_t discarded_ = 0;
  int64_t edges_relaxed_ = 0;
};

/// Byte-budgeted slot-state accounting shared by BackwardBatchStates
/// and ForwardBatchStates: hit/miss/eviction counters, the race-safe
/// write-back-under-budget commit, and the feedback half of the budget
/// autotuner (the graph-size half is AutotuneStateBudgetBytes). The
/// concrete slot containers (dense vector vs sparse hash map) and Slot
/// payloads (a score row vs a single pair score) stay in the derived
/// classes.
class BatchStateBudget {
 public:
  explicit BatchStateBudget(std::size_t max_bytes) : max_bytes_(max_bytes) {}

  std::size_t bytes() const {
    return bytes_.load(std::memory_order_relaxed);
  }
  std::size_t max_bytes() const { return max_bytes_; }

  /// Observability (TwoWayJoinStats::state_*): walks resumed from a
  /// saved slot / started from scratch, and snapshots the byte budget
  /// forced out at write-back.
  int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  int64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  int64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

  /// Feedback autotuning, mirroring WalkerStatePool::Retune: folds the
  /// hit/miss/eviction deltas observed since the previous Retune back
  /// into the budget — double on thrash (evictions with hits losing to
  /// misses), halve on idle (no evictions, resident under a quarter of
  /// the budget), clamped to [lo, hi] and never below the resident
  /// bytes. Evicted snapshots restart bit-identically, so retuning
  /// NEVER changes a result — only step counts. Call between advances
  /// (not concurrently with a running ParallelFor), and only when the
  /// budget came from the autotuner; explicit budgets are the caller's
  /// contract. Returns the (possibly unchanged) budget.
  std::size_t Retune(std::size_t lo = kAutotuneMinBudgetBytes,
                     std::size_t hi = kAutotuneMaxBudgetBytes) {
    const int64_t hits = this->hits();
    const int64_t misses = this->misses();
    const int64_t evictions = this->evictions();
    const int64_t d_hits = hits - retune_hits_;
    const int64_t d_misses = misses - retune_misses_;
    const int64_t d_evictions = evictions - retune_evictions_;
    retune_hits_ = hits;
    retune_misses_ = misses;
    retune_evictions_ = evictions;
    if (d_evictions > 0 && d_hits < d_misses) {
      max_bytes_ = std::min(std::max(max_bytes_, std::size_t{1}) * 2, hi);
      ++grows_;
    } else if (d_evictions == 0 && bytes() * 4 <= max_bytes_ &&
               max_bytes_ > lo) {
      max_bytes_ = std::max({max_bytes_ / 2, lo, bytes()});
      ++shrinks_;
    }
    return max_bytes_;
  }

  /// Retune() decisions taken so far (observability/tests).
  int64_t budget_grows() const { return grows_; }
  int64_t budget_shrinks() const { return shrinks_; }

  /// Fault-injection hook (util/fault_injection.h): when set and
  /// returning true, the next TryCommit reports a simulated pool
  /// allocation failure — counted as an eviction plus an injected
  /// fault, before any byte accounting. Harmless to correctness by the
  /// same argument as real evictions: the slot keeps its previous
  /// snapshot and the walk restarts bit-identically. Install between
  /// advances, never while a ParallelFor is running.
  void set_commit_fault(std::function<bool()> hook) {
    commit_fault_ = std::move(hook);
  }
  int64_t injected_commit_faults() const {
    return injected_commit_faults_.load(std::memory_order_relaxed);
  }

 protected:
  /// Replaces `slot` with `cand` if the swap fits the budget; otherwise
  /// drops `cand` and counts an eviction, leaving the slot's previous
  /// (lower-level) snapshot in place so the next advance still resumes
  /// from there instead of degrading to a full restart. `cand.bytes`
  /// must already hold cand.ApproxBytes(). Safe under concurrent
  /// commits from ParallelFor workers (the budget test is a reserve-
  /// then-check on the atomic byte counter).
  template <typename Slot>
  bool TryCommit(Slot& slot, Slot&& cand) {
    if (commit_fault_ && commit_fault_()) {
      injected_commit_faults_.fetch_add(1, std::memory_order_relaxed);
      evictions_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    const std::size_t prev =
        bytes_.fetch_add(cand.bytes, std::memory_order_relaxed);
    if (prev + cand.bytes - slot.bytes <= max_bytes_) {
      bytes_.fetch_sub(slot.bytes, std::memory_order_relaxed);
      slot = std::move(cand);
      return true;
    }
    bytes_.fetch_sub(cand.bytes, std::memory_order_relaxed);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  std::size_t max_bytes_;
  std::function<bool()> commit_fault_;
  std::atomic<int64_t> injected_commit_faults_{0};
  std::atomic<std::size_t> bytes_{0};
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> evictions_{0};
  int64_t retune_hits_ = 0;
  int64_t retune_misses_ = 0;
  int64_t retune_evictions_ = 0;
  int64_t grows_ = 0;
  int64_t shrinks_ = 0;
};

// ------------------------------------------------- direction policies

/// Backward direction: mass flows AGAINST edges. The sparse step pushes
/// the union frontier over transposed in-rows; the dense step is a
/// sequential gather over the sweep plan's out-rows.
struct BackwardStepPolicy {
  static constexpr bool kDenseIsGather = true;
  static int64_t FrontierDegree(const Graph& g, NodeId v) {
    return g.InDegree(IntNodeId(v));
  }
  static std::span<const InEdge> PushEdges(const Graph& g, NodeId v) {
    return g.InEdges(IntNodeId(v));
  }
  static NodeId EdgeDest(const InEdge& e) { return e.from; }
};

/// Forward direction: mass flows ALONG edges. Sparse and dense are the
/// same push over out-rows; "dense" only changes the billing (the push
/// already visits exactly the nonzero rows in canonical order — the
/// dense sweep's order).
struct ForwardStepPolicy {
  static constexpr bool kDenseIsGather = false;
  static int64_t FrontierDegree(const Graph& g, NodeId v) {
    return g.OutDegree(IntNodeId(v));
  }
  static std::span<const OutEdge> PushEdges(const Graph& g, NodeId v) {
    return g.OutEdges(IntNodeId(v));
  }
  static NodeId EdgeDest(const OutEdge& e) { return e.to; }
};

/// One blocked transition step shared by every batched path: advances
/// all lanes of `st` one level, choosing sparse push or dense kernel by
/// the shared adaptive policy (against the block's restricted dense
/// cost), and leaves the new support in st.support with st.mass holding
/// the new masses. The sorted-support contract is deferred exactly as
/// in the scalar engine: only a step that CONSUMES the support order (a
/// push) sorts first; the backward dense gather never does.
/// `soa_gather` streams the split (to[], prob[]) arrays in the gather
/// instead of the AoS OutEdge stream — identical per-row summation
/// order, bit-identical results (benchmark A/B switch).
template <class Policy, int W>
void StepLanes(const Graph& g, PropagationMode mode, bool soa_gather,
               BlockWorkspace<W>& st, int width) {
  bool dense = mode == PropagationMode::kDense;
  if (mode == PropagationMode::kAdaptive) {
    if (SupportSizeForcesDense(st.support.size(), st.plan.cost)) {
      dense = true;
    } else {
      // The degree sum counts every support row (reading all W lanes
      // per node just to exclude the rare all-dead ones would cost
      // more than it saves); dead rows are dropped by the next sparse
      // push, so the estimate only transiently overshoots.
      int64_t frontier_edges = 0;
      for (NodeId v : st.support) {
        frontier_edges += Policy::FrontierDegree(g, v);
      }
      dense = FrontierPrefersDense(st.support.size(), frontier_edges,
                                   st.plan.cost);
    }
  }

  const bool push = !Policy::kDenseIsGather || !dense;
  if (push) {
    // Sparse: push the block's union frontier over the policy's rows.
    // The push CONSUMES the support order (destinations accumulate in
    // frontier order), so bring it into canonical order first — the
    // dense gather's summation order in every layout (the deferred
    // half of the sorted-support contract).
    if (!st.support_canonical) {
      g.SortCanonical(st.support);
      st.support_canonical = true;
    }
    int64_t relaxed = 0;
    for (NodeId v : st.support) {
      double* row = &st.mass[static_cast<std::size_t>(v) * W];
      // Rows with no live lane (absorbed walks, decayed mass) carry
      // nothing; skipping them also drops the node from the support so
      // dead regions stop inflating the frontier and edges_relaxed.
      int live_lanes = 0;
      for (int b = 0; b < W; ++b) live_lanes += row[b] != 0.0 ? 1 : 0;
      if (live_lanes == 0) continue;
      // Bill each lane only for its own frontier: lane b's sequential
      // walker would relax deg(v) edges iff it has mass at v.
      relaxed += Policy::FrontierDegree(g, v) * live_lanes;
      for (const auto& e : Policy::PushEdges(g, v)) {
        const NodeId u = Policy::EdgeDest(e);
        double* dst = &st.next[static_cast<std::size_t>(u) * W];
        uint8_t& flag = st.in_next[static_cast<std::size_t>(u)];
        if (!flag) {
          flag = 1;
          st.next_support.push_back(u);
        }
        for (int b = 0; b < W; ++b) dst[b] += e.prob * row[b];
      }
      std::fill(row, row + W, 0.0);
    }
    st.edges_relaxed +=
        (dense && !Policy::kDenseIsGather) ? st.plan.edges * width : relaxed;
  } else {
    // Dense backward: sequential gather over the block plan's out-rows,
    // streaming the SoA (to, prob) arrays. Rows outside the plan (other
    // weak components) cannot see the support, so skipping them is
    // exact — the restricted sweep (DESIGN.md §7).
    st.plan.ForEachRow(g.num_nodes(), [&](NodeId u) {
      double acc[W] = {0.0};
      if (soa_gather) {
        std::span<const NodeId> to = g.OutTargets(IntNodeId(u));
        std::span<const double> prob = g.OutProbs(IntNodeId(u));
        for (std::size_t e = 0; e < to.size(); ++e) {
          const double* src = &st.mass[static_cast<std::size_t>(to[e]) * W];
          for (int b = 0; b < W; ++b) acc[b] += prob[e] * src[b];
        }
      } else {
        for (const OutEdge& e : g.OutEdges(IntNodeId(u))) {
          const double* src = &st.mass[static_cast<std::size_t>(e.to) * W];
          for (int b = 0; b < W; ++b) acc[b] += e.prob * src[b];
        }
      }
      if (std::any_of(acc, acc + W, [](double x) { return x != 0.0; })) {
        double* dst = &st.next[static_cast<std::size_t>(u) * W];
        for (int b = 0; b < W; ++b) dst[b] = acc[b];
        st.next_support.push_back(u);
      }
    });
    for (NodeId v : st.support) {
      double* row = &st.mass[static_cast<std::size_t>(v) * W];
      std::fill(row, row + W, 0.0);
    }
    st.edges_relaxed += st.plan.edges * width;
  }
  for (NodeId u : st.next_support) {
    st.in_next[static_cast<std::size_t>(u)] = 0;
  }
  // Sorted-support contract (propagate.h), deferred: a push leaves the
  // new support in emission order; the backward dense gather emits rows
  // ascending by internal id — already canonical exactly on an
  // insertion-ordered layout with a gap-free plan.
  st.support_canonical = Policy::kDenseIsGather && dense &&
                         !g.is_reordered() && st.plan.full;
  st.mass.swap(st.next);
  st.support.swap(st.next_support);
  st.next_support.clear();
}

/// Loads one uniform-level block's lane masses into the workspace:
/// fresh lanes (from_level == 0) get unit mass at their seed node
/// (the target for backward walks, the source for forward walks);
/// resumed lanes replay the sparse snapshot `saved_mass(b)` returns.
/// Leaves the union support deduplicated (the in_next first-touch
/// flags) in lane-load order and marked non-canonical: restoring
/// consumes no order, so the sort is deferred to the block's first
/// step, which pays it only if that step is a push (StepLanes).
template <int W, typename SavedMass>
void LoadLaneMass(BlockWorkspace<W>& st, int from_level, const NodeId* seeds,
                  int width, SavedMass&& saved_mass) {
  for (int b = 0; b < width; ++b) {
    if (from_level == 0) {
      const NodeId u = seeds[b];
      double& slot = st.mass[static_cast<std::size_t>(u) * W +
                             static_cast<std::size_t>(b)];
      if (slot == 0.0 && st.in_next[static_cast<std::size_t>(u)] == 0) {
        st.in_next[static_cast<std::size_t>(u)] = 1;
        st.support.push_back(u);
      }
      slot = 1.0;
    } else {
      for (const auto& [v, m] : saved_mass(b)) {
        double& slot = st.mass[static_cast<std::size_t>(v) * W +
                               static_cast<std::size_t>(b)];
        if (slot == 0.0 && st.in_next[static_cast<std::size_t>(v)] == 0) {
          st.in_next[static_cast<std::size_t>(v)] = 1;
          st.support.push_back(v);
        }
        slot = m;
      }
    }
  }
  for (NodeId v : st.support) st.in_next[static_cast<std::size_t>(v)] = 0;
  st.support_canonical = false;
}

/// Extracts lane b's nonzero masses into a snapshot's sparse mass
/// list, in support order: a push's emission order, or a gather's row
/// order (LoadLaneMass does not rely on either).
template <int W>
void CollectLaneMass(const BlockWorkspace<W>& st, int b,
                     std::vector<std::pair<NodeId, double>>& out) {
  for (NodeId v : st.support) {
    double m = st.mass[static_cast<std::size_t>(v) * W +
                       static_cast<std::size_t>(b)];
    if (m != 0.0) out.emplace_back(v, m);
  }
}

// ------------------------------------------- fused block enumeration

/// One uniform-level lane block of the fused scheduler: `width` lanes
/// drawn from plan `plan`'s index list, starting at `first` within the
/// flat `order` array.
struct LevelBlock {
  int from_level = 0;
  std::size_t plan = 0;    // index of the owning advance plan
  std::size_t first = 0;   // offset into BlockList::order
  int width = 0;
};

/// Flat block list for one fused round: every (plan, level-group,
/// lane-block) across all plans, dispatched in ONE ParallelFor.
struct BlockList {
  std::vector<std::size_t> order;  // per-plan indices grouped by level
  std::vector<LevelBlock> blocks;

  std::span<const std::size_t> Lanes(const LevelBlock& blk) const {
    return {order.data() + blk.first, static_cast<std::size_t>(blk.width)};
  }
};

/// Appends plan `plan_index`'s still-advancing items to `out`, grouped
/// by saved level (ascending) and chunked into W-wide blocks. The
/// grouping — level-major, original index order within a level, blocks
/// cut at W boundaries — is EXACTLY the per-target entry points'
/// enumeration, which is what makes the fused scheduler byte-identical
/// to the per-target loop (DESIGN.md §8): each block's union support,
/// and therefore every lane's summation order, is the same either way.
/// `level_of(i)` returns the saved level of item i (< to_level items
/// only; callers pre-filter).
template <typename LevelOf>
void AppendLevelBlocks(std::size_t plan_index, std::size_t num_items,
                       int to_level, int lane_width, LevelOf&& level_of,
                       BlockList& out) {
  std::map<int, std::vector<std::size_t>> by_level;
  for (std::size_t i = 0; i < num_items; ++i) {
    const int level = level_of(i);
    if (level < to_level) by_level[level].push_back(i);
  }
  for (auto& [level, idxs] : by_level) {
    for (std::size_t base = 0; base < idxs.size();
         base += static_cast<std::size_t>(lane_width)) {
      const std::size_t count = std::min<std::size_t>(
          static_cast<std::size_t>(lane_width), idxs.size() - base);
      out.blocks.push_back(LevelBlock{level, plan_index, out.order.size(),
                                      static_cast<int>(count)});
      out.order.insert(out.order.end(),
                       idxs.begin() + static_cast<std::ptrdiff_t>(base),
                       idxs.begin() + static_cast<std::ptrdiff_t>(base + count));
    }
  }
}

}  // namespace batch_core
}  // namespace dhtjoin

#endif  // DHTJOIN_DHT_BATCH_CORE_H_
