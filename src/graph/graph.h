/// \file graph/graph.h
/// \brief Immutable directed weighted graph in CSR form.
///
/// This is the data model of the paper (Sec III-A): a directed, weighted
/// graph G = (V_G, E_G) where w_uv is the weight of edge (u, v) and the
/// random-walk transition probability is
///   p_uv = w_uv / sum_{v' in O_u} w_uv' .
/// The graph stores out-adjacency (targets + weights + precomputed
/// transition probabilities) and a transposed in-adjacency (sources +
/// the SAME transition probabilities, p_uv on the row of v) in
/// compressed sparse row layout. The transposed rows let a backward
/// propagation step push mass from a sparse frontier — next[u] +=
/// p_uv * mass[v] over only the in-edges of frontier nodes v — instead
/// of gathering over every node's out-row (see dht/propagate.h).
///
/// PHYSICAL LAYOUT vs EXTERNAL IDS (DESIGN.md §7). A Graph may carry a
/// cache-conscious node permutation (graph/reorder.h): the CSR then
/// stores nodes in a degree- or RCM-ordered layout, and the graph keeps
/// old<->new remap tables. Two id spaces follow:
///  * INTERNAL ids index the CSR arrays (and every engine's mass
///    vectors). All id-taking accessors on this class — OutEdges,
///    InEdges, degrees, HasEdge — speak internal ids.
///  * EXTERNAL ids are the construction-time ids: what datasets,
///    query node sets, TopK results, and cache keys mean by a "node".
/// The walkers and batch engines translate external -> internal at
/// their public boundaries (and back for anything they emit), so every
/// layer above them is layout-oblivious. On a never-reordered graph the
/// two spaces coincide and every translation is the identity.
///
/// Determinism across layouts: edge rows are stored sorted by the
/// CANONICAL (external) id of the other endpoint, and the propagation
/// engines keep their support lists sorted by canonical id
/// (SortCanonical). Floating-point accumulation order is therefore THE
/// SAME in every layout, which makes scores on a reordered graph
/// bit-identical to the insertion-ordered one — reordering is purely a
/// physical optimization (DESIGN.md §7).
///
/// Construct via GraphBuilder (graph/graph_builder.h), the dataset
/// generators (datasets/), or ReorderGraph (graph/reorder.h).

#ifndef DHTJOIN_GRAPH_GRAPH_H_
#define DHTJOIN_GRAPH_GRAPH_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "graph/node_id.h"
#include "util/check.h"
#include "util/status.h"

namespace dhtjoin {

/// One outgoing arc: target node and transition probability. Kept lean
/// (16 bytes, like InEdge) because this array IS the inner loop of
/// every walk: the dense backward gather and all forward pushes stream
/// it end to end, and they only ever read (to, prob). Raw edge weights
/// — consumed by nothing hotter than EdgeWeight lookups, IO, and the
/// generators — live in a parallel cold array (Graph::OutWeights), so
/// shrinking this struct cut the hot edge stream by a third at
/// unchanged total memory.
struct OutEdge {
  NodeId to;
  double prob;  ///< p_uv = weight / total out-weight of the source
};

/// One incoming arc of node v: the source u and p_uv — the transition
/// probability of the underlying (u, v) edge. Kept lean (16 bytes) so
/// backward frontier pushes and the forward dense gather stream the
/// minimum number of cache lines.
struct InEdge {
  NodeId from;
  double prob;  ///< p_uv of the edge (from, v)
};

/// Reverse-reachability row lists at weak-component granularity: every
/// walk's mass is confined to the weak components of its seeds, so a
/// dense sweep never needs to touch rows outside them. Built lazily and
/// cached on the Graph (thread-safe); internal node ids throughout.
struct ReachIndex {
  std::vector<int32_t> comp_of;       ///< internal node -> component id
  std::vector<int64_t> comp_offsets;  ///< comp c -> [c, c+1) into comp_nodes
  std::vector<NodeId> comp_nodes;     ///< grouped by comp, ascending ids
  std::vector<int64_t> comp_edges;    ///< out-edge count per component

  int num_components() const {
    return static_cast<int>(comp_edges.size());
  }
  std::span<const NodeId> Nodes(int comp) const {
    return {comp_nodes.data() + comp_offsets[static_cast<std::size_t>(comp)],
            comp_nodes.data() +
                comp_offsets[static_cast<std::size_t>(comp) + 1]};
  }
};

/// Row set a dense sweep must cover for one walk: either the full graph
/// (`full`, iterate 0..n-1 directly — the fast path) or the union of
/// the walk's seed components as ranges into ReachIndex::comp_nodes.
/// `cost` (covered edges + covered rows) is what the adaptive policy
/// compares a sparse step against — a saturated-but-local walk flips to
/// the (cheap, restricted) dense sweep instead of staying sparse
/// forever against the global O(n + m) estimate.
struct SweepPlan {
  bool full = true;
  int64_t rows = 0;
  int64_t edges = 0;
  int64_t cost = 0;  ///< edges + rows
  std::vector<std::span<const NodeId>> ranges;  ///< empty when `full`

  /// Invokes fn(u) for every covered row, ascending internal id within
  /// each range. Row order never affects values (per-row sums are
  /// independent); support lists are re-sorted canonically afterwards.
  template <typename Fn>
  // dhtlint: allow(raw-id-param): row COUNT, not a node id
  void ForEachRow(NodeId num_nodes, Fn&& fn) const {
    if (full) {
      for (NodeId u = 0; u < num_nodes; ++u) fn(u);
      return;
    }
    for (std::span<const NodeId> range : ranges) {
      for (NodeId u : range) fn(u);
    }
  }
};

/// Immutable CSR graph. Instances are cheap to move, expensive to copy.
class Graph {
 public:
  Graph() = default;

  /// Number of nodes |V_G|.
  NodeId num_nodes() const { return static_cast<NodeId>(out_offsets_.empty()
                                 ? 0
                                 : out_offsets_.size() - 1); }

  /// Number of directed edges |E_G|.
  int64_t num_edges() const { return static_cast<int64_t>(out_edges_.size()); }

  /// Outgoing arcs of internal node `u` (O_u) with transition
  /// probabilities, sorted by canonical target id.
  std::span<const OutEdge> OutEdges(IntNodeId u) const {
    DHTJOIN_DCHECK(ContainsRaw(u.value()));
    return {out_edges_.data() + out_offsets_[u.value()],
            out_edges_.data() + out_offsets_[u.value() + 1]};
  }

  /// Raw weights of `u`'s outgoing arcs, positionally aligned with
  /// OutEdges(u) (the cold half of the out-adjacency; see OutEdge).
  std::span<const double> OutWeights(IntNodeId u) const {
    DHTJOIN_DCHECK(ContainsRaw(u.value()));
    return {out_weights_.data() + out_offsets_[u.value()],
            out_weights_.data() + out_offsets_[u.value() + 1]};
  }

  /// SoA mirror of OutEdges(u): targets only, positionally aligned with
  /// OutProbs(u). The dense backward gather streams the whole out-CSR
  /// end to end and reads nothing but (to, prob); the split arrays cut
  /// its stream from 16 padded bytes/edge to 12 (4 + 8) — see the
  /// ROADMAP item gated in bench_reorder. Sparse pushes keep the AoS
  /// OutEdges stream: their per-row access touches one row at a time,
  /// where a second array would only double the cache-line traffic.
  std::span<const NodeId> OutTargets(IntNodeId u) const {
    DHTJOIN_DCHECK(ContainsRaw(u.value()));
    return {gather_to_.data() + out_offsets_[u.value()],
            gather_to_.data() + out_offsets_[u.value() + 1]};
  }

  /// SoA mirror of OutEdges(u): transition probabilities only.
  std::span<const double> OutProbs(IntNodeId u) const {
    DHTJOIN_DCHECK(ContainsRaw(u.value()));
    return {gather_prob_.data() + out_offsets_[u.value()],
            gather_prob_.data() + out_offsets_[u.value() + 1]};
  }

  /// Incoming arcs of internal node `u` (sources I_u with their
  /// transition probabilities p_{source,u}), sorted by canonical source.
  std::span<const InEdge> InEdges(IntNodeId u) const {
    DHTJOIN_DCHECK(ContainsRaw(u.value()));
    return {in_edges_.data() + in_offsets_[u.value()],
            in_edges_.data() + in_offsets_[u.value() + 1]};
  }

  int64_t OutDegree(IntNodeId u) const {
    DHTJOIN_DCHECK(ContainsRaw(u.value()));
    return out_offsets_[u.value() + 1] - out_offsets_[u.value()];
  }

  int64_t InDegree(IntNodeId u) const {
    DHTJOIN_DCHECK(ContainsRaw(u.value()));
    return in_offsets_[u.value() + 1] - in_offsets_[u.value()];
  }

  /// Total degree (in + out); the generators use it for hub selection.
  int64_t Degree(IntNodeId u) const { return OutDegree(u) + InDegree(u); }

  /// True when (u, v) is an edge (internal ids). O(log OutDegree(u)) —
  /// out-edges are sorted by canonical target within each row.
  bool HasEdge(IntNodeId u, IntNodeId v) const;

  /// Weight of edge (u, v) (internal ids); 0 when absent.
  double EdgeWeight(IntNodeId u, IntNodeId v) const;

  /// Membership tests. Both spaces cover the same dense range
  /// [0, num_nodes()), so each overload is the same range check — the
  /// typed parameter documents (and enforces) which space the caller
  /// holds.
  bool ContainsNode(ExtNodeId u) const { return ContainsRaw(u.value()); }
  bool ContainsNode(IntNodeId u) const { return ContainsRaw(u.value()); }

  // ------------------------------------------------------- layout/remap

  /// True when the physical layout differs from construction order.
  bool is_reordered() const { return !new_to_old_.empty(); }

  /// Internal (layout) id of external node `u`; identity when the graph
  /// was never reordered. With ToExternal below, the ONLY sanctioned
  /// crossing between the two id spaces (DESIGN.md §10).
  IntNodeId ToInternal(ExtNodeId u) const {
    DHTJOIN_DCHECK(ContainsRaw(u.value()));
    return IntNodeId(old_to_new_.empty()
                         ? u.value()
                         : old_to_new_[static_cast<std::size_t>(u.value())]);
  }

  /// External (construction-time) id of internal node `u`.
  ExtNodeId ToExternal(IntNodeId u) const {
    DHTJOIN_DCHECK(ContainsRaw(u.value()));
    return ExtNodeId(new_to_old_.empty()
                         ? u.value()
                         : new_to_old_[static_cast<std::size_t>(u.value())]);
  }

  /// Sorts internal node ids by CANONICAL (external) id — the engine-
  /// wide summation order that keeps scores bit-identical across
  /// layouts. A plain ascending sort on never-reordered graphs.
  void SortCanonical(std::vector<NodeId>& nodes) const {
    if (new_to_old_.empty()) {
      std::sort(nodes.begin(), nodes.end());
      return;
    }
    const NodeId* key = new_to_old_.data();
    std::sort(nodes.begin(), nodes.end(), [key](NodeId a, NodeId b) {
      return key[static_cast<std::size_t>(a)] <
             key[static_cast<std::size_t>(b)];
    });
  }

  /// Layout identity: 0 for the insertion-ordered layout, else a
  /// content hash of the permutation. Two graphs whose CSR bits happen
  /// to coincide but whose node ids MEAN different external nodes (a
  /// permutation of a symmetric graph) carry different epochs — the
  /// serving cache mixes this into GraphFingerprint so cached walk
  /// states never alias across layouts.
  uint64_t layout_epoch() const { return layout_epoch_; }

  /// Remap tables; empty spans on a never-reordered graph.
  std::span<const NodeId> new_to_old() const { return new_to_old_; }
  std::span<const NodeId> old_to_new() const { return old_to_new_; }

  /// Bulk external -> internal translation for engine entry points:
  /// returns the raw bits of `ids` unchanged on a never-reordered graph
  /// (zero copies; the spaces coincide), else fills `storage` with the
  /// translated ids and returns it. The result is RAW internal ids —
  /// the engines index their mass vectors with them on every line, so
  /// the typed wrapper stops at this boundary (graph/node_id.h).
  std::span<const NodeId> MapToInternal(std::span<const ExtNodeId> ids,
                                        std::vector<NodeId>& storage) const {
    if (old_to_new_.empty()) return RawIds(ids);
    storage.resize(ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      storage[i] = old_to_new_[static_cast<std::size_t>(ids[i].value())];
    }
    return storage;
  }

  // ---------------------------------------------------- reachability

  /// Weak-component reachability index, built on first use and cached
  /// (thread-safe; copies of this Graph share one index).
  const ReachIndex& Reachability() const;

  /// Dense-sweep plan for a walk seeded at `seeds` (INTERNAL ids): the
  /// union of the seeds' weak components. Mass can never leave them in
  /// either direction, so a dense step restricted to the plan's rows is
  /// bit-identical to the full sweep.
  SweepPlan PlanDenseSweep(std::span<const NodeId> seeds) const;

  /// The unrestricted plan (all rows; cost n + m).
  SweepPlan FullSweepPlan() const {
    SweepPlan plan;
    plan.full = true;
    plan.rows = num_nodes();
    plan.edges = num_edges();
    plan.cost = plan.rows + plan.edges;
    return plan;
  }

 private:
  friend class GraphBuilder;
  friend Result<Graph> ApplyNodePermutation(const Graph& g,
                                            std::span<const NodeId>
                                                new_to_old);

  /// Space-agnostic range check backing both ContainsNode overloads and
  /// the accessor DCHECKs (both spaces are dense in [0, num_nodes())).
  // dhtlint: allow(raw-id-param): deliberately space-agnostic range
  // check (both spaces are dense in [0, num_nodes()))
  bool ContainsRaw(NodeId u) const { return u >= 0 && u < num_nodes(); }

  /// Lazily-built caches; allocated at Build()/reorder time so the
  /// once_flag exists before any thread can race on it. shared_ptr:
  /// copies of a Graph share the cache (same layout, same contents).
  struct LazyCaches {
    std::once_flag reach_once;
    ReachIndex reach;
  };

  /// Rebuilds the SoA gather mirrors (gather_to_, gather_prob_) from
  /// out_edges_; every Graph producer calls this once after the out-CSR
  /// is final.
  void BuildGatherArrays() {
    gather_to_.resize(out_edges_.size());
    gather_prob_.resize(out_edges_.size());
    for (std::size_t e = 0; e < out_edges_.size(); ++e) {
      gather_to_[e] = out_edges_[e].to;
      gather_prob_[e] = out_edges_[e].prob;
    }
  }

  std::vector<int64_t> out_offsets_;  // size num_nodes()+1
  std::vector<OutEdge> out_edges_;    // sorted by canonical target per row
  std::vector<double> out_weights_;   // positionally aligned with out_edges_
  std::vector<NodeId> gather_to_;     // SoA mirrors of out_edges_ for the
  std::vector<double> gather_prob_;   // dense gather (see OutTargets)
  std::vector<int64_t> in_offsets_;   // size num_nodes()+1
  std::vector<InEdge> in_edges_;      // sorted by canonical source per row
  std::vector<NodeId> new_to_old_;    // empty = insertion layout
  std::vector<NodeId> old_to_new_;
  uint64_t layout_epoch_ = 0;
  std::shared_ptr<LazyCaches> caches_;
};

}  // namespace dhtjoin

#endif  // DHTJOIN_GRAPH_GRAPH_H_
