#include "dht/propagate.h"

#include <algorithm>

namespace dhtjoin {

Propagator::Propagator(const Graph& g, Direction dir, PropagationMode mode,
                       bool restrict_dense, bool soa_gather)
    : g_(g),
      dir_(dir),
      mode_(mode),
      restrict_dense_(restrict_dense),
      soa_gather_(soa_gather),
      mass_(static_cast<std::size_t>(g.num_nodes()), 0.0),
      next_(static_cast<std::size_t>(g.num_nodes()), 0.0) {}

void Propagator::RebuildPlan(std::span<const NodeId> seeds) {
  plan_ = restrict_dense_ ? g_.PlanDenseSweep(seeds) : g_.FullSweepPlan();
}

void Propagator::Reset(IntNodeId seed) {
  DHTJOIN_CHECK(g_.ContainsNode(seed));
  for (NodeId u : support_) mass_[static_cast<std::size_t>(u)] = 0.0;
  support_.clear();
  const NodeId raw = seed.value();
  support_.push_back(raw);
  mass_[static_cast<std::size_t>(raw)] = 1.0;
  support_canonical_ = true;
  RebuildPlan({&raw, 1});
}

void Propagator::Reset(std::span<const IntNodeId> seeds) {
  for (NodeId u : support_) mass_[static_cast<std::size_t>(u)] = 0.0;
  support_.clear();
  for (IntNodeId typed_seed : seeds) {
    DHTJOIN_CHECK(g_.ContainsNode(typed_seed));
    const NodeId seed = typed_seed.value();
    double& slot = mass_[static_cast<std::size_t>(seed)];
    if (slot == 0.0) support_.push_back(seed);
    slot = 1.0;
  }
  // The sorted-support contract must hold from step one.
  g_.SortCanonical(support_);
  support_canonical_ = true;
  RebuildPlan(support_);
}

void Propagator::SaveState(PropagatorState* out) const {
  out->mass.clear();
  out->mass.reserve(support_.size());
  for (NodeId u : support_) {
    out->mass.emplace_back(u, mass_[static_cast<std::size_t>(u)]);
  }
}

void Propagator::RestoreState(const PropagatorState& state) {
  for (NodeId u : support_) mass_[static_cast<std::size_t>(u)] = 0.0;
  support_.clear();
  for (const auto& [u, m] : state.mass) {
    DHTJOIN_DCHECK(g_.ContainsNode(IntNodeId(u)));
    support_.push_back(u);
    mass_[static_cast<std::size_t>(u)] = m;
  }
  // A snapshot records the support in whatever (deterministic) order
  // the saved walk held it; the next order-consuming step re-sorts.
  support_canonical_ = false;
  // The support spans the same components as the original seeds (mass
  // never crosses a weak-component boundary), so the rebuilt plan
  // matches the saved walk's.
  RebuildPlan(support_);
}

bool Propagator::ChooseDense() const {
  if (mode_ == PropagationMode::kDense) return true;
  if (mode_ == PropagationMode::kSparse) return false;
  if (SupportSizeForcesDense(support_.size(), plan_.cost)) return true;
  int64_t frontier_edges = 0;
  for (NodeId u : support_) {
    if (mass_[static_cast<std::size_t>(u)] == 0.0) continue;
    frontier_edges += dir_ == Direction::kForward
                          ? g_.OutDegree(IntNodeId(u))
                          : g_.InDegree(IntNodeId(u));
  }
  return FrontierPrefersDense(support_.size(), frontier_edges, plan_.cost);
}

namespace {

// The endpoint a push writes to: the head of an out-edge (forward), the
// tail of a transposed in-edge (backward).
NodeId PushDest(const OutEdge& e) { return e.to; }
NodeId PushDest(const InEdge& e) { return e.from; }

}  // namespace

void Propagator::Step() {
  last_step_dense_ = ChooseDense();
  // Sorted-support contract: a sparse step CONSUMES the support order
  // (a push accumulates contributions at destinations in support
  // order), so it first brings the support into canonical order — the
  // order in which every dense row lists its sources — and every
  // mode/resume path stays bit-identical. A dense gather only reads
  // per row and never consumes the order.
  if (!last_step_dense_) {
    EnsureCanonicalSupport();
    if (dir_ == Direction::kForward) {
      PushSupport([&](IntNodeId u) { return g_.OutEdges(u); });
    } else {
      PushSupport([&](IntNodeId u) { return g_.InEdges(u); });
    }
  } else if (dir_ == Direction::kForward) {
    // Row w sums p_uw * mass[u] over its in-row, sorted by canonical
    // source: each destination adds its terms in the order the push
    // from a canonical support would (no SoA mirror of the in-rows
    // exists, so soa_gather does not apply).
    GatherPlanRows([&](NodeId w) {
      double acc = 0.0;
      for (const InEdge& e : g_.InEdges(IntNodeId(w))) {
        acc += e.prob * mass_[static_cast<std::size_t>(e.from)];
      }
      return acc;
    });
  } else if (soa_gather_) {
    // The backward gather reads only (to, prob) of every covered edge
    // and does one madd per edge — stream-bound — so by default it
    // streams the split SoA arrays (Graph::OutTargets/OutProbs, 12
    // bytes/edge instead of the 16-byte padded OutEdge); identical
    // per-row summation order, bit-identical results (bench_reorder
    // gates the win and the identity).
    GatherPlanRows([&](NodeId u) {
      std::span<const NodeId> to = g_.OutTargets(IntNodeId(u));
      std::span<const double> prob = g_.OutProbs(IntNodeId(u));
      double acc = 0.0;
      for (std::size_t e = 0; e < to.size(); ++e) {
        acc += prob[e] * mass_[static_cast<std::size_t>(to[e])];
      }
      return acc;
    });
  } else {
    GatherPlanRows([&](NodeId u) {
      double acc = 0.0;
      for (const OutEdge& e : g_.OutEdges(IntNodeId(u))) {
        acc += e.prob * mass_[static_cast<std::size_t>(e.to)];
      }
      return acc;
    });
  }
  support_.swap(next_support_);
  mass_.swap(next_);
  next_support_.clear();
  // A push leaves the new support in emission order; a gather emits
  // rows ascending by INTERNAL id — the canonical order exactly when
  // the layout is insertion order and the plan had no component gaps.
  support_canonical_ = last_step_dense_ && !g_.is_reordered() && plan_.full;
}

template <typename Rows>
void Propagator::PushSupport(Rows rows) {
  next_support_.clear();
  for (NodeId u : support_) {
    const double m = mass_[static_cast<std::size_t>(u)];
    mass_[static_cast<std::size_t>(u)] = 0.0;
    if (m == 0.0) continue;
    const auto row = rows(IntNodeId(u));
    edges_relaxed_ += static_cast<int64_t>(row.size());
    for (const auto& e : row) {
      const double add = m * e.prob;
      // Underflow guard: a zero contribution must not register the
      // node in the support (the first-touch test below relies on
      // nonzero slots staying nonzero).
      if (add == 0.0) continue;
      const NodeId to = PushDest(e);
      double& slot = next_[static_cast<std::size_t>(to)];
      if (slot == 0.0) next_support_.push_back(to);
      slot += add;
    }
  }
}

template <typename RowSum>
void Propagator::GatherPlanRows(RowSum row_sum) {
  // Sequential gather over the PLAN's rows, restricted to the walk's
  // components. Rows outside the plan have no edge to or from the
  // support, so their sum would be exactly 0.0: skipping them changes
  // nothing (the restricted-sweep correctness argument, DESIGN.md §7).
  // Each row sums in storage (canonical) order; rows are independent,
  // so the row iteration order never affects values. The support
  // rebuild rides the same sweep.
  next_support_.clear();
  plan_.ForEachRow(g_.num_nodes(), [&](NodeId u) {
    const double acc = row_sum(u);
    if (acc != 0.0) {
      next_[static_cast<std::size_t>(u)] = acc;
      next_support_.push_back(u);
    }
  });
  for (NodeId u : support_) mass_[static_cast<std::size_t>(u)] = 0.0;
  edges_relaxed_ += plan_.edges;
}

}  // namespace dhtjoin
