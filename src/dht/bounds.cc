#include "dht/bounds.h"

#include <algorithm>
#include <cmath>

#include "dht/batch_core.h"

namespace dhtjoin {

double XUpperBound(const DhtParams& params, int l) {
  return params.XBound(l);
}

YBoundTable::YBoundTable(const Graph& g, const DhtParams& params, int d,
                         const NodeSet& P, const NodeSet& Q,
                         const ExecContext* exec)
    : d_(d) {
  DHTJOIN_CHECK_GE(d, 1);
  // Non-absorbing sweep from all of P at once, on one lane of the walk
  // engine: the visiting probability S_i(P, q) is the step-i mass at q.
  // Frontier-adaptive steps keep the cost output-sensitive, and
  // edges_relaxed() reports what the sweep actually paid. Seeds and
  // probes are translated to layout ids once (identity on a
  // never-reordered graph); each seed carries mass 1.0 once.
  for (ExtNodeId p : P) DHTJOIN_CHECK(g.ContainsNode(p));
  batch_core::BlockWorkspace<1> sweep(g.num_nodes());
  std::vector<NodeId> seed_storage, probe_storage;
  std::span<const NodeId> seeds = g.MapToInternal(P.nodes(), seed_storage);
  std::span<const NodeId> probes = g.MapToInternal(Q.nodes(), probe_storage);
  for (NodeId u : seeds) {
    double& slot = sweep.mass[static_cast<std::size_t>(u)];
    if (slot == 0.0) sweep.support.push_back(u);
    slot = 1.0;
  }
  sweep.support_canonical = false;
  sweep.plan = g.PlanDenseSweep(seeds);

  // s[qi][i-1] = S_i(P, q) for i = 1..d.
  std::vector<std::vector<double>> s(
      Q.size(), std::vector<double>(static_cast<std::size_t>(d), 0.0));

  for (int i = 1; i <= d; ++i) {
    if (exec != nullptr && exec->Check() != StatusCode::kOk) {
      complete_ = false;
      break;
    }
    batch_core::StepLanes<batch_core::ForwardStepPolicy, 1>(
        g, PropagationMode::kAdaptive, /*soa_gather=*/false, sweep, 1);
    for (std::size_t qi = 0; qi < Q.size(); ++qi) {
      s[qi][static_cast<std::size_t>(i) - 1] =
          sweep.mass[static_cast<std::size_t>(probes[qi])];
    }
  }
  edges_relaxed_ = sweep.edges_relaxed;
  if (!complete_) {
    // Abandoned sweep: leave an all-zero (INVALID) table; callers must
    // consult complete() before Bound().
    per_q_suffix_.assign(Q.size(),
                         std::vector<double>(static_cast<std::size_t>(d) + 1,
                                             0.0));
    return;
  }

  // Suffix sums: Y_l = alpha * sum_{i=l+1..d} lambda^i min(S_i, 1).
  per_q_suffix_.assign(Q.size(),
                       std::vector<double>(static_cast<std::size_t>(d) + 1,
                                           0.0));
  for (std::size_t qi = 0; qi < Q.size(); ++qi) {
    double acc = 0.0;
    for (int l = d - 1; l >= 0; --l) {
      double li = std::pow(params.lambda, l + 1);
      acc += params.alpha * li *
             std::min(s[qi][static_cast<std::size_t>(l)], 1.0);
      per_q_suffix_[qi][static_cast<std::size_t>(l)] = acc;
    }
  }
}

}  // namespace dhtjoin
