#include "dht/backward.h"

namespace dhtjoin {

BackwardWalker::BackwardWalker(const Graph& g, PropagationMode mode,
                               bool restrict_dense, bool soa_gather)
    : g_(g),
      engine_(g, Propagator::Direction::kBackward, mode, restrict_dense,
              soa_gather),
      score_delta_(static_cast<std::size_t>(g.num_nodes()), 0.0) {}

void BackwardWalker::Reset(const DhtParams& params, ExtNodeId q) {
  DHTJOIN_CHECK(g_.ContainsNode(q));
  params_ = params;
  target_ = q;
  target_internal_ = g_.ToInternal(q);
  level_ = 0;
  lambda_pow_ = 1.0;
  engine_.Reset(target_internal_);
  for (NodeId u : touched_) score_delta_[static_cast<std::size_t>(u)] = 0.0;
  touched_.clear();
}

void BackwardWalker::Save(BackwardWalkerState* out) const {
  out->target = target_;
  out->level = level_;
  out->lambda_pow = lambda_pow_;
  engine_.SaveState(&out->engine);
  // Deltas go out in ascending internal id. Every touched slot is
  // nonzero (same-sign adds onto an exact 0.0; Advance skips underflowed
  // ones) and every other slot is exactly 0.0, so one branch-free pass
  // over the dense vector reads them off: each slot is written to the
  // next free cell, which advances only past a nonzero.
  const std::size_t n = score_delta_.size();
  const std::size_t m = touched_.size();
  auto& deltas = out->score_delta;
  deltas.resize(m);
  std::size_t k = 0;
  for (std::size_t u = 0; u < n && k < m; ++u) {
    const double delta = score_delta_[u];
    deltas[k] = {static_cast<NodeId>(u), delta};
    k += static_cast<std::size_t>(delta != 0.0);
  }
  deltas.resize(k);
}

void BackwardWalker::Restore(const DhtParams& params,
                             const BackwardWalkerState& state) {
  DHTJOIN_CHECK(state.target.valid());
  params_ = params;
  target_ = state.target;
  target_internal_ = g_.ToInternal(state.target);
  level_ = state.level;
  lambda_pow_ = state.lambda_pow;
  engine_.RestoreState(state.engine);
  for (NodeId u : touched_) score_delta_[static_cast<std::size_t>(u)] = 0.0;
  touched_.clear();
  for (const auto& [u, delta] : state.score_delta) {
    touched_.push_back(u);
    score_delta_[static_cast<std::size_t>(u)] = delta;
  }
}

void BackwardWalker::Advance(int steps) {
  DHTJOIN_CHECK(target_.valid());
  for (int s = 0; s < steps; ++s) {
    engine_.Step();
    ++level_;
    lambda_pow_ *= params_.lambda;
    const double coeff = params_.alpha * lambda_pow_;
    engine_.ForEachMass([&](NodeId u, double mass) {
      double add = coeff * mass;
      // Underflow guard: keep the first-touch test exact (see
      // Propagator::StepSparse for the same pattern).
      if (add == 0.0) return;
      double& slot = score_delta_[static_cast<std::size_t>(u)];
      if (slot == 0.0) touched_.push_back(u);
      slot += add;
    });
    // First-hit semantics: mass that reached q must not re-emit.
    // Visiting semantics (PPR) keep propagating through the target.
    if (params_.first_hit) engine_.ClearMass(target_internal_);
  }
}

}  // namespace dhtjoin
