#include "join2/f_idj.h"

#include <algorithm>
#include <vector>

#include "dht/batch_core.h"
#include "obs/trace.h"
#include "util/top_k.h"

namespace dhtjoin {

Result<std::vector<ScoredPair>> FIdjJoin::Run(const Graph& g,
                                              const DhtParams& params, int d,
                                              const NodeSet& P,
                                              const NodeSet& Q,
                                              std::size_t k) {
  DHTJOIN_RETURN_NOT_OK(ValidateJoinInputs(g, params, d, P, Q, k));
  stats_.Reset();
  const ExecContext* exec = options_.exec;
  obs::Trace* const trace = obs::TraceOf(exec);

  ForwardWalkerBatch batch(g);
  // Pair states are keyed on the ORIGINAL (pi, qi) grid so a source's
  // slot ids stay stable as the live set shrinks; the map is sparse, so
  // a huge pair space costs nothing until pairs actually save states.
  const bool resume = options_.resume;
  const bool autotuned_budget = options_.state_budget_bytes == 0;
  const std::size_t budget = autotuned_budget
                                 ? AutotuneStateBudgetBytes(g.num_nodes())
                                 : options_.state_budget_bytes;
  ForwardBatchStates states(budget);
  if (exec != nullptr && exec->commit_fault) {
    states.set_commit_fault(exec->commit_fault);
  }
  int64_t batch_edges_seen = 0;
  int64_t batch_barriers_seen = 0;

  // live holds ORIGINAL indices into P.
  std::vector<std::size_t> live(P.size());
  for (std::size_t pi = 0; pi < P.size(); ++pi) live[pi] = pi;
  stats_.live_per_iteration.push_back(static_cast<int64_t>(live.size()));

  // Walks every (live source, q) pair to depth l and hands each score to
  // consume(i, qi, score), i indexing `live`. Resume continues each pair
  // from its saved level; restart recomputes from scratch — identical
  // scores either way (sorted-support determinism, DESIGN.md §3).
  // `save` is off for the final exact-d pass. Returns false when a
  // cooperative stop interrupted the round (resume schedule only; the
  // restart schedule polls at level boundaries) — the round's partial
  // output must then be DISCARDED.
  //
  // The resume schedule runs on the FUSED scheduler (AdvanceMany): all
  // |Q| targets' (live source, q) blocks of the round go through ONE
  // ParallelFor, instead of the historical one-AdvancePairs-barrier per
  // target per level — the O(|Q|) fork/joins that dominated large-|Q|
  // rounds once pruning had shrunk the live set (DESIGN.md §8). Targets
  // are sliced only to keep the round's score matrix near 32 MB.
  auto walk_live = [&](const std::vector<std::size_t>& lv, int l, bool save,
                       auto&& consume) {
    std::vector<ExtNodeId> nodes(lv.size());
    for (std::size_t i = 0; i < lv.size(); ++i) nodes[i] = P[lv[i]];
    bool interrupted = false;
    if (resume) {
      constexpr std::size_t kMaxMatrixDoubles = std::size_t{4} << 20;
      const std::size_t targets_per_call = std::max<std::size_t>(
          1, kMaxMatrixDoubles / std::max<std::size_t>(1, lv.size()));
      std::vector<double> scores;
      std::vector<std::size_t> slots;
      std::vector<ForwardTargetPlan> plans;
      for (std::size_t qbase = 0; qbase < Q.size();
           qbase += targets_per_call) {
        const std::size_t qcount =
            std::min(targets_per_call, Q.size() - qbase);
        scores.assign(lv.size() * qcount, 0.0);
        slots.resize(lv.size() * qcount);
        plans.assign(qcount, ForwardTargetPlan{});
        for (std::size_t t = 0; t < qcount; ++t) {
          const std::size_t qi = qbase + t;
          for (std::size_t i = 0; i < lv.size(); ++i) {
            slots[t * lv.size() + i] = lv[i] * Q.size() + qi;
          }
          plans[t].target = Q[qi];
          plans[t].sources = nodes;
          plans[t].slots = {slots.data() + t * lv.size(), lv.size()};
          plans[t].out = scores.data() + t * lv.size();
        }
        stats_.walks_started +=
            batch.AdvanceMany(params, l, plans, states, save, exec,
                              &interrupted);
        if (interrupted) break;
        for (std::size_t t = 0; t < qcount; ++t) {
          for (std::size_t i = 0; i < lv.size(); ++i) {
            consume(i, qbase + t, scores[t * lv.size() + i]);
          }
        }
      }
    } else {
      batch.RunChunked(params, l, nodes, Q.nodes(),
                       [&](std::size_t i, const double* row) {
                         for (std::size_t qi = 0; qi < Q.size(); ++qi) {
                           consume(i, qi, row[qi]);
                         }
                       });
      stats_.walks_started +=
          static_cast<int64_t>(lv.size() * Q.size());
    }
    stats_.walk_steps += batch.edges_relaxed() - batch_edges_seen;
    batch_edges_seen = batch.edges_relaxed();
    stats_.barriers_per_iteration.push_back(batch.scheduler_barriers() -
                                            batch_barriers_seen);
    batch_barriers_seen = batch.scheduler_barriers();
    return !interrupted;
  };

  // Anytime state (DESIGN.md §9): the top-k snapshot of the last
  // COMPLETED deepening level plus its level and eps bound — for F-IDJ
  // the remainder is the pair-independent X_l^+, so one scalar covers
  // every pair by construction.
  std::vector<ScoredPair> anytime;
  int cut_level = 0;
  double cut_eps = params.XBound(0);
  auto finish_stats = [&] {
    stats_.state_hits = states.hits();
    stats_.state_misses = resume ? stats_.walks_started : 0;
    stats_.state_evictions = states.evictions();
    stats_.state_resident_bytes = static_cast<int64_t>(states.bytes());
    stats_.pool_barriers = batch.scheduler_barriers();
    if (exec != nullptr) stats_.lifecycle_checks = exec->blocks_checked();
  };
  auto degrade = [&](StatusCode code) -> Result<std::vector<ScoredPair>> {
    finish_stats();
    if (code == StatusCode::kCancelled) {
      return Status::Cancelled(Name() + ": query cancelled");
    }
    stats_.partial = PartialInfo{true, cut_level, cut_eps};
    std::vector<ScoredPair> out = anytime;
    FinalizePairs(out, k);
    return out;
  };

  for (int l = 1; l < d; l *= 2) {
    if (exec != nullptr) {
      StatusCode code = exec->Check();
      if (code != StatusCode::kOk) return degrade(code);
    }
    obs::ScopedSpan round_span(trace, "round");
    round_span.SetAttr("level", int64_t{l});
    round_span.SetAttr("frontier", static_cast<int64_t>(live.size()));
    PairTopK bounds(k);
    std::vector<double> pmax(live.size(), params.beta);  // floor over q
    bool completed = walk_live(live, l, /*save=*/true,
                               [&](std::size_t i, std::size_t qi, double s) {
      ExtNodeId p = P[live[i]];
      ExtNodeId q = Q[qi];
      if (p == q) return;  // self pair: score is meaningless
      if (s > params.beta) {
        bounds.Offer(s, ScoredPair{p.value(), q.value(), s});
        if (s > pmax[i]) pmax[i] = s;
      }
    });
    if (!completed) return degrade(exec->stop_code());
    // Round l completed: refresh the anytime snapshot before pruning.
    cut_level = l;
    cut_eps = params.XBound(l);
    {
      PairTopK snapshot = bounds;
      anytime.clear();
      for (auto& entry : snapshot.TakeSortedDescending()) {
        anytime.push_back(entry.item);
      }
    }
    if (exec != nullptr && exec->on_level) exec->on_level(l);
    double tk = bounds.Threshold();
    std::vector<std::size_t> survivors;
    survivors.reserve(live.size());
    for (std::size_t i = 0; i < live.size(); ++i) {
      double p_upper = pmax[i] + params.XBound(l);
      if (p_upper >= tk) {
        survivors.push_back(live[i]);
      } else if (resume) {
        // A pruned source never walks again; free its pair states.
        for (std::size_t qi = 0; qi < Q.size(); ++qi) {
          states.Drop(live[i] * Q.size() + qi);
        }
      }
    }
    stats_.pruned_fraction_per_iteration.push_back(
        1.0 - static_cast<double>(survivors.size()) /
                  static_cast<double>(P.size()));
    live.swap(survivors);
    round_span.SetAttr("survivors", static_cast<int64_t>(live.size()));
    stats_.live_per_iteration.push_back(static_cast<int64_t>(live.size()));
    // Feedback autotuning between rounds: fold the pool's observed
    // hit/eviction behaviour back into its byte budget (grow on thrash,
    // shrink on idle). Explicit budgets are left alone; evicted states
    // restart bit-identically, so this never changes a result.
    if (resume && autotuned_budget) states.Retune();
  }

  // Final pass: exact d-step scores for surviving sources.
  if (exec != nullptr) {
    StatusCode code = exec->Check();
    if (code != StatusCode::kOk) return degrade(code);
  }
  PairTopK best(k);
  obs::ScopedSpan final_span(trace, "final");
  final_span.SetAttr("level", int64_t{d});
  final_span.SetAttr("frontier", static_cast<int64_t>(live.size()));
  bool completed = walk_live(live, d, /*save=*/false,
                             [&](std::size_t i, std::size_t qi, double s) {
    ExtNodeId p = P[live[i]];
    ExtNodeId q = Q[qi];
    if (p == q) return;
    if (s > params.beta) best.Offer(s, ScoredPair{p.value(), q.value(), s});
  });
  if (!completed) return degrade(exec->stop_code());

  finish_stats();
  stats_.partial = PartialInfo{false, d, 0.0};

  std::vector<ScoredPair> out;
  for (auto& entry : best.TakeSortedDescending()) {
    out.push_back(entry.item);
  }
  FinalizePairs(out, k);
  return out;
}

}  // namespace dhtjoin
