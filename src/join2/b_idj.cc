#include "join2/b_idj.h"

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "dht/batch_core.h"
#include "dht/bounds.h"
#include "obs/trace.h"
#include "util/top_k.h"

namespace dhtjoin {

template <int W>
bool ScoreTargets(const DhtParams& params, int l, const NodeSet& P,
                  const NodeSet& Q, std::span<const std::size_t> live,
                  BackwardWalkerBatchT<W>& batch, BackwardBatchStates* states,
                  SaveStates save, const ExecContext* exec,
                  int64_t* walks_started, const ScoreRowFn& score_row) {
  std::vector<std::size_t> walk_pos;  // positions in `live` that walk
  std::vector<ExtNodeId> walk_nodes;
  std::vector<std::size_t> walk_slots;
  for (std::size_t i = 0; i < live.size(); ++i) {
    const BackwardBatchSnapshot* saved =
        states != nullptr ? states->Saved(live[i]) : nullptr;
    if (saved == nullptr || saved->level < l) {
      walk_pos.push_back(i);
      walk_nodes.push_back(Q[live[i]]);
      walk_slots.push_back(live[i]);
      continue;
    }
    score_row(i, ScoreRow::Stored(*saved));
  }
  auto consume = [&](std::size_t j, const double* row) {
    score_row(walk_pos[j], ScoreRow{.cells = row, .level = l});
  };
  bool interrupted = false;
  if (states != nullptr) {
    *walks_started += batch.AdvanceChunked(
        params, l, walk_nodes, walk_slots, P.nodes(), *states, consume, save,
        /*max_targets_per_run=*/0, exec, &interrupted);
  } else {
    batch.RunChunked(params, l, walk_nodes, P.nodes(), consume);
    *walks_started += static_cast<int64_t>(walk_nodes.size());
  }
  return !interrupted;
}

template bool ScoreTargets<8>(const DhtParams&, int, const NodeSet&,
                              const NodeSet&, std::span<const std::size_t>,
                              BackwardWalkerBatchT<8>&, BackwardBatchStates*,
                              SaveStates, const ExecContext*, int64_t*,
                              const ScoreRowFn&);
template bool ScoreTargets<1>(const DhtParams&, int, const NodeSet&,
                              const NodeSet&, std::span<const std::size_t>,
                              BackwardWalkerBatchT<1>&, BackwardBatchStates*,
                              SaveStates, const ExecContext*, int64_t*,
                              const ScoreRowFn&);

Result<std::vector<ScoredPair>> RunBIdjSchedule(const DhtParams& params,
                                                int d, const NodeSet& P,
                                                const NodeSet& Q,
                                                std::size_t k,
                                                const BIdjScheduleParts& parts,
                                                const ExecContext* exec,
                                                TwoWayJoinStats* stats) {
  obs::Trace* const trace = obs::TraceOf(exec);
  const YBoundTable* const ybound = parts.ybound;
  BackwardWalkerBatch& batch = *parts.batch;
  BackwardBatchStates* const states = parts.states;
  const bool y_usable = ybound != nullptr && ybound->complete();
  auto remainder = [&](int l, std::size_t qi) {
    return y_usable ? ybound->Bound(l, qi) : params.XBound(l);
  };

  // Offers every pair (p, q) of q's score row that beats the floor to
  // `top`; returns the row's largest score (beta when none does). Only
  // a cell at or above the threshold can enter, and the threshold only
  // rises, so the loop keeps a copy of it, refreshed after each retained
  // offer, and offers nothing below it. A stored row knows its best
  // cell: when even that lies below the threshold, no cell can enter and
  // the row is scored from that one cell (DESIGN.md §6).
  auto offer_row = [&](PairTopK& top, ExtNodeId q, const ScoreRow& row) {
    const double beta = params.beta;
    double t = top.Threshold();
    if (row.delta) {
      if (row.best_cell < 0) return beta;
      const double best =
          row.Score(static_cast<std::size_t>(row.best_cell), beta);
      if (best < t) return std::max(beta, best);
    }
    double pmax = beta;
    for (std::size_t pi = 0; pi < P.size(); ++pi) {
      ExtNodeId p = P[pi];
      if (p == q) continue;
      const double s = row.Score(pi, beta);
      if (s > beta) {
        if (s >= t && top.Offer(s, ScoredPair{p.value(), q.value(), s})) {
          t = top.Threshold();
        }
        if (s > pmax) pmax = s;
      }
    }
    return pmax;
  };

  std::vector<std::size_t> live(Q.size());
  for (std::size_t qi = 0; qi < Q.size(); ++qi) live[qi] = qi;
  stats->live_per_iteration.push_back(static_cast<int64_t>(live.size()));

  // Upper bound max_p h + U of each target, by index within Q.
  std::vector<double> q_upper(Q.size());
  // Targets whose state already sits at d hold their final h_d
  // (Lemma 1): their rows are offered once, to `finals`, which seeds
  // every round's B and the final pass, and their upper bounds are
  // computed once. The rounds score only the other live targets. Seeding
  // B with a target an earlier round pruned changes no retained set
  // (DESIGN.md §6), so thresholds, pruning and answers are unchanged.
  PairTopK finals(k);
  std::vector<bool> at_d(Q.size(), false);
  if (states != nullptr) {
    for (std::size_t qi = 0; qi < Q.size(); ++qi) {
      const BackwardBatchSnapshot* saved = states->Saved(qi);
      if (saved == nullptr || saved->level != d) continue;
      at_d[qi] = true;
      q_upper[qi] =
          offer_row(finals, Q[qi], ScoreRow::Stored(*saved)) + remainder(d, qi);
    }
  }

  // One round's stored-row-or-walk step over the live targets below d,
  // and its barriers: score_target(qi, row) gets Q[qi]'s row.
  std::vector<std::size_t> open;
  int64_t batch_barriers_seen = 0;
  auto walk_live = [&](int l, SaveStates save,
                       const ScoreRowFn& score_target) {
    open.clear();
    for (std::size_t qi : live) {
      if (!at_d[qi]) open.push_back(qi);
    }
    const bool completed = ScoreTargets(
        params, l, P, Q, open, batch, states, save, exec,
        &stats->walks_started, [&](std::size_t i, const ScoreRow& row) {
          score_target(open[i], row);
        });
    stats->barriers_per_iteration.push_back(batch.scheduler_barriers() -
                                            batch_barriers_seen);
    batch_barriers_seen = batch.scheduler_barriers();
    return completed;
  };

  auto max_remainder = [&](int l) {
    double eps = 0.0;
    for (std::size_t qi : live) eps = std::max(eps, remainder(l, qi));
    return eps;
  };
  // The retained pairs of `top`, in the library-wide result order.
  auto finalize = [k](const PairTopK& top) {
    std::vector<ScoredPair> out;
    for (const auto& entry : top.entries()) out.push_back(entry.item);
    FinalizePairs(out, k);
    return out;
  };
  // Anytime state (DESIGN.md §9): the top-k snapshot of the last
  // COMPLETED deepening level, its level, and the matching eps bound
  // (max U_l^+ over the targets live in that level). A soft stop
  // returns `anytime` + PartialInfo; a hard stop (cancel) errors.
  std::vector<ScoredPair> anytime;
  int cut_level = 0;
  double cut_eps = max_remainder(0);
  auto finish_stats = [&] {
    stats->walk_steps += batch.edges_relaxed();
    if (states != nullptr) {
      stats->state_hits = states->hits();
      stats->state_misses = stats->walks_started;
      stats->state_evictions = states->evictions();
      stats->state_resident_bytes = static_cast<int64_t>(states->bytes());
    }
    stats->pool_barriers = batch.scheduler_barriers();
    if (exec != nullptr) stats->lifecycle_checks = exec->blocks_checked();
  };
  auto degrade = [&](StatusCode code) -> Result<std::vector<ScoredPair>> {
    finish_stats();
    if (code == StatusCode::kCancelled) {
      return Status::Cancelled("B-IDJ: query cancelled");
    }
    stats->partial = PartialInfo{true, cut_level, cut_eps};
    return anytime;
  };
  // The executor-level stop poll, at level boundaries (DESIGN.md §9).
  auto check = [&] {
    return exec != nullptr ? exec->Check() : StatusCode::kOk;
  };
  // An interrupted Y sweep leaves nothing to return: degrade at level 0.
  if (ybound != nullptr && !ybound->complete()) {
    return degrade(exec->stop_code());
  }

  for (int l = 1; l < d; l *= 2) {
    if (auto stop = check(); stop != StatusCode::kOk) return degrade(stop);
    obs::ScopedSpan round_span(trace, "round");
    round_span.SetAttr("level", int64_t{l});
    round_span.SetAttr("frontier", static_cast<int64_t>(live.size()));
    // B is reset every iteration (Alg. 2 Step 3), to the final rows.
    PairTopK bounds = finals;
    bool completed =
        walk_live(l, SaveStates::kResumable,
                  [&](std::size_t qi, const ScoreRow& row) {
                    q_upper[qi] = offer_row(bounds, Q[qi], row) +
                                  remainder(row.level, qi);
                  });
    if (!completed) return degrade(exec->stop_code());
    // Round l completed: refresh the anytime snapshot before pruning.
    // The snapshot's scores are h_l values (or deeper, for stored rows,
    // which only tighten: U is monotone decreasing in l); every pair's
    // target was live entering this round, so max U_l^+ over `live`
    // bounds them all (exact = score + at most cut_eps).
    cut_level = l;
    cut_eps = max_remainder(l);
    anytime = finalize(bounds);
    if (exec != nullptr && exec->on_level) exec->on_level(l);
    double tk = bounds.Threshold();
    std::vector<std::size_t> survivors;
    survivors.reserve(live.size());
    for (std::size_t qi : live) {
      if (q_upper[qi] >= tk) {
        survivors.push_back(qi);
      } else if (states != nullptr && !parts.keep_states) {
        // A pruned target never walks again; free its state now.
        states->Drop(qi);
      }
    }
    stats->pruned_fraction_per_iteration.push_back(
        1.0 - static_cast<double>(survivors.size()) /
                  static_cast<double>(Q.size()));
    live.swap(survivors);
    round_span.SetAttr("survivors", static_cast<int64_t>(live.size()));
    stats->live_per_iteration.push_back(static_cast<int64_t>(live.size()));
    // Feedback autotuning between rounds (batch_core::BatchStateBudget):
    // grow the pool on thrash, shrink on idle. Explicit budgets are the
    // caller's contract; evicted states restart bit-identically, so
    // retuning never changes a result.
    if (states != nullptr && parts.retune_states) states->Retune();
  }

  // Final pass (Alg. 2 Steps 16-17): exact d-step walks for survivors.
  // h_d is final (Lemma 1), so a kept state saves its row, not its walk.
  if (auto stop = check(); stop != StatusCode::kOk) return degrade(stop);
  PairTopK best = finals;
  if (!live.empty()) {
    obs::ScopedSpan final_span(trace, "final");
    final_span.SetAttr("level", int64_t{d});
    final_span.SetAttr("frontier", static_cast<int64_t>(live.size()));
    bool completed =
        walk_live(d,
                  parts.keep_states ? SaveStates::kRowOnly : SaveStates::kNone,
                  [&](std::size_t qi, const ScoreRow& row) {
                    offer_row(best, Q[qi], row);
                  });
    if (!completed) return degrade(exec->stop_code());
  }

  finish_stats();
  stats->partial = PartialInfo{false, d, 0.0};
  return finalize(best);
}

Result<std::vector<ScoredPair>> BIdjJoin::Run(const Graph& g,
                                              const DhtParams& params, int d,
                                              const NodeSet& P,
                                              const NodeSet& Q,
                                              std::size_t k) {
  DHTJOIN_RETURN_NOT_OK(ValidateJoinInputs(g, params, d, P, Q, k));
  stats_.Reset();
  const ExecContext* exec = options_.exec;

  std::unique_ptr<YBoundTable> ybound;
  if (options_.bound == UpperBoundKind::kY) {
    obs::ScopedSpan ybound_span(obs::TraceOf(exec), "ybound");
    ybound = std::make_unique<YBoundTable>(g, params, d, P, Q, exec);
    // Charge what the S_i(P, q) sweep actually relaxed (it runs on the
    // shared adaptive engine now, so a flat d * |E| would overcount).
    stats_.walk_steps += ybound->edges_relaxed();
  }

  BackwardWalkerBatch batch(g);
  const bool autotuned_budget = options_.state_budget_bytes == 0;
  BackwardBatchStates states(options_.resume ? Q.size() : 0,
                             autotuned_budget
                                 ? AutotuneStateBudgetBytes(g.num_nodes())
                                 : options_.state_budget_bytes);
  if (exec != nullptr && exec->commit_fault) {
    states.set_commit_fault(exec->commit_fault);
  }
  return RunBIdjSchedule(
      params, d, P, Q, k,
      BIdjScheduleParts{.ybound = ybound.get(),
                        .batch = &batch,
                        .states = options_.resume ? &states : nullptr,
                        .retune_states = autotuned_budget},
      exec, &stats_);
}

}  // namespace dhtjoin
