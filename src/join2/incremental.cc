#include "join2/incremental.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "dht/backward_batch.h"

#include "obs/trace.h"
#include "util/top_k.h"

namespace dhtjoin {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Margin below a score within which another pair's bound counts as a
/// possible tie. The bounds are exact in real arithmetic (DESIGN.md §1)
/// but computed in floating point: a Y bound that is tight (one source
/// carrying all of S_i, as on a directed cycle) can land an ulp or so
/// under the walk's own sum. The margin, ~4500 ulps at the scores'
/// magnitude, makes such a pair count as a possible tie; resolving it
/// costs a walk, never the order.
double TieMargin(double s, double beta) {
  return 1e-12 * (std::abs(s) + std::abs(beta));
}

}  // namespace

IncrementalTwoWayJoin::IncrementalTwoWayJoin(const Graph& g,
                                             const DhtParams& params, int d,
                                             const NodeSet& P,
                                             const NodeSet& Q,
                                             Options options)
    : g_(g),
      params_(params),
      d_(d),
      P_(P),
      Q_(Q),
      options_(options),
      walker_(g),
      walker_states_(options.state_budget_bytes > 0
                         ? options.state_budget_bytes
                         : AutotuneStateBudgetBytes(g.num_nodes())),
      autotune_budget_(options.state_budget_bytes == 0) {
  if (options_.bound == UpperBoundKind::kY) {
    if (options_.snapshots != nullptr) {
      ybound_ = options_.snapshots->SharedYBound(P, Q, d, &ybound_cached_);
    }
    if (ybound_ == nullptr) {
      ybound_cached_ = false;
      ybound_ = std::make_shared<const YBoundTable>(g, params, d, P, Q);
    }
    // Charge what the S_i(P, q) sweep actually relaxed (it runs on the
    // shared adaptive engine now, so a flat d * |E| would overcount) —
    // and nothing when the table was served from the cache.
    if (!ybound_cached_) stats_.walk_steps += ybound_->edges_relaxed();
  }
  q_level_.assign(Q_.size(), 0);
  q_pmax_.assign(Q_.size(), params_.beta);
  f_handles_.resize(Q_.size());
  residual_handle_.resize(Q_.size());
  for (std::size_t qi = 0; qi < Q_.size(); ++qi) {
    residual_handle_[qi] =
        residual_.Push(params_.beta + Remainder(0, qi), qi);
  }
}

Result<std::unique_ptr<IncrementalTwoWayJoin>> IncrementalTwoWayJoin::Create(
    const Graph& g, const DhtParams& params, int d, const NodeSet& P,
    const NodeSet& Q, std::size_t m, Options options) {
  DHTJOIN_RETURN_NOT_OK(
      ValidateJoinInputs(g, params, d, P, Q, std::max<std::size_t>(m, 1)));
  auto join = std::unique_ptr<IncrementalTwoWayJoin>(
      new IncrementalTwoWayJoin(g, params, d, P, Q, options));
  join->RunInitialSchedule(m);
  return join;
}

Result<std::unique_ptr<IncrementalTwoWayJoin>> IncrementalTwoWayJoin::Create(
    const Graph& g, const DhtParams& params, int d, const NodeSet& P,
    const NodeSet& Q, std::size_t m) {
  return Create(g, params, d, P, Q, m, Options{});
}

double IncrementalTwoWayJoin::Remainder(int l, std::size_t qi) const {
  // The enumerator ranks TRUNCATED scores h_d, which are final once the
  // walk reaches depth d — unlike X_l^+, which bounds the infinite
  // series and stays positive at l == d.
  if (l >= d_) return 0.0;
  return options_.bound == UpperBoundKind::kY ? ybound_->Bound(l, qi)
                                              : params_.XBound(l);
}

int IncrementalTwoWayJoin::NextLevel(int l) const {
  return l == 0 ? 1 : std::min(2 * l, d_);
}

void IncrementalTwoWayJoin::DeepenTarget(std::size_t qi, int new_level) {
  DHTJOIN_CHECK_GT(new_level, q_level_[qi]);
  DHTJOIN_CHECK_LE(new_level, d_);
  // Feedback autotune: every so many walks, fold the pool's OBSERVED
  // hit/eviction behaviour back into its byte budget (grow on thrash,
  // shrink on idle). Explicit budgets are left alone. Shrink-evicted
  // states restart bit-identically, so this never changes a result.
  constexpr int64_t kRetunePeriod = 64;
  if (autotune_budget_ && ++deepen_calls_ % kRetunePeriod == 0) {
    walker_states_.Retune();
  }
  ExtNodeId q = Q_[qi];
  // The deepest walk of q on hand: the local pool's (valid only at
  // exactly the current level) or the cross-query provider's (the
  // serving cache), whichever is deeper. A provider walk past d_ would
  // overshoot the truncated measure, so it is not used.
  const BackwardWalkerState* from = nullptr;
  BackwardWalkerState* saved = walker_states_.Find(static_cast<uint64_t>(qi));
  if (saved != nullptr && saved->level == q_level_[qi] &&
      q_level_[qi] > 0) {
    from = saved;
  }
  std::shared_ptr<const BackwardWalkerState> external;
  if (options_.snapshots != nullptr) {
    external = options_.snapshots->Fetch(q);
    if (external != nullptr && external->target == q &&
        external->level <= d_ &&
        external->level > (from == nullptr ? 0 : from->level)) {
      from = external.get();
    }
  }
  if (q_level_[qi] == 0) {
    if (from != nullptr) {
      ++warm_targets_;
    } else {
      ++cold_targets_;
    }
  }

  if (from != nullptr && from->level >= new_level) {
    // Stored at or past the requested depth (only a provider walk can
    // be): score q at the walk's own level, whose remainder is tighter
    // (DESIGN.md §1, §6), straight from its deltas — no restore, no
    // step.
    stats_.state_hits++;
    ReadRow(*from);
    ApplyRow(qi, from->level, row_buffer_.data());
    return;
  }

  // Resume the deepest walk, or restart (bit-identical scores by
  // DESIGN.md §3, just more steps for that target).
  int64_t edges_before = walker_.edges_relaxed();
  if (from != nullptr) {
    walker_.Restore(params_, *from);
    walker_.Advance(new_level - from->level);
    stats_.state_hits++;
  } else {
    walker_.Reset(params_, q);
    walker_.Advance(new_level);
    stats_.walks_started++;
    stats_.state_misses++;
  }
  stats_.walk_steps += walker_.edges_relaxed() - edges_before;
  // One Save serves both consumers; the provider copy is skipped
  // entirely when its cache already holds an equal-or-deeper walk
  // (WantsLevel — the common warm case).
  const bool offer = options_.snapshots != nullptr &&
                     options_.snapshots->WantsLevel(q, new_level);
  if (new_level < d_) {
    BackwardWalkerState snapshot;
    walker_.Save(&snapshot);
    if (offer) options_.snapshots->Store(q, snapshot);
    walker_states_.Put(static_cast<uint64_t>(qi), std::move(snapshot));
  } else {
    // Depth d is final for the truncated measure; the local state is
    // dead (the provider may keep a copy for other queries). A provider
    // walk at d sits at or past every level a later query asks for, so
    // it is only ever read through ReadRow: the copy keeps its deltas
    // and drops the mass.
    walker_states_.Erase(static_cast<uint64_t>(qi));
    if (offer) {
      BackwardWalkerState snapshot;
      walker_.Save(&snapshot);
      snapshot.engine = PropagatorState{};
      options_.snapshots->Store(q, std::move(snapshot));
    }
  }
  stats_.state_evictions = walker_states_.evictions() + schedule_evictions_;
  stats_.state_resident_bytes = static_cast<int64_t>(walker_states_.bytes());

  row_buffer_.resize(P_.size());
  for (std::size_t pi = 0; pi < P_.size(); ++pi) {
    row_buffer_[pi] = walker_.Score(P_[pi]);
  }
  ApplyRow(qi, new_level, row_buffer_.data());
}

void IncrementalTwoWayJoin::ReadRow(const BackwardWalkerState& state) {
  if (p_by_internal_.empty()) {
    p_by_internal_.reserve(P_.size());
    for (std::size_t pi = 0; pi < P_.size(); ++pi) {
      p_by_internal_.emplace_back(g_.ToInternal(P_[pi]).value(),
                                  static_cast<uint32_t>(pi));
    }
    std::sort(p_by_internal_.begin(), p_by_internal_.end());
  }
  // Deltas are ascending by INTERNAL id; an absent node holds an exact
  // 0.0, as in the walker's dense vector. Each of P's ids is found by
  // galloping from the previous hit: probe 1, 2, 4, ... entries ahead
  // until an id >= u, then binary-search the last gap.
  const std::pair<NodeId, double>* const deltas = state.score_delta.data();
  const std::size_t end = state.score_delta.size();
  row_buffer_.assign(P_.size(), 0.0);
  std::size_t lo = 0;
  for (const auto& [u, pi] : p_by_internal_) {
    std::size_t hi = lo;
    for (std::size_t step = 1; hi < end && deltas[hi].first < u; step *= 2) {
      lo = hi + 1;
      hi = lo + step;
    }
    lo = static_cast<std::size_t>(
        std::lower_bound(deltas + lo, deltas + std::min(hi, end), u,
                         [](const std::pair<NodeId, double>& e, NodeId id) {
                           return e.first < id;
                         }) -
        deltas);
    if (lo < end && deltas[lo].first == u) row_buffer_[pi] = deltas[lo].second;
  }
  for (double& cell : row_buffer_) cell = params_.beta + cell;
}

void IncrementalTwoWayJoin::ApplyRow(std::size_t qi, int new_level,
                                     const double* row) {
  DHTJOIN_CHECK_GT(new_level, q_level_[qi]);
  DHTJOIN_CHECK_LE(new_level, d_);
  ExtNodeId q = Q_[qi];
  const double remainder = Remainder(new_level, qi);
  // The row and the target's handle list both run in P order, so one
  // merge pairs each score with its F entry, if it has one. Depth d is
  // final (the target is never walked again), so there the merge only
  // looks entries up and the list is released.
  std::vector<MutableHeap<PairEntry>::Handle>& handles = f_handles_[qi];
  const bool keep_handles = new_level < d_;
  std::size_t next = 0;
  merged_handles_.clear();
  double pmax = params_.beta;
  for (std::size_t pi = 0; pi < P_.size(); ++pi) {
    ExtNodeId p = P_[pi];
    if (p == q) continue;
    double s = row[pi];
    if (s <= params_.beta) continue;
    pmax = std::max(pmax, s);
    double upper = s + remainder;
    // An entry the row skips would keep its bounds (none does: a
    // deeper row only grows).
    for (; next < handles.size() && f_.Get(handles[next]).pi < pi; ++next) {
      if (keep_handles) merged_handles_.push_back(handles[next]);
    }
    MutableHeap<PairEntry>::Handle handle;
    if (next < handles.size() && f_.Get(handles[next]).pi == pi) {
      handle = handles[next++];
      PairEntry& entry = f_.GetMutable(handle);
      // Deeper walks only tighten: lower grows, upper shrinks
      // (monotonicity of h_l and of h_l + U_l^+; see DESIGN.md).
      entry.lower = s;
      entry.level = new_level;
      f_.Update(handle, upper);
    } else {
      handle = f_.Push(upper, PairEntry{p.value(), qi, s, new_level,
                                        static_cast<uint32_t>(pi)});
    }
    if (keep_handles) merged_handles_.push_back(handle);
  }

  q_level_[qi] = new_level;
  q_pmax_[qi] = pmax;
  if (keep_handles) {
    merged_handles_.insert(merged_handles_.end(),
                          handles.begin() + static_cast<std::ptrdiff_t>(next),
                          handles.end());
    handles.swap(merged_handles_);
    residual_.Update(residual_handle_[qi],
                     params_.beta + Remainder(new_level, qi));
  } else {
    std::vector<MutableHeap<PairEntry>::Handle>().swap(handles);
    residual_.Erase(residual_handle_[qi]);
  }
}

double IncrementalTwoWayJoin::LowerThreshold(std::size_t m) const {
  if (m == 0) return kNegInf;
  TopK<char> lowers(m);
  f_.ForEach([&lowers](const PairEntry& e, double /*priority*/) {
    lowers.Offer(e.lower, 0);
  });
  return lowers.size() < m ? kNegInf : lowers.MinKey();
}

void IncrementalTwoWayJoin::RunInitialSchedule(std::size_t m) {
  if (m == 0) return;  // fully lazy; Next() drives everything
  obs::Trace* const trace = obs::TraceOf(options_.exec);
  obs::ScopedSpan sched_span(trace, "schedule");
  std::vector<std::size_t> live(Q_.size());
  for (std::size_t qi = 0; qi < Q_.size(); ++qi) live[qi] = qi;
  stats_.live_per_iteration.push_back(static_cast<int64_t>(live.size()));

  // The round's prune: a target survives while max_p h + U^+ at its
  // current level (>= the round's, when a cached walk put it deeper —
  // a valid, tighter bound by DESIGN.md §1) reaches the m-th best
  // lower bound.
  auto prune = [&](obs::ScopedSpan& round_span) {
    const double tm = LowerThreshold(m);
    std::vector<std::size_t> survivors;
    survivors.reserve(live.size());
    for (std::size_t qi : live) {
      if (q_pmax_[qi] + Remainder(q_level_[qi], qi) >= tm) {
        survivors.push_back(qi);
      }
    }
    stats_.pruned_fraction_per_iteration.push_back(
        1.0 - static_cast<double>(survivors.size()) /
                  static_cast<double>(Q_.size()));
    live.swap(survivors);
    stats_.live_per_iteration.push_back(static_cast<int64_t>(live.size()));
    round_span.SetAttr("survivors", static_cast<int64_t>(live.size()));
  };

  if (options_.snapshots != nullptr) {
    // Scalar schedule, kept for the serving path: the provider's
    // snapshots are scalar walks with a full score surface (reusable
    // under ANY query's P), which only the scalar walker can produce
    // and consume — DeepenTarget imports/offers them per target. A
    // target already at or past the round's level is not walked.
    for (int l = 1; l < d_; l *= 2) {
      obs::ScopedSpan round_span(trace, "round");
      round_span.SetAttr("level", int64_t{l});
      round_span.SetAttr("frontier", static_cast<int64_t>(live.size()));
      for (std::size_t qi : live) {
        if (q_level_[qi] < l) DeepenTarget(qi, l);
      }
      prune(round_span);
    }
    obs::ScopedSpan final_span(trace, "final");
    final_span.SetAttr("level", int64_t{d_});
    final_span.SetAttr("frontier", static_cast<int64_t>(live.size()));
    for (std::size_t qi : live) {
      if (q_level_[qi] < d_) DeepenTarget(qi, d_);
    }
    return;
  }

  // Batch-driven eager schedule (the default): the whole live set
  // deepens through the fused core — one fork/join barrier per round
  // instead of one scalar walk per target per level — with per-target
  // resumable states local to the schedule. Next() keeps the scalar
  // resume pool: its single-target refinements would pay the full
  // W-lane stride for one live lane. A target pruned here restarts
  // from scratch if Next() later re-activates it — bit-identical
  // scores, just 2x the steps for that target (DESIGN.md §3, §8).
  BackwardWalkerBatch batch(g_);
  BackwardBatchStates batch_states(Q_.size(), walker_states_.max_bytes());
  // Every target's first walk starts here, from scratch.
  cold_targets_ += static_cast<int64_t>(Q_.size());
  // All counter folds from the batch run through this one delta-based
  // accountant, called once per deepening round. The engine counters
  // (edges, barriers, resume hits/misses) are cumulative on the batch
  // objects; folding deltas here keeps each event counted exactly once
  // — the same "one hit or miss per (target, round) resume attempt"
  // semantics the scalar DeepenTarget implements with its manual
  // increments — and makes a second fold of the same round impossible
  // (the old one-shot `+= batch_states.hits()` after the whole
  // schedule double-counts as soon as anything reads or folds
  // mid-schedule).
  int64_t edges_seen = 0;
  int64_t barriers_seen = 0;
  int64_t hits_seen = 0;
  int64_t misses_seen = 0;
  auto account = [&] {
    stats_.walk_steps += batch.edges_relaxed() - edges_seen;
    edges_seen = batch.edges_relaxed();
    stats_.barriers_per_iteration.push_back(batch.scheduler_barriers() -
                                            barriers_seen);
    stats_.pool_barriers += batch.scheduler_barriers() - barriers_seen;
    barriers_seen = batch.scheduler_barriers();
    stats_.state_hits += batch_states.hits() - hits_seen;
    hits_seen = batch_states.hits();
    stats_.state_misses += batch_states.misses() - misses_seen;
    misses_seen = batch_states.misses();
  };
  for (int l = 1; l < d_; l *= 2) {
    obs::ScopedSpan round_span(trace, "round");
    round_span.SetAttr("level", int64_t{l});
    round_span.SetAttr("frontier", static_cast<int64_t>(live.size()));
    std::vector<ExtNodeId> nodes(live.size());
    for (std::size_t i = 0; i < live.size(); ++i) nodes[i] = Q_[live[i]];
    stats_.walks_started += batch.AdvanceChunked(
        params_, l, nodes, live, P_.nodes(), batch_states,
        [&](std::size_t i, const double* row) { ApplyRow(live[i], l, row); });
    account();
    prune(round_span);
    // Same feedback autotuning the scalar pool gets: grow the schedule's
    // state budget on thrash, shrink on idle (never changes a result).
    if (autotune_budget_) batch_states.Retune();
  }
  // Final exact-d pass for survivors; their states die with the
  // schedule (depth d is final for the truncated measure), so skip the
  // write-back.
  std::vector<std::size_t> need;
  for (std::size_t qi : live) {
    if (q_level_[qi] < d_) need.push_back(qi);
  }
  if (!need.empty()) {
    obs::ScopedSpan final_span(trace, "final");
    final_span.SetAttr("level", int64_t{d_});
    final_span.SetAttr("frontier", static_cast<int64_t>(need.size()));
    std::vector<ExtNodeId> nodes(need.size());
    for (std::size_t i = 0; i < need.size(); ++i) nodes[i] = Q_[need[i]];
    stats_.walks_started += batch.AdvanceChunked(
        params_, d_, nodes, need, P_.nodes(), batch_states,
        [&](std::size_t i, const double* row) {
          ApplyRow(need[i], d_, row);
        },
        SaveStates::kNone);
    account();
  }
  // Remember the schedule's evictions: DeepenTarget refreshes
  // stats_.state_evictions from the scalar pool on every later call,
  // using this same formula — keep the two sites identical.
  schedule_evictions_ = batch_states.evictions();
  stats_.state_evictions = walker_states_.evictions() + schedule_evictions_;
}

ScoredPair IncrementalTwoWayJoin::EmitTieRun(double s) {
  const double floor = s - TieMargin(s, params_.beta);
  // Pull every pair whose bound still reaches the floor: deepen the
  // blocking residual targets and the inexact F entries until all that
  // remain above the floor are exact, then take those out of F.
  std::vector<PairEntry> run;
  std::vector<PairEntry> below;  // exact, within the margin under s
  while (true) {
    const double unseen =
        residual_.empty() ? kNegInf : residual_.TopPriority();
    const double top = f_.empty() ? kNegInf : f_.TopPriority();
    if (unseen >= floor && unseen >= top) {
      const std::size_t qi = residual_.Get(residual_.TopHandle());
      DeepenTarget(qi, NextLevel(q_level_[qi]));
      continue;
    }
    if (top < floor) break;
    const PairEntry e = f_.Get(f_.TopHandle());
    if (e.level < d_) {
      DeepenTarget(e.qi, d_);
      continue;
    }
    f_.Pop();
    (e.lower >= s ? run : below).push_back(e);
  }
  // Exact pairs under s wait in F for their own turn (their targets are
  // at depth d, so no later walk touches them).
  for (const PairEntry& e : below) f_.Push(e.lower, e);
  tie_run_.clear();
  for (const PairEntry& e : run) {
    tie_run_.push_back(ScoredPair{e.p, Q_[e.qi].value(), e.lower});
  }
  std::sort(tie_run_.begin(), tie_run_.end(), ScoredPairGreater);
  tie_pos_ = 1;
  ++num_returned_;
  return tie_run_[0];
}

std::optional<ScoredPair> IncrementalTwoWayJoin::Next() {
  if (tie_pos_ < tie_run_.size()) {
    ++num_returned_;
    return tie_run_[tie_pos_++];
  }
  while (true) {
    const double unseen =
        residual_.empty() ? kNegInf : residual_.TopPriority();
    if (f_.empty()) {
      if (residual_.empty()) return std::nullopt;
      // Only unmaterialized pairs remain possible; a residual bound at
      // the floor means every remaining pair is unreachable.
      if (unseen <= params_.beta) return std::nullopt;
      std::size_t qi = residual_.Get(residual_.TopHandle());
      DeepenTarget(qi, NextLevel(q_level_[qi]));
      continue;
    }

    auto top_handle = f_.TopHandle();
    const PairEntry e1 = f_.Get(top_handle);
    const double second = f_.SecondPriority();
    const double blocker = std::max(second, unseen);

    if (e1.lower >= blocker) {
      if (e1.level < d_) {
        // Order is decided but the exact score is not known yet; the
        // paper exactifies with a d-step walk before emitting.
        DeepenTarget(e1.qi, d_);
        continue;
      }
      // A blocker within the margin may hide a pair of equal score:
      // emit the whole run of them in key order (canonical order).
      if (blocker >= e1.lower - TieMargin(e1.lower, params_.beta)) {
        return EmitTieRun(e1.lower);
      }
      f_.Pop();
      ++num_returned_;
      return ScoredPair{e1.p, Q_[e1.qi].value(), e1.lower};
    }

    // Blocked. When the top entry is exact, the heap property makes
    // second <= e1.lower, so the blocker must be a residual target.
    if (unseen >= second && unseen > e1.lower) {
      std::size_t qi = residual_.Get(residual_.TopHandle());
      DeepenTarget(qi, NextLevel(q_level_[qi]));
    } else {
      // Refine the top pair's target (paper rule: min(2 l, d) steps).
      // q_level_[e1.qi] == e1.level by construction (every walk of a
      // target refreshes all of its entries); read the authoritative one.
      DeepenTarget(e1.qi, NextLevel(q_level_[e1.qi]));
    }
  }
}

}  // namespace dhtjoin
