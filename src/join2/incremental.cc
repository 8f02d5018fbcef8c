#include "join2/incremental.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "join2/b_idj.h"
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
      states_(Q.size(), options.state_budget_bytes > 0
                            ? options.state_budget_bytes
                            : AutotuneStateBudgetBytes(g.num_nodes())),
      autotune_budget_(options.state_budget_bytes == 0),
      single_(g, {.num_threads = 1, .soa_gather = true}) {
  // Import before the Y-bound table: a table the provider sweeps and
  // caches could evict the very states this edge is about to import.
  if (options_.snapshots != nullptr) {
    options_.snapshots->Import(P_, Q_, d_, states_);
    imported_level_.resize(Q_.size());
    for (std::size_t qi = 0; qi < Q_.size(); ++qi) {
      imported_level_[qi] = states_.level(qi);
      if (imported_level_[qi] > 0) ++warm_targets_;
    }
  }
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
  cold_targets_ = static_cast<int64_t>(Q_.size()) - warm_targets_;
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
  // Feedback autotune: every so many deepenings, fold the states'
  // OBSERVED hit/eviction behaviour back into their byte budget (grow
  // on thrash, shrink on idle). Explicit budgets are left alone.
  // Shrink-evicted states restart bit-identically, so this never
  // changes a result.
  constexpr int64_t kRetunePeriod = 64;
  if (autotune_budget_ && ++deepen_calls_ % kRetunePeriod == 0) {
    states_.Retune();
  }
  Deepen(std::span<const std::size_t>(&qi, 1), new_level, single_);
}

template <int W>
int64_t IncrementalTwoWayJoin::Deepen(std::span<const std::size_t> targets,
                                      int level,
                                      BackwardWalkerBatchT<W>& engine) {
  // Depth d is final for the truncated measure: a walk there is never
  // advanced again, so its state keeps only the row, and only for the
  // provider; without one the state is freed.
  const SaveStates save = level < d_ ? SaveStates::kResumable
                          : options_.snapshots != nullptr
                              ? SaveStates::kRowOnly
                              : SaveStates::kNone;
  const int64_t edges_before = engine.edges_relaxed();
  const int64_t barriers_before = engine.scheduler_barriers();
  ScoreTargets(params_, level, P_, Q_, targets, engine, &states_, save,
               /*exec=*/nullptr, &stats_.walks_started,
               [&](std::size_t i, const ScoreRow& row) {
                 ApplyRow(targets[i], row);
               });
  if (save == SaveStates::kNone) {
    for (std::size_t qi : targets) states_.Drop(qi);
  }
  const int64_t barriers = engine.scheduler_barriers() - barriers_before;
  stats_.walk_steps += engine.edges_relaxed() - edges_before;
  stats_.pool_barriers += barriers;
  stats_.state_hits = states_.hits();
  stats_.state_misses = states_.misses();
  stats_.state_evictions = states_.evictions();
  stats_.state_resident_bytes = static_cast<int64_t>(states_.bytes());
  return barriers;
}

void IncrementalTwoWayJoin::WriteBackStates() {
  if (options_.snapshots == nullptr) return;
  options_.snapshots->WriteBack(P_, Q_, d_, states_, imported_level_);
}

void IncrementalTwoWayJoin::ApplyRow(std::size_t qi, const ScoreRow& row) {
  const int new_level = row.level;
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
    const double s = row.Score(pi, params_.beta);
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
  // The rounds advance the whole live set through the fused core: one
  // fork/join barrier per round instead of one walk per target.
  BackwardWalkerBatch batch(
      g_, {.num_threads = options_.snapshots != nullptr ? 1 : 0});
  std::vector<std::size_t> live(Q_.size());
  for (std::size_t qi = 0; qi < Q_.size(); ++qi) live[qi] = qi;
  stats_.live_per_iteration.push_back(static_cast<int64_t>(live.size()));

  // The live targets still below `level`, into `need`; one a stored
  // state already put at or past `level` keeps its deeper bounds.
  std::vector<std::size_t> need;
  auto below = [&](int level) {
    need.clear();
    for (std::size_t qi : live) {
      if (q_level_[qi] < level) need.push_back(qi);
    }
    return !need.empty();
  };

  for (int l = 1; l < d_; l *= 2) {
    obs::ScopedSpan round_span(trace, "round");
    round_span.SetAttr("level", int64_t{l});
    round_span.SetAttr("frontier", static_cast<int64_t>(live.size()));
    if (below(l)) {
      stats_.barriers_per_iteration.push_back(Deepen(need, l, batch));
    }
    // A target survives while max_p h + U^+ at its current level (>= l
    // when a stored state put it deeper — a valid, tighter bound by
    // DESIGN.md §1) reaches the m-th best lower bound. A pruned target
    // keeps its state: Next() resumes it if it re-activates the target.
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
    // Grow the state budget on thrash, shrink it on idle (never changes
    // a result).
    if (autotune_budget_) states_.Retune();
  }
  // Final exact-d pass for the survivors.
  if (!below(d_)) return;
  obs::ScopedSpan final_span(trace, "final");
  final_span.SetAttr("level", int64_t{d_});
  final_span.SetAttr("frontier", static_cast<int64_t>(need.size()));
  stats_.barriers_per_iteration.push_back(Deepen(need, d_, batch));
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
