#include "join2/incremental.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "join2/b_idj.h"
#include "obs/trace.h"

namespace dhtjoin {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();
constexpr std::size_t kNotInF = static_cast<std::size_t>(-1);

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
  f_handle_.assign(Q_.size(), kNotInF);
  cells_.resize(Q_.size() * P_.size());
  runs_.resize(Q_.size());
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
  // Only a target at depth d returns cells, and none is walked again.
  DHTJOIN_DCHECK(runs_[qi].next == 0);
  ExtNodeId q = Q_[qi];
  // The new row replaces the slot: its candidate cells (a deeper row only
  // grows them), with the best and the runner-up moved to the front.
  Cell* const cells = &cells_[qi * P_.size()];
  uint32_t n = 0;
  uint32_t best = 0;
  uint32_t second = 0;
  double best_lower = kNegInf;
  double second_lower = kNegInf;
  for (std::size_t pi = 0; pi < P_.size(); ++pi) {
    const double s = row.Score(pi, params_.beta);
    // Written whether kept or not (n <= pi): a dropped cell is
    // overwritten by the next one.
    cells[n] = Cell{s, static_cast<uint32_t>(pi)};
    const bool keep = s > params_.beta && P_[pi] != q;
    if (keep && s > second_lower) {
      if (s > best_lower) {
        second = best;
        second_lower = best_lower;
        best = n;
        best_lower = s;
      } else {
        second = n;
        second_lower = s;
      }
    }
    n += keep ? 1 : 0;
  }
  if (n > 0) {
    std::swap(cells[0], cells[best]);
    if (second == 0) second = best;  // the swap moved it
    if (n > 1) std::swap(cells[1], cells[second]);
  }
  runs_[qi] = CellRun{.next = 0, .sorted = std::min<uint32_t>(n, 2), .end = n};

  q_level_[qi] = new_level;
  Rekey(qi);
  if (new_level < d_) {
    residual_.Update(residual_handle_[qi],
                     params_.beta + Remainder(new_level, qi));
  } else {
    residual_.Erase(residual_handle_[qi]);
  }
}

double IncrementalTwoWayJoin::RunnerUpBound(std::size_t qi) const {
  const CellRun& run = runs_[qi];
  if (run.next + 1 >= run.end) return kNegInf;
  return cells_[qi * P_.size() + run.next + 1].lower +
         Remainder(q_level_[qi], qi);
}

void IncrementalTwoWayJoin::Rekey(std::size_t qi) {
  MutableHeap<std::size_t>::Handle& handle = f_handle_[qi];
  if (runs_[qi].next == runs_[qi].end) {
    if (handle != kNotInF) f_.Erase(handle);
    handle = kNotInF;
    return;
  }
  // The same double the per-pair upper bound h_l + U_l^+ would be.
  const double key = BestCell(qi).lower + Remainder(q_level_[qi], qi);
  if (handle == kNotInF) {
    handle = f_.Push(key, qi);
  } else {
    f_.Update(handle, key);
  }
}

void IncrementalTwoWayJoin::PopBest(std::size_t qi) {
  CellRun& run = runs_[qi];
  ++run.next;
  if (run.sorted < std::min(run.end, run.next + 2)) {
    // The new runner-up is the largest of the unordered rest: one scan
    // finds it. A fifth of the targets return no cell and most return a
    // few, so no row is sorted at depth d. A target that keeps returning
    // cells gets the rest sorted once, which caps its cost at
    // kScannedPops scans and a sort; on nway_mix's 60-cell rows, sorting
    // after 8 pops cost a third more per pop than after 32.
    constexpr uint32_t kScannedPops = 32;
    Cell* const cells = &cells_[qi * P_.size()];
    if (run.next < kScannedPops) {
      uint32_t best = run.sorted;
      double best_lower = cells[best].lower;
      for (uint32_t i = run.sorted + 1; i < run.end; ++i) {
        if (cells[i].lower > best_lower) {
          best = i;
          best_lower = cells[i].lower;
        }
      }
      std::swap(cells[run.sorted], cells[best]);
      ++run.sorted;
    } else {
      std::sort(cells + run.sorted, cells + run.end,
                [](const Cell& a, const Cell& b) { return a.lower > b.lower; });
      run.sorted = run.end;
    }
  }
  Rekey(qi);
}

double IncrementalTwoWayJoin::LowerThreshold(std::size_t m) const {
  if (m == 0) return kNegInf;
  // The m-th largest of a subset bounds the m-th largest of all from
  // below, so take the subset of each target's two front cells (its best
  // and runner-up), then select among the cells that reach its m-th.
  std::vector<double> lowers;
  lowers.reserve(2 * Q_.size());
  for (std::size_t qi = 0; qi < Q_.size(); ++qi) {
    const CellRun& run = runs_[qi];
    const Cell* const cells = &cells_[qi * P_.size()];
    for (uint32_t i = run.next; i < std::min(run.end, run.next + 2); ++i) {
      lowers.push_back(cells[i].lower);
    }
  }
  const auto mth = [&lowers, m] {
    const auto it = lowers.begin() + static_cast<std::ptrdiff_t>(m - 1);
    std::nth_element(lowers.begin(), it, lowers.end(), std::greater<>());
    return *it;
  };
  const double floor = lowers.size() < m ? kNegInf : mth();
  lowers.clear();
  for (std::size_t qi = 0; qi < Q_.size(); ++qi) {
    const CellRun& run = runs_[qi];
    const Cell* const cells = &cells_[qi * P_.size()];
    if (run.next == run.end || cells[run.next].lower < floor) continue;
    for (uint32_t i = run.next; i < run.end; ++i) {
      if (cells[i].lower >= floor) lowers.push_back(cells[i].lower);
    }
  }
  return lowers.size() < m ? kNegInf : mth();
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

  // The m-th best lower bound; it moves only when a round applies rows.
  double tm = kNegInf;
  for (int l = 1; l < d_; l *= 2) {
    obs::ScopedSpan round_span(trace, "round");
    round_span.SetAttr("level", int64_t{l});
    round_span.SetAttr("frontier", static_cast<int64_t>(live.size()));
    if (below(l)) {
      stats_.barriers_per_iteration.push_back(Deepen(need, l, batch));
      tm = LowerThreshold(m);
    }
    // A target survives while max_p h + U^+ at its current level (>= l
    // when a stored state put it deeper — a valid, tighter bound by
    // DESIGN.md §1) reaches the m-th best lower bound; max_p h is its
    // best cell (no cell is returned before Next()), or beta without one.
    // A pruned target keeps its state: Next() resumes it if it
    // re-activates the target.
    std::vector<std::size_t> survivors;
    survivors.reserve(live.size());
    for (std::size_t qi : live) {
      const double pmax =
          runs_[qi].end > 0 ? BestCell(qi).lower : params_.beta;
      if (pmax + Remainder(q_level_[qi], qi) >= tm) {
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
  // blocking residual targets and the targets below depth d until all
  // that remain above the floor are exact, then take those out of F.
  tie_run_.clear();
  std::vector<std::size_t> below;  // target of each exact cell under s
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
    const std::size_t qi = f_.Get(f_.TopHandle());
    if (q_level_[qi] < d_) {
      DeepenTarget(qi, d_);
      continue;
    }
    const Cell cell = BestCell(qi);
    PopBest(qi);
    if (cell.lower >= s) {
      tie_run_.push_back(
          ScoredPair{P_[cell.pi].value(), Q_[qi].value(), cell.lower});
    } else {
      below.push_back(qi);
    }
  }
  // Exact cells under s wait in F for their own turn. A target's cells
  // leave in descending order, so those under s are its latest: putting
  // them back steps its run back over them.
  for (std::size_t qi : below) {
    --runs_[qi].next;
    Rekey(qi);
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

    // The top pair is the top target's best cell. The best of the other
    // pairs is the next target's key or the top target's own runner-up:
    // together they are the per-pair heap's second priority.
    const std::size_t qi = f_.Get(f_.TopHandle());
    const Cell e1 = BestCell(qi);
    const double second = std::max(f_.SecondPriority(), RunnerUpBound(qi));
    const double blocker = std::max(second, unseen);

    if (e1.lower >= blocker) {
      if (q_level_[qi] < d_) {
        // Order is decided but the exact score is not known yet; the
        // paper exactifies with a d-step walk before emitting.
        DeepenTarget(qi, d_);
        continue;
      }
      // A blocker within the margin may hide a pair of equal score:
      // emit the whole run of them in key order (canonical order).
      if (blocker >= e1.lower - TieMargin(e1.lower, params_.beta)) {
        return EmitTieRun(e1.lower);
      }
      PopBest(qi);
      ++num_returned_;
      return ScoredPair{P_[e1.pi].value(), Q_[qi].value(), e1.lower};
    }

    // Blocked. When the top pair is exact, its bound is its lower bound
    // and tops every other pair's, so the blocker must be a residual
    // target.
    if (unseen >= second && unseen > e1.lower) {
      std::size_t rq = residual_.Get(residual_.TopHandle());
      DeepenTarget(rq, NextLevel(q_level_[rq]));
    } else {
      // Refine the top pair's target (paper rule: min(2 l, d) steps).
      DeepenTarget(qi, NextLevel(q_level_[qi]));
    }
  }
}

}  // namespace dhtjoin
