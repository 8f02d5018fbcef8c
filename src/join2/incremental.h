/// \file join2/incremental.h
/// \brief Resumable 2-way join — the `F` structure of PJ-i (paper Sec VI-D).
///
/// PJ-i needs getNextNodePair to be cheap: after a top-m join, the
/// (m+1)-th, (m+2)-th, ... pairs must be derivable from information the
/// top-m computation already produced, instead of re-running a top-(m+1)
/// join from scratch.
///
/// IncrementalTwoWayJoin runs a B-IDJ-style deepening schedule once, but
/// records every bound it computes. The paper's F orders entries
/// <(p, q), h-, h+, l> by the upper bound h+; all of a target's pairs
/// share its level l and remainder U_l^+(q), so here F holds one entry
/// per target, keyed by the h+ of its best unreturned pair, and the
/// pairs themselves are the target's row of cells, ordered lazily.
/// Next() then repeatedly resolves the top target's best pair:
///   * if its lower bound dominates every other pair's upper bound (the
///     next target's key, its own target's runner-up, and every
///     not-yet-materialized pair), it is the next result (exactified by
///     a d-step walk from its q first if needed);
///   * otherwise the blocking target q is walked deeper
///     (l -> min(2l, d), the paper's refinement rule) and its row
///     replaces its cells.
///
/// Pairs invisible to F (their q was pruned early, or they were not
/// reachable within the walked depth) are covered by a per-target
/// *residual* bound beta + U_l^+(q), kept in a second heap; when such a
/// bound tops the candidate upper bounds, that q is re-activated and
/// walked deeper. This closes the gap the paper leaves open (pairs of
/// pruned targets are absent from F) and makes the enumerator exact over
/// the full valid pair space — see DESIGN.md §2.
///
/// The emission order is canonical: descending h_d, ties by ascending
/// (p, q) — ScoredPairGreater. When the exact top pair only ties its
/// blocker (up to a floating-point margin), every pair that can still
/// reach that score is resolved and the run of equal scores is emitted
/// in key order, so the stream (and PBRJ's answer over it) depends only
/// on the exact scores, never on which walks happened to be cached or
/// at what depth (DESIGN.md §2).
///
/// Every walk runs on the batch engine over one BackwardBatchStates,
/// slot qi for Q[qi], which lives as long as the join: the top-m
/// schedule's rounds advance the whole live set at W = 8 through
/// ScoreTargets, the step B-IDJ's rounds use (join2/b_idj.h), and
/// Next()'s single-target deepenings resume the same states at W = 1.
/// A target the schedule pruned is therefore resumed, not restarted,
/// when Next() re-activates it. With a BatchStateProvider attached (the
/// serving cache), the states start from the provider's states of
/// (q, P) — the two-way executor's — and go back to it at the end.

#ifndef DHTJOIN_JOIN2_INCREMENTAL_H_
#define DHTJOIN_JOIN2_INCREMENTAL_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "dht/backward_batch.h"
#include "dht/bounds.h"
#include "join2/two_way_join.h"
#include "util/deadline.h"
#include "util/mutable_heap.h"

namespace dhtjoin {

struct ScoreRow;  // join2/b_idj.h

/// Cross-query store of per-target batch walk states and Y-bound
/// tables, implemented by the serving cache (serve/session.h). A state
/// is keyed by its target AND the source set P its score row covers —
/// the serving two-way executor's key — so a two-way query and a PJ-i
/// query edge over the same (P, Q) warm each other (DESIGN.md §6).
/// Importing nothing and keeping nothing are both always legal: the
/// provider is a cache, not a store of record. Implementations must be
/// thread-safe: concurrent query sessions share one provider.
class BatchStateProvider {
 public:
  virtual ~BatchStateProvider() = default;

  /// Seeds slot i of `states` with the stored state of (Q[i], P), when
  /// the provider holds one for depth-`d` queries and it fits the
  /// states' budget. Its level lies in [1, d]; at d it may be row-only.
  virtual void Import(const NodeSet& P, const NodeSet& Q, int d,
                      BackwardBatchStates& states) = 0;

  /// Offers back every slot of `states` deeper than `imported_level[i]`,
  /// the level Import left in it; may move the states out.
  virtual void WriteBack(const NodeSet& P, const NodeSet& Q, int d,
                         BackwardBatchStates& states,
                         std::span<const int> imported_level) = 0;

  /// Y-bound table of (P, Q) at depth d, shared with other queries
  /// (two-way ones included) over the same sets. On success `*cached`
  /// says whether it was already held; false means this call ran the
  /// sweep, whose edges the caller charges. nullptr (the default) means
  /// the caller builds its own table.
  virtual std::shared_ptr<const YBoundTable> SharedYBound(const NodeSet& P,
                                                          const NodeSet& Q,
                                                          int d,
                                                          bool* cached) {
    (void)P;
    (void)Q;
    (void)d;
    (void)cached;
    return nullptr;
  }
};

/// Produces the 2-way join results of (P, Q) one at a time, in
/// descending h_d order, resuming cheaply between calls.
class IncrementalTwoWayJoin {
 public:
  struct Options {
    UpperBoundKind bound = UpperBoundKind::kY;
    /// Byte budget for the per-target walk states; 0 means autotune
    /// from graph size (AutotuneStateBudgetBytes) and retune from the
    /// observed hits and evictions. An evicted state restarts its walk,
    /// bit-identically.
    std::size_t state_budget_bytes = 0;
    /// Optional cross-query store (the serving cache). The join imports
    /// its states when it is created: a target whose state sits at or
    /// past the level it needs is scored at that level straight from
    /// the stored row, a shallower one is resumed. WriteBackStates()
    /// returns every state that got deeper. The Y-bound table of (P, Q)
    /// comes from the provider when it has one, and the engines run
    /// single-threaded, as the serving two-way executor's do.
    /// Bit-identical either way (DESIGN.md §3, §6). Must outlive the
    /// join.
    BatchStateProvider* snapshots = nullptr;
    /// Used for TRACING only (obs::TraceOf): the initial schedule
    /// records per-round spans (level, frontier, survivors) on the
    /// attached trace. Deadline/cancel are deliberately NOT polled in
    /// this engine — PJ-i has no anytime-degradation story yet, so a
    /// mid-schedule stop would leave F half-built (DESIGN.md §9).
    const ExecContext* exec = nullptr;
  };

  /// Prepares the enumerator and runs the top-m deepening schedule.
  /// `m` tunes how much work is done eagerly (the paper's top-m join);
  /// m = 0 defers everything to Next(). Fails on invalid inputs.
  static Result<std::unique_ptr<IncrementalTwoWayJoin>> Create(
      const Graph& g, const DhtParams& params, int d, const NodeSet& P,
      const NodeSet& Q, std::size_t m, Options options);

  /// Create() with default options (B-IDJ-Y bound).
  static Result<std::unique_ptr<IncrementalTwoWayJoin>> Create(
      const Graph& g, const DhtParams& params, int d, const NodeSet& P,
      const NodeSet& Q, std::size_t m);

  /// Next pair in canonical order (descending score, then ascending
  /// (p, q)); nullopt when every valid pair has been returned.
  std::optional<ScoredPair> Next();

  /// Hands the provider every state that got deeper than what it
  /// imported; call once, when the query ends. Later Next() calls stay
  /// exact but restart the targets whose states went back. A no-op
  /// without a provider.
  void WriteBackStates();

  /// Number of pairs returned so far.
  std::size_t num_returned() const { return num_returned_; }

  /// Walk and state counters; walk_steps includes the Y-bound sweep when
  /// this join ran it (not when the provider supplied the table).
  const TwoWayJoinStats& stats() const { return stats_; }

  /// Targets whose state the provider seeded when the join was created
  /// vs the rest of Q.
  int64_t warm_targets() const { return warm_targets_; }
  int64_t cold_targets() const { return cold_targets_; }

  /// True when the Y-bound table came from the provider, so this join
  /// ran no sweep.
  bool ybound_cached() const { return ybound_cached_; }

 private:
  /// One candidate pair (P[pi], q) of a target: its lower bound
  /// h_l(P[pi], q) at the target's level l.
  struct Cell {
    double lower;
    uint32_t pi;
  };

  /// Where target qi's candidate cells stand in its |P|-wide slot of
  /// cells_: [0, next) were returned, in emission order; [next, sorted)
  /// run in descending order, none below a cell of [sorted, end), which
  /// are unordered. sorted >= min(end, next + 2): the best unreturned
  /// cell and its runner-up are always in place.
  struct CellRun {
    uint32_t next = 0;
    uint32_t sorted = 0;
    uint32_t end = 0;
  };

  IncrementalTwoWayJoin(const Graph& g, const DhtParams& params, int d,
                        const NodeSet& P, const NodeSet& Q, Options options);

  /// Remainder bound U_l^+ for target index qi at depth l.
  double Remainder(int l, std::size_t qi) const;

  /// The paper's refinement rule: a target at depth l is next walked to
  /// min(2l, d) (to 1 when never walked).
  int NextLevel(int l) const;

  /// Brings target qi to depth >= `new_level` (> current) on the W = 1
  /// engine: Deepen over qi alone.
  void DeepenTarget(std::size_t qi, int new_level);

  /// Scores every target qi of `targets` (each below `level`) at
  /// `level` or deeper through ScoreTargets on `engine` — a stored row
  /// at or past `level` is read at its own level, the rest resume or
  /// restart — folds each row into F (ApplyRow) and the walk work into
  /// stats_. Returns the fork/join barriers the engine paid.
  template <int W>
  int64_t Deepen(std::span<const std::size_t> targets, int level,
                 BackwardWalkerBatchT<W>& engine);

  /// The F-maintenance half of a deepening: replaces target qi's cells
  /// with its score row over P (h_{row.level}(P[pi], Q[qi]) at cell pi,
  /// read in place from a stored row's deltas), with the best two in
  /// front, re-keys its F entry and residual bound, and records the new
  /// level.
  void ApplyRow(std::size_t qi, const ScoreRow& row);

  /// Target qi's best unreturned cell; its run must not be empty.
  const Cell& BestCell(std::size_t qi) const {
    return cells_[qi * P_.size() + runs_[qi].next];
  }

  /// Upper bound of target qi's runner-up cell, -inf when it has none.
  double RunnerUpBound(std::size_t qi) const;

  /// Sets target qi's F entry to its best unreturned cell's upper bound,
  /// or removes it when every cell was returned.
  void Rekey(std::size_t qi);

  /// Marks target qi's best cell returned (qi is at depth d) and orders
  /// the next chunk of its cells when the runner-up is not in place.
  void PopBest(std::size_t qi);

  /// Resolves every pair whose bound still reaches `s` (the exact top
  /// pair's score, which its blocker ties) less a rounding margin, then
  /// emits the pairs scoring >= s in ScoredPairGreater order — the
  /// first now, the rest from tie_run_ on the following Next() calls.
  /// The exact cells it took out below s go back to their targets.
  ScoredPair EmitTieRun(double s);

  /// Runs the B-IDJ deepening schedule with pruning threshold from the
  /// m-th best lower bound. Each round walks the live targets below its
  /// level through the fused batch engine (one fork/join barrier per
  /// round); a target a stored state already put at or past the level
  /// is scored from its row instead. Pruned targets keep their states
  /// for Next().
  void RunInitialSchedule(std::size_t m);

  /// m-th largest lower bound among the unreturned cells (-inf when
  /// there are fewer than m).
  double LowerThreshold(std::size_t m) const;

  const Graph& g_;
  DhtParams params_;
  int d_;
  const NodeSet P_;  // copies: the enumerator outlives caller temporaries
  const NodeSet Q_;
  Options options_;
  std::shared_ptr<const YBoundTable> ybound_;  // own sweep or provider's
  bool ybound_cached_ = false;
  // Every target's resumable walk state, slot qi for Q_[qi], shared by
  // the schedule and Next(). Best-effort under its byte budget: an
  // evicted state restarts bit-identically (DESIGN.md §3). An autotuned
  // budget is retuned between rounds and every kRetunePeriod deepenings
  // (grow on thrash, shrink on idle). Depth d is final: a state there
  // is dropped, or kept row-only for the provider.
  BackwardBatchStates states_;
  bool autotune_budget_ = false;
  int64_t deepen_calls_ = 0;
  // Each slot's level after the provider's Import (empty without one).
  std::vector<int> imported_level_;
  // Next()'s engine: one target per block, so no dead lanes. With one
  // madd per edge its dense gather is stream-bound, so it streams the
  // split SoA arrays (BackwardWalkerBatchT::Options::soa_gather).
  BackwardWalkerBatchT<1> single_;
  int64_t warm_targets_ = 0;
  int64_t cold_targets_ = 0;

  // F: one entry per target with an unreturned cell, keyed by that
  // cell's upper bound h_l + U_l^+(q) — so F holds at most |Q| entries.
  MutableHeap<std::size_t> f_;
  std::vector<MutableHeap<std::size_t>::Handle> f_handle_;  // or kNotInF
  // |Q| slots of |P| cells, slot qi holding target qi's candidate pairs
  // (p != q, h_l > beta) as runs_[qi] describes. A row replaces a slot
  // whole, and only at depth d, where the target is never walked again,
  // does a cell leave F (every pair is emitted exact).
  std::vector<Cell> cells_;
  std::vector<CellRun> runs_;

  // Residual heap over target indices, keyed by beta + U_l^+(q): the
  // bound on any pair of that target not represented in F.
  MutableHeap<std::size_t> residual_;
  std::vector<MutableHeap<std::size_t>::Handle> residual_handle_;
  std::vector<int> q_level_;  // walked depth per target (0 = never)

  // The rest of the current run of equal scores, in emission order.
  std::vector<ScoredPair> tie_run_;
  std::size_t tie_pos_ = 0;

  std::size_t num_returned_ = 0;
  TwoWayJoinStats stats_;
};

}  // namespace dhtjoin

#endif  // DHTJOIN_JOIN2_INCREMENTAL_H_
