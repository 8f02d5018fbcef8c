/// \file join2/incremental.h
/// \brief Resumable 2-way join — the `F` structure of PJ-i (paper Sec VI-D).
///
/// PJ-i needs getNextNodePair to be cheap: after a top-m join, the
/// (m+1)-th, (m+2)-th, ... pairs must be derivable from information the
/// top-m computation already produced, instead of re-running a top-(m+1)
/// join from scratch.
///
/// IncrementalTwoWayJoin runs a B-IDJ-style deepening schedule once, but
/// records every bound it computes in a mutable priority queue F of
/// entries  <(p, q), h-, h+, l>  ordered by the upper bound h+ — the
/// structure the paper describes. A target still below depth d keeps
/// the heap handles of its entries in P order, so a deeper walk of it
/// tightens them in one merge with its new row, hashing nothing.
/// Next() then repeatedly resolves the top of F:
///   * if the top entry's lower bound dominates both the runner-up's
///     upper bound and every not-yet-materialized pair, it is the next
///     result (exactified by a d-step walk from its q first if needed);
///   * otherwise the blocking target q is walked deeper
///     (l -> min(2l, d), the paper's refinement rule) and its entries
///     are tightened in place.
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

#ifndef DHTJOIN_JOIN2_INCREMENTAL_H_
#define DHTJOIN_JOIN2_INCREMENTAL_H_

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "dht/backward.h"
#include "dht/bounds.h"
#include "dht/walker_state.h"
#include "join2/two_way_join.h"
#include "util/deadline.h"
#include "util/mutable_heap.h"

namespace dhtjoin {

/// Produces the 2-way join results of (P, Q) one at a time, in
/// descending h_d order, resuming cheaply between calls.
class IncrementalTwoWayJoin {
 public:
  struct Options {
    UpperBoundKind bound = UpperBoundKind::kY;
    /// Byte budget for the per-target resume pool; 0 means autotune
    /// from graph size (AutotuneStateBudgetBytes).
    std::size_t state_budget_bytes = 0;
    /// Optional cross-query source of walks and Y-bound tables (the
    /// serving cache). DeepenTarget takes the deeper of the local pool's
    /// and the provider's walk of q: one at or past the requested level
    /// is scored at its own level straight from its stored deltas, a
    /// shallower one is resumed; its own walks are offered back. The
    /// Y-bound table of (P, Q) comes from the provider when it has one.
    /// Bit-identical either way (DESIGN.md §3, §6). Must outlive the
    /// join.
    BackwardSnapshotProvider* snapshots = nullptr;
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

  /// Number of pairs returned so far.
  std::size_t num_returned() const { return num_returned_; }

  /// Walk and pool counters; walk_steps includes the Y-bound sweep when
  /// this join ran it (not when the provider supplied the table).
  const TwoWayJoinStats& stats() const { return stats_; }

  /// Targets whose first walk in this join started from a provider walk
  /// (scored from it or resumed) vs from scratch.
  int64_t warm_targets() const { return warm_targets_; }
  int64_t cold_targets() const { return cold_targets_; }

  /// True when the Y-bound table came from the provider, so this join
  /// ran no sweep.
  bool ybound_cached() const { return ybound_cached_; }

 private:
  struct PairEntry {
    NodeId p;
    std::size_t qi;    // index into Q
    double lower;      // h_l(p, q)
    int level;         // l at which `lower` was computed
    uint32_t pi;       // index of p in P
  };

  IncrementalTwoWayJoin(const Graph& g, const DhtParams& params, int d,
                        const NodeSet& P, const NodeSet& Q, Options options);

  /// Remainder bound U_l^+ for target index qi at depth l.
  double Remainder(int l, std::size_t qi) const;

  /// The paper's refinement rule: a target at depth l is next walked to
  /// min(2l, d) (to 1 when never walked).
  int NextLevel(int l) const;

  /// Brings target qi to depth >= `new_level` (> current), inserting /
  /// tightening F entries and refreshing the residual bound. A cached
  /// walk at or past `new_level` is scored at its own level without a
  /// step; otherwise the deepest cached walk is resumed, or q restarts.
  void DeepenTarget(std::size_t qi, int new_level);

  /// Fills row_buffer_ with h_l(P[pi], q) read from a saved walk's
  /// score deltas — the same arithmetic as BackwardWalker::Score, so
  /// bit-identical to restoring the walk, without the restore. P's ids
  /// are found in the ascending delta list by galloping search:
  /// O(|P| log(t / |P|)) for a walk that touched t nodes.
  void ReadRow(const BackwardWalkerState& state);

  /// The F-maintenance half of a deepening: folds target qi's score row
  /// over P (h_{new_level}(P[pi], Q[qi]) at row[pi]) into the candidate
  /// heap — merging it with the target's handle list — and residual
  /// bound, and records the new level and the row's best score. Shared
  /// by DeepenTarget and the batch-driven initial schedule.
  void ApplyRow(std::size_t qi, int new_level, const double* row);

  /// Resolves every pair whose bound still reaches `s` (the exact top
  /// pair's score, which its blocker ties) less a rounding margin, then
  /// emits the pairs scoring >= s in ScoredPairGreater order — the
  /// first now, the rest from tie_run_ on the following Next() calls.
  ScoredPair EmitTieRun(double s);

  /// Runs the B-IDJ deepening schedule with pruning threshold from the
  /// m-th best lower bound. Driven by the fused batch engine
  /// (BackwardWalkerBatch::AdvanceMany via AdvanceChunked) — one
  /// fork/join per deepening round over the whole live set — except
  /// when a cross-query snapshot provider is attached: provider
  /// snapshots are SCALAR walks (a full score surface, reusable under
  /// any P), which a batch row over this query's P cannot produce, so
  /// that path keeps the scalar walker and its cache import/export, and
  /// its rounds skip targets a cached walk already put at or past the
  /// round's level. Scores are identical either way (DESIGN.md §3, §6).
  void RunInitialSchedule(std::size_t m);

  /// m-th largest lower bound currently in F (-inf when |F| < m).
  double LowerThreshold(std::size_t m) const;

  const Graph& g_;
  DhtParams params_;
  int d_;
  const NodeSet P_;  // copies: the enumerator outlives caller temporaries
  const NodeSet Q_;
  Options options_;
  std::shared_ptr<const YBoundTable> ybound_;  // own sweep or provider's
  bool ybound_cached_ = false;
  BackwardWalker walker_;
  // Saved per-target walk states so DeepenTarget resumes from a
  // target's current level instead of replaying it from scratch (the
  // paper's min(2l, d) refinement revisits the same targets over and
  // over). LRU under a byte budget; an evicted target restarts with
  // bit-identical results (DESIGN.md §3). When the budget came from the
  // autotuner (Options::state_budget_bytes == 0), the pool's observed
  // hit/eviction counters feed back into it periodically
  // (WalkerStatePool::Retune): grow on thrash, shrink on idle.
  WalkerStatePool<BackwardWalkerState> walker_states_;
  bool autotune_budget_ = false;
  int64_t deepen_calls_ = 0;
  int64_t schedule_evictions_ = 0;  // from the batch-driven top-m setup
  std::vector<double> row_buffer_;  // scratch: one score row over P_
  // (internal id, index into P_) of every member of P, ascending by
  // internal id; built on the first ReadRow.
  std::vector<std::pair<NodeId, uint32_t>> p_by_internal_;
  int64_t warm_targets_ = 0;
  int64_t cold_targets_ = 0;

  MutableHeap<PairEntry> f_;  // keyed by upper bound h+
  // Per target below depth d: the handles of its F entries, ascending
  // by P index. Released at depth d, after which the target is never
  // walked again — and only then can its pairs leave F (every pair is
  // emitted exact), so a returned pair needs no record.
  std::vector<std::vector<MutableHeap<PairEntry>::Handle>> f_handles_;
  // ApplyRow's merge output below depth d, swapped into the target's
  // list; the buffer it gets back is reused by the next call.
  std::vector<MutableHeap<PairEntry>::Handle> merged_handles_;

  // Residual heap over target indices, keyed by beta + U_l^+(q): the
  // bound on any pair of that target not represented in F.
  MutableHeap<std::size_t> residual_;
  std::vector<MutableHeap<std::size_t>::Handle> residual_handle_;
  std::vector<int> q_level_;  // walked depth per target (0 = never)
  // max(beta, max_{p != q} h(p, q)) of each target's latest row: the
  // schedule's per-target upper bound is this plus U^+ at q_level_.
  std::vector<double> q_pmax_;

  // The rest of the current run of equal scores, in emission order.
  std::vector<ScoredPair> tie_run_;
  std::size_t tie_pos_ = 0;

  std::size_t num_returned_ = 0;
  TwoWayJoinStats stats_;
};

}  // namespace dhtjoin

#endif  // DHTJOIN_JOIN2_INCREMENTAL_H_
