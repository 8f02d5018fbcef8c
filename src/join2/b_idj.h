/// \file join2/b_idj.h
/// \brief B-IDJ — Backward Iterative Deepening Join (paper Algorithm 2).
///
/// Iterative deepening over backward walks: walk lengths l = 1, 2, 4, ...
/// (< d); after each iteration target q is pruned from Q when
///   qUpper[q] = max_p h_l(p, q) + U_l^+  <  T_k ,
/// T_k being the k-th best lower bound of the iteration. Survivors get a
/// final exact d-step walk. The remainder bound U_l^+ is pluggable:
/// X_l^+ (B-IDJ-X) or Y_l^+(P, q) (B-IDJ-Y, tighter — the paper's best
/// 2-way algorithm and the engine inside PJ).
///
/// Deepening is RESUMABLE by default: each live target's batch walk
/// state persists across levels (BackwardBatchStates), so the geometric
/// schedule costs O(d) total steps per surviving target instead of the
/// O(2d) a restart at every level pays. Results are byte-identical
/// either way (the engine's sorted-support determinism, DESIGN.md §3);
/// `resume = false` forces the restart schedule, which the parity tests
/// and walk_steps comparisons use as the reference.
///
/// The schedule exists once, as RunBIdjSchedule, over parts its caller
/// owns: the bound table, the batch engine, and the per-target states.
/// BIdjJoin::Run builds them fresh for each query. The serving two-way
/// executor (serve/session.h) seeds the states from its cache before
/// the run and writes them back after it (DESIGN.md §6).

#ifndef DHTJOIN_JOIN2_B_IDJ_H_
#define DHTJOIN_JOIN2_B_IDJ_H_

#include "dht/backward_batch.h"
#include "join2/two_way_join.h"

namespace dhtjoin {

class YBoundTable;

/// The caller-owned parts of one RunBIdjSchedule call.
struct BIdjScheduleParts {
  /// Y_l^+(P, q) per target (B-IDJ-Y); null selects X_l^+ (B-IDJ-X). An
  /// incomplete table, abandoned by a cooperative stop, degrades the
  /// run at level 0.
  const YBoundTable* ybound = nullptr;
  /// The engine every round walks on. Fresh: the run's walk_steps and
  /// barrier counts are read off its counters.
  BackwardWalkerBatch* batch = nullptr;
  /// Per-target resumable states, slot i for Q[i]; null runs the
  /// restart schedule. A slot already at or past a round's level is
  /// scored from its stored row at its own level, which is valid and
  /// tighter (DESIGN.md §6). A caller that seeds no states never hits
  /// that case.
  BackwardBatchStates* states = nullptr;
  /// Retune `states` between rounds; only for an autotuned budget.
  bool retune_states = false;
  /// The caller takes `states` back after the run: pruned targets keep
  /// their resumable states and the final pass saves its states row-only
  /// (SaveStates::kRowOnly: depth d is final, so only the row is ever
  /// read again). Off, a pruned target's state is freed at once and the
  /// final pass saves none.
  bool keep_states = false;
};

/// Algorithm 2's deepening schedule (see file comment) over `parts`,
/// on inputs ValidateJoinInputs accepted. `exec` governs the run as in
/// BIdjJoin::Options::exec; it also carries the trace, under which
/// every round opens a "round" span and the exact pass a "final" span.
/// Adds the rounds' walk work to `stats` (walk_steps, walks_started,
/// the per-iteration vectors) and sets its state, barrier, lifecycle
/// and partial fields.
Result<std::vector<ScoredPair>> RunBIdjSchedule(const DhtParams& params,
                                                int d, const NodeSet& P,
                                                const NodeSet& Q,
                                                std::size_t k,
                                                const BIdjScheduleParts& parts,
                                                const ExecContext* exec,
                                                TwoWayJoinStats* stats);

class BIdjJoin final : public TwoWayJoin {
 public:
  struct Options {
    UpperBoundKind bound = UpperBoundKind::kY;
    /// Resume per-target walk states across deepening levels. Off: the
    /// restart schedule (bit-identical output, strictly more steps).
    bool resume = true;
    /// Byte budget for the per-target states; evictions restart. 0 means
    /// autotune from graph size (AutotuneStateBudgetBytes).
    std::size_t state_budget_bytes = 0;
    /// Optional query lifecycle (util/deadline.h): deadline, cancel
    /// token, effort budget. Must outlive Run(). A hard stop (cancel)
    /// returns Status{kCancelled}; a soft stop (deadline / effort)
    /// degrades at the last completed deepening level and reports
    /// stats().partial (DESIGN.md §9). Null = run to completion.
    const ExecContext* exec = nullptr;
  };

  BIdjJoin() = default;
  explicit BIdjJoin(Options options) : options_(options) {}

  std::string Name() const override {
    return options_.bound == UpperBoundKind::kY ? "B-IDJ-Y" : "B-IDJ-X";
  }

  Result<std::vector<ScoredPair>> Run(const Graph& g, const DhtParams& params,
                                      int d, const NodeSet& P,
                                      const NodeSet& Q,
                                      std::size_t k) override;

 private:
  Options options_;
};

}  // namespace dhtjoin

#endif  // DHTJOIN_JOIN2_B_IDJ_H_
