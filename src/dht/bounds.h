/// \file dht/bounds.h
/// \brief Upper-bound functions for the IDJ pruning framework.
///
/// Both B-IDJ variants bound the unseen remainder of the DHT series
/// after an l-step walk (paper Sec VI-C):
///
///  * X bound (Lemma 2):   X_l^+ = alpha * lambda^(l+1) / (1 - lambda)
///    — pair-independent, free to compute, loose at large lambda.
///
///  * Y bound (Theorem 1): Y_l^+(P, q) =
///        alpha * sum_{i=l+1..d} lambda^i * min(S_i(P, q), 1)
///    where S_i(P, q) = sum_{p in P} S_i(p, q) and S_i(p, q) is the
///    probability that a NON-absorbing walk from p occupies q at step i.
///    One d-step sweep from all of P yields S_i(P, q) for every q;
///    Y is per-target, tighter (Lemma 5: Y <= X), and the reason
///    B-IDJ-Y prunes where B-IDJ-X cannot (paper Fig. 10(b)).

#ifndef DHTJOIN_DHT_BOUNDS_H_
#define DHTJOIN_DHT_BOUNDS_H_

#include <vector>

#include "dht/params.h"
#include "graph/graph.h"
#include "graph/node_set.h"
#include "util/deadline.h"

namespace dhtjoin {

/// X_l^+ of Lemma 2. Equivalent to params.XBound(l); provided as a free
/// function to mirror YBoundTable::Bound.
double XUpperBound(const DhtParams& params, int l);

/// Precomputed Y_l^+(P, q) for all q in Q and all l in [0, d].
class YBoundTable {
 public:
  /// Runs the d-step non-absorbing sweep from all of P on one lane of
  /// the frontier-adaptive walk engine (dht/batch_core.h, forward
  /// direction) — O(d * |E|) worst case, output-sensitive when the
  /// sweep mass stays local — and builds per-q suffix sums
  /// (O(d * |Q|) space).
  ///
  /// When `exec` is set, the sweep polls exec->Check() once per step
  /// (the construction's level boundary). A stop abandons the sweep:
  /// complete() turns false and Bound() must not be used — the caller
  /// degrades with the pair-independent X bound instead (DESIGN.md §9).
  YBoundTable(const Graph& g, const DhtParams& params, int d,
              const NodeSet& P, const NodeSet& Q,
              const ExecContext* exec = nullptr);

  /// False when construction was abandoned by a cooperative stop.
  bool complete() const { return complete_; }

  /// Edges actually relaxed by the construction sweep — the real cost
  /// to charge to TwoWayJoinStats::walk_steps (a flat d * |E| would
  /// overcount whenever the adaptive engine ran sparse steps).
  int64_t edges_relaxed() const { return edges_relaxed_; }

  /// Y_l^+(P, q) where `q_index` is the position of q within Q.
  /// Valid for 0 <= l <= d (Bound(d, .) == 0).
  double Bound(int l, std::size_t q_index) const {
    DHTJOIN_DCHECK(q_index < per_q_suffix_.size());
    DHTJOIN_DCHECK(l >= 0 && l <= d_);
    return per_q_suffix_[q_index][static_cast<std::size_t>(l)];
  }

  int d() const { return d_; }

  /// The persisted representation (serve/warm_state.cc): suffix rows
  /// per target, [qi][l] = Y_l^+(P, q), length d+1, entry [d] = 0.
  /// Only meaningful for complete() tables.
  const std::vector<std::vector<double>>& suffix_rows() const {
    return per_q_suffix_;
  }

  /// Reassembles a COMPLETE table from persisted suffix rows — the
  /// exact doubles of the construction sweep, so a warm-restored bound
  /// prunes bit-identically to the one it was saved from. Caller
  /// guarantees each row has length d+1 (the snapshot decoder checks).
  static YBoundTable FromSuffixRows(
      int d, int64_t edges_relaxed,
      std::vector<std::vector<double>> per_q_suffix) {
    YBoundTable table;
    table.d_ = d;
    table.complete_ = true;
    table.edges_relaxed_ = edges_relaxed;
    table.per_q_suffix_ = std::move(per_q_suffix);
    return table;
  }

 private:
  YBoundTable() : d_(0) {}

  int d_;
  bool complete_ = true;
  int64_t edges_relaxed_ = 0;
  // per_q_suffix_[qi][l] = Y_l^+(P, q); length d+1, entry [d] = 0.
  std::vector<std::vector<double>> per_q_suffix_;
};

}  // namespace dhtjoin

#endif  // DHTJOIN_DHT_BOUNDS_H_
