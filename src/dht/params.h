/// \file dht/params.h
/// \brief The general form of discounted hitting time (paper Def. 5).
///
/// Both published DHT variants are instances of
///   h(u, v) = alpha * sum_{i>=1} lambda^i P_i(u, v) + beta
/// where P_i(u, v) is the probability that a random walk from u FIRST
/// hits v at step i (paper Table II):
///
///   DHTe      (Guan et al., SIGMOD'11):  alpha = e,       beta = 0,
///                                        lambda = 1/e
///   DHTlambda (Sarkar/Moore, KDD'10):    alpha = 1/(1-l), beta = -1/(1-l),
///                                        lambda = l
///
/// In practice the series is truncated at d steps (Eq. 4):
///   h_d(u, v) = alpha * sum_{i=1..d} lambda^i P_i(u, v) + beta ,
/// and Lemma 1 gives the smallest d with |h - h_d| <= epsilon.
///
/// Note that h_d is monotone increasing in d (alpha > 0 for both
/// variants), has floor beta (unreachable pair) and ceiling
/// beta + alpha*lambda/(1-lambda). For DHTlambda all scores are negative.

#ifndef DHTJOIN_DHT_PARAMS_H_
#define DHTJOIN_DHT_PARAMS_H_

#include <cstdint>

#include "util/status.h"

namespace dhtjoin {

/// Coefficients (alpha, beta, lambda) of the general DHT form.
///
/// The same engine also evaluates the paper's future-work measure:
/// with `first_hit = false` the per-step probability P_i is replaced by
/// the VISITING probability S_i (non-absorbing walk), which turns the
/// general form into Personalized PageRank:
///   PPR(u, v) = (1-c) * sum_{i>=1} c^i S_i(u, v)   for u != v
/// (alpha = 1-c, lambda = c, beta = 0). Every join algorithm and both
/// remainder bounds remain valid: S_i <= 1 covers X_l^+, and Theorem 1's
/// sweep already computes S_i(P, q).
struct DhtParams {
  double alpha = 1.25;
  double beta = -1.25;
  double lambda = 0.2;
  /// True: first-hit semantics (DHT). False: visiting semantics (PPR).
  bool first_hit = true;

  /// DHTlambda with decay factor `lambda` in (0, 1) — the paper's default
  /// measure (default lambda = 0.2 gives alpha = 1.25, beta = -1.25).
  static DhtParams Lambda(double lambda = 0.2);

  /// DHTe: alpha = e, beta = 0, lambda = 1/e.
  static DhtParams Exponential();

  /// Personalized PageRank with continuation probability `c` in (0, 1)
  /// (restart probability 1-c). The paper's conclusion names PPR as the
  /// next measure to support; see the class comment.
  static DhtParams PersonalizedPageRank(double c = 0.85);

  /// OK iff alpha > 0 and lambda in (0, 1).
  /// (The general form only requires alpha != 0, but every algorithm in
  /// the paper relies on h_d increasing in d, i.e. alpha > 0; both
  /// published variants satisfy this.)
  Status Validate() const;

  /// Lemma 1: smallest d such that |h(u,v) - h_d(u,v)| <= epsilon,
  ///   d >= log_lambda( epsilon * (1 - lambda) / (alpha * lambda) ).
  /// Paper default epsilon = 1e-6 with DHTlambda(0.2) yields d = 8.
  int StepsForEpsilon(double epsilon) const;

  /// Lemma 2 remainder bound:
  ///   X_l^+ = alpha * lambda^(l+1) / (1 - lambda),
  /// an upper bound on h(u,v) - h_l(u,v) for any pair.
  double XBound(int l) const;

  /// Largest attainable truncated score: beta + alpha*lambda (a walker
  /// that hits at step 1 with probability 1).
  double MaxScore() const { return beta + alpha * lambda; }

  /// Score of an unreachable pair (the floor of h_d).
  double FloorScore() const { return beta; }
};

/// Content fingerprint of a measure configuration: the parameter double
/// bits, the first-hit flag and the truncation depth d. Checkpoints
/// (serve/session.h) and the cluster handshake (cluster/wire.h) carry
/// it next to the graph fingerprint, so state computed under another
/// measure is never loaded or routed to. Stable across builds: a
/// changed value makes every existing checkpoint load cold.
uint64_t ParamsFingerprint(const DhtParams& params, int d);

}  // namespace dhtjoin

#endif  // DHTJOIN_DHT_PARAMS_H_
