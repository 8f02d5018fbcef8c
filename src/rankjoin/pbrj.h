/// \file rankjoin/pbrj.h
/// \brief Pull/Bound Rank Join over sorted pair streams (paper Sec IV).
///
/// The engine the paper plugs into AP and PJ: given one descending-score
/// stream of node pairs per query-graph edge, it pulls pairs round-robin
/// (the HRJN strategy), buffers them (CandidateBuffer), expands each new
/// pair into complete candidate n-tuples (getCandidate, paper Fig. 4),
/// and stops once the k best tuples found so far dominate the HRJN
/// corner-bound threshold tau.
///
/// The module is independent of DHT: attributes are opaque positions,
/// streams are an abstract interface, and the aggregate is any monotone
/// f. core/ wires the paper's algorithms (AP, PJ, PJ-i) to it.

#ifndef DHTJOIN_RANKJOIN_PBRJ_H_
#define DHTJOIN_RANKJOIN_PBRJ_H_

#include <optional>
#include <vector>

#include "join2/two_way_join.h"
#include "rankjoin/aggregate.h"
#include "rankjoin/candidate_buffer.h"
#include "util/status.h"
#include "util/top_k.h"

namespace dhtjoin {

/// A sorted (descending score) stream of 2-way join results.
class PairStream {
 public:
  virtual ~PairStream() = default;

  /// Next pair; nullopt once exhausted (and forever after).
  virtual std::optional<ScoredPair> Next() = 0;
};

/// One query-graph edge, as attribute positions in the output tuple.
struct JoinEdge {
  int left;   ///< attribute index of the source node set
  int right;  ///< attribute index of the target node set
};

/// A complete candidate answer (paper Def. 3) with its aggregate score.
struct TupleAnswer {
  std::vector<NodeId> nodes;        ///< one node per attribute
  std::vector<double> edge_scores;  ///< DHT score per query edge
  double f = 0.0;                   ///< aggregate of edge_scores
};

/// Descending f, ties by node vector ascending — library-wide order.
bool TupleAnswerGreater(const TupleAnswer& a, const TupleAnswer& b);

/// Tie policy for TopK<TupleAnswer>: among equal aggregates the
/// lexicographically smaller node vector outranks, so the retained set
/// at a tied k-th boundary does not depend on enumeration order (the
/// tuple analogue of ScoredPairPrefer in join2/two_way_join.h).
struct TupleAnswerPrefer {
  bool operator()(const TupleAnswer& a, const TupleAnswer& b) const {
    return a.nodes < b.nodes;
  }
  /// Ranks a candidate's node vector against a built answer, so
  /// TopK::Rejects can test a candidate before the answer is built.
  bool operator()(const std::vector<NodeId>& nodes,
                  const TupleAnswer& b) const {
    return nodes < b.nodes;
  }
};

/// The output heap of the n-way joins: top-k by f, ties by node vector.
using TupleTopK = TopK<TupleAnswer, TupleAnswerPrefer>;

/// Counters from one rank-join run.
struct PbrjStats {
  std::vector<int64_t> pulls_per_edge;  ///< pairs consumed per stream
  int64_t tuples_generated = 0;         ///< candidate answers formed
  /// Candidates f was applied to: tuples_generated less those a scan
  /// skipped because none could enter the top k (Pbrj::ScanChain).
  int64_t candidates_scored = 0;
  double final_threshold = 0.0;  ///< tau at termination
};

/// Which stream the engine pulls from next.
enum class PullStrategy {
  /// Cycle through the streams (plain HRJN; the paper's configuration).
  kRoundRobin,
  /// Pull from the stream whose corner currently defines tau (HRJN*):
  /// the only pull that can lower the threshold.
  kAdaptive,
};

/// The Pull/Bound Rank Join engine.
class Pbrj {
 public:
  struct Options {
    PullStrategy strategy = PullStrategy::kRoundRobin;
  };

  /// \param num_attrs  number of node sets n (tuple arity).
  /// \param edges      query-graph edges over attribute indices.
  /// \param aggregate  monotone f (not owned; must outlive Run).
  /// \param k          result count.
  Pbrj(int num_attrs, std::vector<JoinEdge> edges,
       const Aggregate* aggregate, std::size_t k, Options options);
  Pbrj(int num_attrs, std::vector<JoinEdge> edges,
       const Aggregate* aggregate, std::size_t k);

  /// Drives the streams to completion. `streams` supplies one stream per
  /// edge, in the same order as `edges`; entries are not owned. A stream
  /// must never raise its score (NaN counts as a rise) nor repeat a
  /// pair: the corner bound and ScanChain's stop rest on that. Run
  /// returns Status::Internal, naming the edge, on the first pull that
  /// breaks it.
  Result<std::vector<TupleAnswer>> Run(
      const std::vector<PairStream*>& streams);

  const PbrjStats& stats() const { return stats_; }

 private:
  /// Expands the newly pulled pair of edge `edge_index` into every
  /// complete tuple it participates in (paper's getCandidate) and offers
  /// each to `output` as it completes. A candidate lives only in the
  /// scratch bindings_ / edge_scores_ while it is scored and tested with
  /// TopK::Rejects; a TupleAnswer is built only for one the heap keeps.
  /// The heap sees the same offers in the same order as if every
  /// candidate were built, so the answer bytes do not change. A last
  /// step that scans a chain stops early (ScanChain); the candidates it
  /// skips are ones the heap would reject.
  void ExpandCandidates(std::size_t edge_index, const ScoredPair& pair,
                        TupleTopK& output);

  /// Shared constructor body (expansion-order precompute).
  void Init();

  void ExpandRec(const std::vector<std::size_t>& order, std::size_t depth,
                 TupleTopK& output);

  /// Binds attribute `attr` to each pair of `chain` in turn (its left
  /// endpoint when `bind_left`, else its right), sets edge `e`'s score,
  /// and expands on. When this is the last step every candidate is
  /// complete, and the scan stops at the first one whose f is strictly
  /// below the k-th key: the chain is in pull order, so its scores never
  /// rise; f is monotone; and the k-th key only rises. So Offer would
  /// reject every candidate skipped. They still count in
  /// tuples_generated, not in candidates_scored.
  void ScanChain(CandidateBuffer::Chain chain, std::size_t e,
                 std::size_t attr, bool bind_left,
                 const std::vector<std::size_t>& order, std::size_t depth,
                 TupleTopK& output);

  /// Scores the complete candidate in bindings_ / edge_scores_ and
  /// offers it. Returns false when its f is strictly below the k-th key.
  bool ScoreCandidate(TupleTopK& output);

  /// Recomputes edge `e`'s HRJN corner f(top_1, ..., last_e, ..., top_n).
  /// The tops are fixed once every stream is primed, so a pull moves
  /// only the pulled edge's corner.
  void RefreshCorner(std::size_t e);

  /// HRJN corner bound tau: the largest corner among edges with unseen
  /// pairs left, an upper bound on the score of any tuple not yet
  /// generated (valid for monotone f over descending streams). Sets
  /// `arg_edge` to the first edge attaining it (the adaptive pull
  /// target), or SIZE_MAX when every stream is exhausted.
  double CornerBound(std::size_t* arg_edge) const;

  int num_attrs_;
  std::vector<JoinEdge> edges_;
  const Aggregate* aggregate_;
  std::size_t k_;
  Options options_;

  // Expansion order of the remaining edges for each starting edge,
  // precomputed so each step shares an endpoint with covered attributes
  // whenever the query graph allows it.
  std::vector<std::vector<std::size_t>> expand_order_;

  std::vector<CandidateBuffer> buffers_;
  std::vector<double> top_score_;     // first pulled score per edge
  std::vector<double> last_score_;    // latest pulled score (+inf before)
  std::vector<double> corner_bound_;  // RefreshCorner's result per edge
  std::vector<bool> exhausted_;

  // Per-run scratch, reused on every pull: the candidate being expanded
  // (one node per attribute, one score per edge) and the corner-bound
  // inputs.
  std::vector<NodeId> bindings_;
  std::vector<double> edge_scores_;
  std::vector<double> corner_;

  PbrjStats stats_;
};

}  // namespace dhtjoin

#endif  // DHTJOIN_RANKJOIN_PBRJ_H_
