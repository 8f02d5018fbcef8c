#include "rankjoin/pbrj.h"

#include <algorithm>
#include <limits>

namespace dhtjoin {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
constexpr double kPosInf = std::numeric_limits<double>::infinity();
}  // namespace

bool TupleAnswerGreater(const TupleAnswer& a, const TupleAnswer& b) {
  if (a.f != b.f) return a.f > b.f;
  return a.nodes < b.nodes;
}

Pbrj::Pbrj(int num_attrs, std::vector<JoinEdge> edges,
           const Aggregate* aggregate, std::size_t k, Options options)
    : num_attrs_(num_attrs),
      edges_(std::move(edges)),
      aggregate_(aggregate),
      k_(k),
      options_(options) {
  Init();
}

Pbrj::Pbrj(int num_attrs, std::vector<JoinEdge> edges,
           const Aggregate* aggregate, std::size_t k)
    : Pbrj(num_attrs, std::move(edges), aggregate, k, Options{}) {}

void Pbrj::Init() {
  DHTJOIN_CHECK_GT(num_attrs_, 0);
  DHTJOIN_CHECK(!edges_.empty());
  DHTJOIN_CHECK(aggregate_ != nullptr);
  DHTJOIN_CHECK_GT(k_, 0u);
  for (const JoinEdge& e : edges_) {
    DHTJOIN_CHECK(e.left >= 0 && e.left < num_attrs_);
    DHTJOIN_CHECK(e.right >= 0 && e.right < num_attrs_);
    DHTJOIN_CHECK_NE(e.left, e.right);
  }

  // Precompute, per starting edge, an order of the other edges in which
  // each edge touches an already-covered attribute whenever possible
  // (BFS over the query graph); uncoverable edges (disconnected query
  // graph) fall back to full-buffer enumeration during expansion.
  expand_order_.resize(edges_.size());
  for (std::size_t e0 = 0; e0 < edges_.size(); ++e0) {
    std::vector<bool> used(edges_.size(), false);
    used[e0] = true;
    std::vector<bool> covered(static_cast<std::size_t>(num_attrs_), false);
    covered[static_cast<std::size_t>(edges_[e0].left)] = true;
    covered[static_cast<std::size_t>(edges_[e0].right)] = true;
    auto& order = expand_order_[e0];
    while (order.size() + 1 < edges_.size()) {
      std::size_t pick = edges_.size();
      for (std::size_t e = 0; e < edges_.size(); ++e) {
        if (used[e]) continue;
        bool touches =
            covered[static_cast<std::size_t>(edges_[e].left)] ||
            covered[static_cast<std::size_t>(edges_[e].right)];
        if (touches) {
          pick = e;
          break;
        }
        if (pick == edges_.size()) pick = e;  // fallback: disconnected
      }
      used[pick] = true;
      covered[static_cast<std::size_t>(edges_[pick].left)] = true;
      covered[static_cast<std::size_t>(edges_[pick].right)] = true;
      order.push_back(pick);
    }
  }
}

void Pbrj::ExpandCandidates(std::size_t edge_index, const ScoredPair& pair,
                            TupleTopK& output) {
  const auto left_attr = static_cast<std::size_t>(edges_[edge_index].left);
  const auto right_attr = static_cast<std::size_t>(edges_[edge_index].right);
  bindings_[left_attr] = pair.p;
  bindings_[right_attr] = pair.q;
  edge_scores_[edge_index] = pair.score;
  ExpandRec(expand_order_[edge_index], 0, output);
  bindings_[left_attr] = kInvalidNode;
  bindings_[right_attr] = kInvalidNode;
}

void Pbrj::ExpandRec(const std::vector<std::size_t>& order,
                     std::size_t depth, TupleTopK& output) {
  if (depth == order.size()) {
    stats_.tuples_generated++;
    const double f = aggregate_->Apply(edge_scores_);
    if (!output.Rejects(f, bindings_)) {
      output.Offer(f, TupleAnswer{bindings_, edge_scores_, f});
    }
    return;
  }
  const std::size_t e = order[depth];
  const auto left_attr = static_cast<std::size_t>(edges_[e].left);
  const auto right_attr = static_cast<std::size_t>(edges_[e].right);
  const NodeId lb = bindings_[left_attr];
  const NodeId rb = bindings_[right_attr];
  const CandidateBuffer& buf = buffers_[e];

  if (lb != kInvalidNode && rb != kInvalidNode) {
    auto score = buf.Lookup(lb, rb);
    if (!score.has_value()) return;  // partial answer cannot complete
    edge_scores_[e] = *score;
    ExpandRec(order, depth + 1, output);
    return;
  }
  if (lb != kInvalidNode) {
    for (const ScoredPair& entry : buf.ByLeft(lb)) {
      bindings_[right_attr] = entry.q;
      edge_scores_[e] = entry.score;
      ExpandRec(order, depth + 1, output);
    }
    bindings_[right_attr] = kInvalidNode;
    return;
  }
  if (rb != kInvalidNode) {
    for (const ScoredPair& entry : buf.ByRight(rb)) {
      bindings_[left_attr] = entry.p;
      edge_scores_[e] = entry.score;
      ExpandRec(order, depth + 1, output);
    }
    bindings_[left_attr] = kInvalidNode;
    return;
  }
  // Disconnected query graph: no endpoint bound yet.
  for (const ScoredPair& entry : buf.All()) {
    bindings_[left_attr] = entry.p;
    bindings_[right_attr] = entry.q;
    edge_scores_[e] = entry.score;
    ExpandRec(order, depth + 1, output);
  }
  bindings_[left_attr] = kInvalidNode;
  bindings_[right_attr] = kInvalidNode;
}

double Pbrj::CornerBound(std::size_t* arg_edge) {
  // tau = max over edges e (with unseen pairs remaining) of
  //   f(top_1, ..., last_e, ..., top_1)
  // — an upper bound on the score of any tuple not yet generated, valid
  // for monotone f over descending streams (HRJN corner bound).
  double tau = kNegInf;
  if (arg_edge != nullptr) *arg_edge = static_cast<std::size_t>(-1);
  for (std::size_t e = 0; e < edges_.size(); ++e) {
    if (exhausted_[e]) continue;  // no unseen pair can come from e
    for (std::size_t i = 0; i < edges_.size(); ++i) {
      if (i == e) {
        corner_[i] = pulled_any_[i] ? last_score_[i] : kPosInf;
      } else {
        corner_[i] = pulled_any_[i] ? top_score_[i] : kPosInf;
      }
    }
    double bound = aggregate_->Apply(corner_);
    if (bound > tau || (arg_edge != nullptr &&
                        *arg_edge == static_cast<std::size_t>(-1))) {
      tau = std::max(tau, bound);
      if (arg_edge != nullptr) *arg_edge = e;
    }
  }
  return tau;
}

Result<std::vector<TupleAnswer>> Pbrj::Run(
    const std::vector<PairStream*>& streams) {
  if (streams.size() != edges_.size()) {
    return Status::InvalidArgument(
        "expected " + std::to_string(edges_.size()) + " streams, got " +
        std::to_string(streams.size()));
  }
  for (PairStream* s : streams) {
    if (s == nullptr) return Status::InvalidArgument("null stream");
  }

  buffers_.assign(edges_.size(), CandidateBuffer());
  top_score_.assign(edges_.size(), kNegInf);
  last_score_.assign(edges_.size(), kNegInf);
  exhausted_.assign(edges_.size(), false);
  pulled_any_.assign(edges_.size(), false);
  bindings_.assign(static_cast<std::size_t>(num_attrs_), kInvalidNode);
  edge_scores_.assign(edges_.size(), 0.0);
  corner_.assign(edges_.size(), 0.0);
  stats_ = PbrjStats();
  stats_.pulls_per_edge.assign(edges_.size(), 0);

  // TupleAnswerPrefer keeps the retained set at a tied k-th boundary
  // enumeration-order independent, matching NL and the 2-way joins.
  TupleTopK output(k_);

  auto pull = [&](std::size_t e) {
    auto pair = streams[e]->Next();
    if (!pair.has_value()) {
      exhausted_[e] = true;
      return;
    }
    stats_.pulls_per_edge[e]++;
    if (!pulled_any_[e]) {
      pulled_any_[e] = true;
      top_score_[e] = pair->score;
    }
    last_score_[e] = pair->score;
    buffers_[e].Insert(pair->p, pair->q, pair->score);
    ExpandCandidates(e, *pair, output);
  };

  // Prime every stream once so top_1 scores exist for the corner bound.
  for (std::size_t e = 0; e < edges_.size(); ++e) pull(e);

  // An edge with no pairs at all means no complete tuple can exist.
  bool any_empty = false;
  for (std::size_t e = 0; e < edges_.size(); ++e) {
    if (exhausted_[e] && !pulled_any_[e]) any_empty = true;
  }

  std::size_t rr = 0;
  while (!any_empty) {
    bool all_exhausted = true;
    for (std::size_t e = 0; e < edges_.size(); ++e) {
      if (!exhausted_[e]) all_exhausted = false;
    }
    std::size_t corner_edge = static_cast<std::size_t>(-1);
    double tau = CornerBound(&corner_edge);
    stats_.final_threshold = tau;
    // Stop once k answers are held and none below tau (Alg. 1 Step 6).
    if (output.size() >= k_ && output.MinKey() >= tau) break;
    if (all_exhausted) break;
    if (options_.strategy == PullStrategy::kAdaptive &&
        corner_edge != static_cast<std::size_t>(-1)) {
      // HRJN*: pull the stream whose corner defines tau — the only pull
      // that can lower the threshold.
      pull(corner_edge);
    } else {
      // Round-robin over non-exhausted streams (plain HRJN).
      while (exhausted_[rr]) rr = (rr + 1) % edges_.size();
      pull(rr);
      rr = (rr + 1) % edges_.size();
    }
  }

  // The heap holds at most k answers and hands them back in
  // TupleAnswerGreater order: its key is f and its tie policy is the
  // same node-vector order.
  std::vector<TupleAnswer> result;
  for (auto& entry : output.TakeSortedDescending()) {
    result.push_back(std::move(entry.item));
  }
  return result;
}

}  // namespace dhtjoin
