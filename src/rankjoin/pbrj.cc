#include "rankjoin/pbrj.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>

namespace dhtjoin {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
constexpr double kPosInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kNoEdge = static_cast<std::size_t>(-1);

/// A score in a status message, to the last bit.
std::string FormatScore(double score) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", score);
  return buf;
}
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
    ScoreCandidate(output);
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
    ScanChain(buf.ByLeft(lb), e, right_attr, /*bind_left=*/false, order,
              depth, output);
    return;
  }
  if (rb != kInvalidNode) {
    ScanChain(buf.ByRight(rb), e, left_attr, /*bind_left=*/true, order,
              depth, output);
    return;
  }
  // Disconnected query graph: no endpoint bound yet.
  for (const CandidateBuffer::Entry& entry : buf.All()) {
    bindings_[left_attr] = entry.pair.p;
    bindings_[right_attr] = entry.pair.q;
    edge_scores_[e] = entry.pair.score;
    ExpandRec(order, depth + 1, output);
  }
  bindings_[left_attr] = kInvalidNode;
  bindings_[right_attr] = kInvalidNode;
}

void Pbrj::ScanChain(CandidateBuffer::Chain chain, std::size_t e,
                     std::size_t attr, bool bind_left,
                     const std::vector<std::size_t>& order,
                     std::size_t depth, TupleTopK& output) {
  const bool last = depth + 1 == order.size();
  std::size_t unscanned = chain.size();
  for (const ScoredPair& entry : chain) {
    bindings_[attr] = bind_left ? entry.p : entry.q;
    edge_scores_[e] = entry.score;
    --unscanned;
    if (!last) {
      ExpandRec(order, depth + 1, output);
      continue;
    }
    stats_.tuples_generated++;
    if (!ScoreCandidate(output)) {
      stats_.tuples_generated += static_cast<int64_t>(unscanned);
      break;
    }
  }
  bindings_[attr] = kInvalidNode;
}

bool Pbrj::ScoreCandidate(TupleTopK& output) {
  stats_.candidates_scored++;
  const double f = aggregate_->Apply(edge_scores_);
  if (f < output.Threshold()) return false;
  if (!output.Rejects(f, bindings_)) {
    output.Offer(f, TupleAnswer{bindings_, edge_scores_, f});
  }
  return true;
}

void Pbrj::RefreshCorner(std::size_t e) {
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    corner_[i] = i == e ? last_score_[i] : top_score_[i];
  }
  corner_bound_[e] = aggregate_->Apply(corner_);
}

double Pbrj::CornerBound(std::size_t* arg_edge) const {
  double tau = kNegInf;
  *arg_edge = kNoEdge;
  for (std::size_t e = 0; e < edges_.size(); ++e) {
    if (exhausted_[e]) continue;  // no unseen pair can come from e
    if (corner_bound_[e] > tau || *arg_edge == kNoEdge) {
      tau = std::max(tau, corner_bound_[e]);
      *arg_edge = e;
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
  last_score_.assign(edges_.size(), kPosInf);
  corner_bound_.assign(edges_.size(), kNegInf);
  exhausted_.assign(edges_.size(), false);
  bindings_.assign(static_cast<std::size_t>(num_attrs_), kInvalidNode);
  edge_scores_.assign(edges_.size(), 0.0);
  corner_.assign(edges_.size(), 0.0);
  stats_ = PbrjStats();
  stats_.pulls_per_edge.assign(edges_.size(), 0);

  // TupleAnswerPrefer keeps the retained set at a tied k-th boundary
  // enumeration-order independent, matching NL and the 2-way joins.
  TupleTopK output(k_);

  // A pull that breaks the stream contract Run documents.
  auto broken = [&](std::size_t e, const std::string& what) {
    return Status::Internal(
        "rank join: the stream of edge " + std::to_string(e) +
        " (attribute " + std::to_string(edges_[e].left) + " -> " +
        std::to_string(edges_[e].right) + ") " + what);
  };
  auto pull = [&](std::size_t e) -> Status {
    auto pair = streams[e]->Next();
    if (!pair.has_value()) {
      exhausted_[e] = true;
      return Status::OK();
    }
    if (!(pair->score <= last_score_[e])) {
      return broken(e, "rose from " + FormatScore(last_score_[e]) + " to " +
                           FormatScore(pair->score));
    }
    if (!buffers_[e].Insert(pair->p, pair->q, pair->score)) {
      return broken(e, "repeated the pair (" + std::to_string(pair->p) +
                           ", " + std::to_string(pair->q) + ")");
    }
    if (stats_.pulls_per_edge[e]++ == 0) top_score_[e] = pair->score;
    last_score_[e] = pair->score;
    ExpandCandidates(e, *pair, output);
    return Status::OK();
  };

  // Prime every stream once so top_1 scores exist for the corner bound.
  // An edge with no pairs at all means no complete tuple can exist.
  bool any_empty = false;
  for (std::size_t e = 0; e < edges_.size(); ++e) {
    DHTJOIN_RETURN_NOT_OK(pull(e));
    any_empty = any_empty || exhausted_[e];
  }
  if (!any_empty) {
    for (std::size_t e = 0; e < edges_.size(); ++e) RefreshCorner(e);
  }

  std::size_t rr = 0;
  while (!any_empty) {
    std::size_t corner_edge = kNoEdge;
    const double tau = CornerBound(&corner_edge);
    stats_.final_threshold = tau;
    // Stop once k answers are held and none below tau (Alg. 1 Step 6).
    if (output.size() >= k_ && output.MinKey() >= tau) break;
    if (corner_edge == kNoEdge) break;  // every stream exhausted
    std::size_t e = corner_edge;
    if (options_.strategy != PullStrategy::kAdaptive) {
      // Round-robin over non-exhausted streams (plain HRJN). HRJN*
      // pulls the stream whose corner defines tau instead: the only
      // pull that can lower the threshold.
      while (exhausted_[rr]) rr = (rr + 1) % edges_.size();
      e = rr;
      rr = (rr + 1) % edges_.size();
    }
    DHTJOIN_RETURN_NOT_OK(pull(e));
    if (!exhausted_[e]) RefreshCorner(e);
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
