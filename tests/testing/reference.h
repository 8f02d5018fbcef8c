/// \file tests/testing/reference.h
/// \brief Independent ground-truth oracles, graph fixtures and
/// byte-exact answer comparisons for tests.
///
/// RefFirstHitProb enumerates every walk explicitly (exponential in d;
/// only for tiny graphs) — a genuinely independent check of both
/// directions of the walk engine. RefVisitSweep is the Y bound's
/// S_i(P, q) sweep, RefForwardSweep the forward walk of one pair and
/// RefBackwardSweep the backward first-hit walk, all as plain loops
/// over the out-edge lists. RefTwoWayJoin and
/// RefNwayJoin are brute-force joins on RefBackwardSweep, so they share
/// no code with the engines they judge, and RefBIdjLive replays
/// Algorithm 2's pruning on it. ExpectSamePairs and ExpectSameTuples
/// compare answers byte for byte, ExpectSameSnapshot saved walk states.

#ifndef DHTJOIN_TESTS_TESTING_REFERENCE_H_
#define DHTJOIN_TESTS_TESTING_REFERENCE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "dht/backward_batch.h"
#include "dht/bounds.h"
#include "dht/params.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "graph/node_set.h"
#include "graph/reorder.h"
#include "join2/two_way_join.h"
#include "rankjoin/aggregate.h"
#include "rankjoin/pbrj.h"
#include "util/check.h"
#include "util/rng.h"

namespace dhtjoin::testing {

/// Probability that a walk from `u` FIRST hits `v` at exactly step `i`,
/// by explicit enumeration of all walks (exponential; tiny graphs only).
inline double RefFirstHitProb(const Graph& g, NodeId u, NodeId v, int i) {
  DHTJOIN_CHECK_GE(i, 1);
  // u and v are EXTERNAL ids; rows are layout-addressed, so translate
  // on the way in and out — the oracle is layout-independent.
  // When u == v the result is the first-RETURN probability; the start
  // node does not count as a hit, so the recursion below covers it.
  double total = 0.0;
  for (const OutEdge& e : g.OutEdges(g.ToInternal(ExtNodeId(u)))) {
    const NodeId to = g.ToExternal(IntNodeId(e.to)).value();
    if (i == 1) {
      if (to == v) total += e.prob;
    } else if (to != v) {
      total += e.prob * RefFirstHitProb(g, to, v, i - 1);
    }
  }
  return total;
}

/// Truncated DHT h_d(u, v) from the path oracle.
inline double RefHd(const Graph& g, const DhtParams& params, int d, NodeId u,
                    NodeId v) {
  double score = params.beta;
  double lp = 1.0;
  for (int i = 1; i <= d; ++i) {
    lp *= params.lambda;
    score += params.alpha * lp * RefFirstHitProb(g, u, v, i);
  }
  return score;
}

/// The Y bound's visiting sweep (Theorem 1), naively: out[i-1][v] =
/// S_i(P, v), the probability that a NON-absorbing walk started at
/// every node of P (unit mass each; duplicates count once) occupies v
/// at step i, for i = 1..d — indexed by EXTERNAL id. Plain loops over
/// the edge list, no engine code: each step pushes from sources in
/// ascending external id, so every destination adds its terms in the
/// canonical order the engines promise (DESIGN.md §3) — and an engine
/// that keeps that promise matches bit for bit.
inline std::vector<std::vector<double>> RefVisitSweep(const Graph& g,
                                                      const NodeSet& P,
                                                      int d) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  std::vector<double> cur(n, 0.0);
  for (ExtNodeId p : P) cur[static_cast<std::size_t>(p.value())] = 1.0;
  std::vector<std::vector<double>> out;
  for (int i = 1; i <= d; ++i) {
    std::vector<double> next(n, 0.0);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      const double m = cur[static_cast<std::size_t>(u)];
      if (m == 0.0) continue;
      for (const OutEdge& e : g.OutEdges(g.ToInternal(ExtNodeId(u)))) {
        const NodeId v = g.ToExternal(IntNodeId(e.to)).value();
        next[static_cast<std::size_t>(v)] += m * e.prob;
      }
    }
    out.push_back(next);
    cur = std::move(next);
  }
  return out;
}

/// The forward walk from `u` absorbed at `v` as plain loops: h_d(u, v)
/// (under PPR, of the visiting walk, which is not absorbed). Each step
/// takes the frontier sources w in ascending external id and adds
/// p_wx * cur[w] to next[x] for every edge w -> x, so each next[x] adds
/// its terms in the canonical order the engines promise (DESIGN.md §3).
/// The score starts at beta and adds alpha * lambda^i * next[v] each
/// step, as the engine adds it; then the mass that reached v is
/// absorbed. An engine that keeps its promise matches bit for bit.
inline double RefForwardSweep(const Graph& g, const DhtParams& params, int d,
                              ExtNodeId u, ExtNodeId v) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  const auto target = static_cast<std::size_t>(v.value());
  std::vector<double> cur(n, 0.0);
  cur[static_cast<std::size_t>(u.value())] = 1.0;
  double score = params.beta;
  double lambda_pow = 1.0;
  for (int i = 1; i <= d; ++i) {
    std::vector<double> next(n, 0.0);
    for (NodeId w = 0; w < g.num_nodes(); ++w) {
      const double m = cur[static_cast<std::size_t>(w)];
      if (m == 0.0) continue;
      for (const OutEdge& e : g.OutEdges(g.ToInternal(ExtNodeId(w)))) {
        const NodeId x = g.ToExternal(IntNodeId(e.to)).value();
        next[static_cast<std::size_t>(x)] += e.prob * m;
      }
    }
    lambda_pow *= params.lambda;
    score += params.alpha * lambda_pow * next[target];
    if (params.first_hit) next[target] = 0.0;
    cur = std::move(next);
  }
  return score;
}

/// The backward first-hit walk from `q` as plain loops: h_d(u, q) for
/// every node u, indexed by EXTERNAL id (u == q holds the meaningless
/// return score). Each step takes the frontier nodes v in ascending
/// external id and adds p_uv * cur[v] to next[u] for every edge u -> v,
/// so each next[u] adds its terms in the canonical order the engines
/// promise (DESIGN.md §3). Then alpha * lambda^i * next[u] goes onto
/// u's delta, the mass that reached q is absorbed, and beta joins last,
/// as the engines add it — an engine that keeps its promise matches
/// bit for bit.
inline std::vector<double> RefBackwardSweep(const Graph& g,
                                            const DhtParams& params, int d,
                                            ExtNodeId q) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  // in[v]: every (u, p_uv) with an edge u -> v.
  std::vector<std::vector<std::pair<std::size_t, double>>> in(n);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const OutEdge& e : g.OutEdges(g.ToInternal(ExtNodeId(u)))) {
      const NodeId v = g.ToExternal(IntNodeId(e.to)).value();
      in[static_cast<std::size_t>(v)].emplace_back(
          static_cast<std::size_t>(u), e.prob);
    }
  }
  const auto target = static_cast<std::size_t>(q.value());
  std::vector<double> cur(n, 0.0);
  std::vector<double> delta(n, 0.0);
  cur[target] = 1.0;
  double lambda_pow = 1.0;
  for (int i = 1; i <= d; ++i) {
    std::vector<double> next(n, 0.0);
    for (std::size_t v = 0; v < n; ++v) {
      if (cur[v] == 0.0) continue;
      for (const auto& [u, p_uv] : in[v]) next[u] += p_uv * cur[v];
    }
    lambda_pow *= params.lambda;
    const double coeff = params.alpha * lambda_pow;
    for (std::size_t u = 0; u < n; ++u) delta[u] += coeff * next[u];
    if (params.first_hit) next[target] = 0.0;
    cur = std::move(next);
  }
  for (double& cell : delta) cell = params.beta + cell;
  return delta;
}

/// Brute-force 2-way join on RefBackwardSweep (checked separately
/// against RefHd). Returns all valid pairs sorted, truncated to k.
inline std::vector<ScoredPair> RefTwoWayJoin(const Graph& g,
                                             const DhtParams& params, int d,
                                             const NodeSet& P,
                                             const NodeSet& Q,
                                             std::size_t k) {
  std::vector<ScoredPair> out;
  for (ExtNodeId q : Q) {
    const std::vector<double> h = RefBackwardSweep(g, params, d, q);
    for (ExtNodeId p : P) {
      if (p == q) continue;
      const double s = h[static_cast<std::size_t>(p.value())];
      if (s > params.beta) {
        out.push_back(ScoredPair{p.value(), q.value(), s});
      }
    }
  }
  std::sort(out.begin(), out.end(), ScoredPairGreater);
  if (out.size() > k) out.resize(k);
  return out;
}

/// Algorithm 2's pruning as plain loops, for a run whose targets start
/// from saved states at `imported_level` (0 = cold): the live target
/// count entering the run and after each round l = 1, 2, 4, ... < d, as
/// TwoWayJoinStats::live_per_iteration reports them. Round l scores
/// each live target at max(l, its imported level) with
/// RefBackwardSweep and offers only live targets' cells (p != q, above
/// beta). T_k is the k-th of them under (score desc, p, q asc), -inf
/// when there are fewer than k; a target whose max_p h + U falls below
/// T_k is pruned. U is `ybound`'s Y^+ at the scored level, or X^+ when
/// `ybound` is null.
inline std::vector<int64_t> RefBIdjLive(const Graph& g,
                                        const DhtParams& params, int d,
                                        const NodeSet& P, const NodeSet& Q,
                                        std::size_t k,
                                        const std::vector<int>& imported_level,
                                        const YBoundTable* ybound) {
  std::vector<std::size_t> live(Q.size());
  for (std::size_t qi = 0; qi < Q.size(); ++qi) live[qi] = qi;
  std::vector<int64_t> out = {static_cast<int64_t>(live.size())};
  for (int l = 1; l < d; l *= 2) {
    std::vector<ScoredPair> cells;
    std::vector<double> upper;
    for (std::size_t qi : live) {
      const ExtNodeId q = Q[qi];
      const int level = std::max(l, imported_level[qi]);
      const std::vector<double> h = RefBackwardSweep(g, params, level, q);
      double pmax = params.beta;
      for (ExtNodeId p : P) {
        const double s = h[static_cast<std::size_t>(p.value())];
        if (p == q || s <= params.beta) continue;
        cells.push_back(ScoredPair{p.value(), q.value(), s});
        pmax = std::max(pmax, s);
      }
      upper.push_back(pmax + (ybound != nullptr ? ybound->Bound(level, qi)
                                                : params.XBound(level)));
    }
    std::sort(cells.begin(), cells.end(), ScoredPairGreater);
    const double tk = cells.size() >= k
                          ? cells[k - 1].score
                          : -std::numeric_limits<double>::infinity();
    std::vector<std::size_t> survivors;
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (upper[i] >= tk) survivors.push_back(live[i]);
    }
    live.swap(survivors);
    out.push_back(static_cast<int64_t>(live.size()));
  }
  return out;
}

/// Brute-force n-way join: all pair scores via RefTwoWayJoin, full
/// tuple enumeration, validity filtering, top-k by f. Independent of the
/// walk engines and of the PBRJ machinery.
inline std::vector<TupleAnswer> RefNwayJoin(
    const Graph& g, const DhtParams& params, int d,
    const std::vector<NodeSet>& sets, const std::vector<JoinEdge>& edges,
    const Aggregate& f, std::size_t k) {
  // Pair score table per edge, dense over the two sets' positions; -inf
  // marks an invalid pair (one RefTwoWayJoin does not return).
  constexpr double kInvalid = -std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> tables(edges.size());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const NodeSet& L = sets[static_cast<std::size_t>(edges[e].left)];
    const NodeSet& R = sets[static_cast<std::size_t>(edges[e].right)];
    std::map<std::pair<NodeId, NodeId>, double> valid;
    for (const ScoredPair& sp :
         RefTwoWayJoin(g, params, d, L, R, static_cast<std::size_t>(-1))) {
      valid.emplace(std::make_pair(sp.p, sp.q), sp.score);
    }
    tables[e].assign(L.size() * R.size(), kInvalid);
    for (std::size_t i = 0; i < L.size(); ++i) {
      for (std::size_t j = 0; j < R.size(); ++j) {
        auto it = valid.find({L[i].value(), R[j].value()});
        if (it != valid.end()) tables[e][i * R.size() + j] = it->second;
      }
    }
  }

  // Every tuple, by set positions. TupleAnswerGreater orders distinct
  // tuples totally, so cutting the kept ones back to the best k whenever
  // they pile up leaves the final top k as it was.
  std::vector<TupleAnswer> all;
  auto cut_to_k = [&] {
    std::sort(all.begin(), all.end(), TupleAnswerGreater);
    if (all.size() > k) all.resize(k);
  };
  std::vector<std::size_t> pos(sets.size(), 0);
  std::vector<NodeId> tuple(sets.size(), kInvalidNode);
  std::vector<double> scores(edges.size());
  auto enumerate = [&](auto&& self, std::size_t attr) -> void {
    if (attr == sets.size()) {
      for (std::size_t e = 0; e < edges.size(); ++e) {
        const auto l = static_cast<std::size_t>(edges[e].left);
        const auto r = static_cast<std::size_t>(edges[e].right);
        scores[e] = tables[e][pos[l] * sets[r].size() + pos[r]];
        if (scores[e] == kInvalid) return;
      }
      all.push_back(TupleAnswer{tuple, scores, f.Apply(scores)});
      if (all.size() > k && all.size() - k >= 4096) cut_to_k();
      return;
    }
    for (std::size_t i = 0; i < sets[attr].size(); ++i) {
      pos[attr] = i;
      tuple[attr] = sets[attr][i].value();
      self(self, attr + 1);
    }
  };
  enumerate(enumerate, 0);
  cut_to_k();
  return all;
}

/// Expects two two-way answers to be equal byte for byte: the same
/// (p, q) pairs in the same order, with bit-identical scores.
inline void ExpectSamePairs(const std::vector<ScoredPair>& got,
                            const std::vector<ScoredPair>& want,
                            const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].p, want[i].p) << label << " rank " << i;
    EXPECT_EQ(got[i].q, want[i].q) << label << " rank " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(got[i].score),
              std::bit_cast<uint64_t>(want[i].score))
        << label << " rank " << i;
  }
}

/// Expects two n-way answers to be equal byte for byte: the same tuples
/// in the same order, with bit-identical edge scores and f.
inline void ExpectSameTuples(const std::vector<TupleAnswer>& got,
                             const std::vector<TupleAnswer>& want,
                             const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].nodes, want[i].nodes) << label << " rank " << i;
    ASSERT_EQ(got[i].edge_scores.size(), want[i].edge_scores.size())
        << label << " rank " << i;
    for (std::size_t e = 0; e < want[i].edge_scores.size(); ++e) {
      EXPECT_EQ(std::bit_cast<uint64_t>(got[i].edge_scores[e]),
                std::bit_cast<uint64_t>(want[i].edge_scores[e]))
          << label << " rank " << i << " edge " << e;
    }
    EXPECT_EQ(std::bit_cast<uint64_t>(got[i].f),
              std::bit_cast<uint64_t>(want[i].f))
        << label << " rank " << i;
  }
}

/// Expects two saved walk states to be equal bit for bit: level,
/// discount, mass entries in saved order, and score row.
inline void ExpectSameSnapshot(const BackwardBatchSnapshot& got,
                               const BackwardBatchSnapshot& want,
                               const std::string& label) {
  EXPECT_EQ(got.level, want.level) << label;
  EXPECT_EQ(std::bit_cast<uint64_t>(got.lambda_pow),
            std::bit_cast<uint64_t>(want.lambda_pow))
      << label;
  EXPECT_EQ(got.mass.nodes, want.mass.nodes) << label;
  ASSERT_EQ(got.mass.values.size(), want.mass.values.size()) << label;
  for (std::size_t i = 0; i < want.mass.values.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(got.mass.values[i]),
              std::bit_cast<uint64_t>(want.mass.values[i]))
        << label << " mass " << i;
  }
  ASSERT_EQ(got.row.size(), want.row.size()) << label;
  for (std::size_t i = 0; i < want.row.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(got.row[i]),
              std::bit_cast<uint64_t>(want.row[i]))
        << label << " row " << i;
  }
}

// ---------------------------------------------------------------------
// Graph fixtures.
// ---------------------------------------------------------------------

/// Directed path 0 -> 1 -> ... -> n-1.
inline Graph PathGraph(NodeId n) {
  GraphBuilder b(n);
  for (NodeId u = 0; u + 1 < n; ++u) {
    DHTJOIN_CHECK(b.AddEdge(u, u + 1).ok());
  }
  auto g = b.Build();
  DHTJOIN_CHECK(g.ok());
  return std::move(g).value();
}

/// Directed cycle 0 -> 1 -> ... -> n-1 -> 0.
inline Graph CycleGraph(NodeId n) {
  GraphBuilder b(n);
  for (NodeId u = 0; u < n; ++u) {
    DHTJOIN_CHECK(b.AddEdge(u, (u + 1) % n).ok());
  }
  auto g = b.Build();
  DHTJOIN_CHECK(g.ok());
  return std::move(g).value();
}

/// Undirected complete graph K_n, unit weights.
inline Graph CompleteGraph(NodeId n) {
  GraphBuilder b(n, /*undirected=*/true);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      DHTJOIN_CHECK(b.AddEdge(u, v).ok());
    }
  }
  auto g = b.Build();
  DHTJOIN_CHECK(g.ok());
  return std::move(g).value();
}

/// Undirected star: hub 0 connected to 1..n-1.
inline Graph StarGraph(NodeId n) {
  GraphBuilder b(n, /*undirected=*/true);
  for (NodeId v = 1; v < n; ++v) {
    DHTJOIN_CHECK(b.AddEdge(0, v).ok());
  }
  auto g = b.Build();
  DHTJOIN_CHECK(g.ok());
  return std::move(g).value();
}

/// The paper's Figure 1(a)-style graph: two small communities bridged by
/// a few edges; weighted and undirected. 10 nodes.
inline Graph TwoCommunityGraph() {
  GraphBuilder b(10, /*undirected=*/true);
  // Community A: 0-4 (dense).
  const NodeId a[] = {0, 1, 2, 3, 4};
  for (int i = 0; i < 5; ++i) {
    for (int j = i + 1; j < 5; ++j) {
      if ((i + j) % 3 != 0) {
        DHTJOIN_CHECK(b.AddEdge(a[i], a[j], 1.0 + i).ok());
      }
    }
  }
  // Community B: 5-9 (ring).
  for (NodeId u = 5; u < 10; ++u) {
    DHTJOIN_CHECK(b.AddEdge(u, u == 9 ? 5 : u + 1, 2.0).ok());
  }
  // Bridges.
  DHTJOIN_CHECK(b.AddEdge(2, 7, 0.5).ok());
  DHTJOIN_CHECK(b.AddEdge(4, 5, 1.5).ok());
  auto g = b.Build();
  DHTJOIN_CHECK(g.ok());
  return std::move(g).value();
}

/// Random simple graph for property sweeps; deterministic per seed.
inline Graph RandomGraph(NodeId n, int64_t edges, uint64_t seed,
                         bool undirected = true, bool weighted = false) {
  GraphBuilder b(n, undirected);
  Rng rng(seed);
  int64_t added = 0;
  int64_t guard = 0;
  // Hash-set dedup: membership tests are O(1), so large fixtures stay
  // linear in |edges|. Same accept/reject sequence as any other exact
  // membership structure, so graphs are unchanged for a given seed.
  std::unordered_set<uint64_t> seen;
  seen.reserve(static_cast<std::size_t>(edges) * 2);
  while (added < edges && guard < 500 * edges) {
    ++guard;
    auto u = static_cast<NodeId>(rng.Below(static_cast<uint64_t>(n)));
    auto v = static_cast<NodeId>(rng.Below(static_cast<uint64_t>(n)));
    if (u == v) continue;
    uint64_t key = undirected ? PairKey(std::min(u, v), std::max(u, v))
                              : PairKey(u, v);
    if (!seen.insert(key).second) continue;
    double w = weighted ? 1.0 + static_cast<double>(rng.Below(5)) : 1.0;
    DHTJOIN_CHECK(b.AddEdge(u, v, w).ok());
    ++added;
  }
  auto g = b.Build();
  DHTJOIN_CHECK(g.ok());
  return std::move(g).value();
}

/// Graph of `clusters` mutually unreachable random clusters of
/// `cluster_nodes` nodes, weighted and undirected — a multi-component
/// graph, home turf of the restricted sweep, whose walks stay local.
inline Graph ClusteredGraph(int clusters, NodeId cluster_nodes,
                            int64_t edges_per_cluster, uint64_t seed) {
  GraphBuilder b(clusters * cluster_nodes, /*undirected=*/true);
  Rng rng(seed);
  for (int c = 0; c < clusters; ++c) {
    const NodeId base = c * cluster_nodes;
    int64_t added = 0;
    while (added < edges_per_cluster) {
      auto u = base + static_cast<NodeId>(
                          rng.Below(static_cast<uint64_t>(cluster_nodes)));
      auto v = base + static_cast<NodeId>(
                          rng.Below(static_cast<uint64_t>(cluster_nodes)));
      if (u == v) continue;
      if (!b.AddEdge(u, v, 1.0 + static_cast<double>(rng.Below(4))).ok()) {
        continue;
      }
      ++added;
    }
  }
  auto g = b.Build();
  DHTJOIN_CHECK(g.ok());
  return std::move(g).value();
}

/// `g` in every physical layout the repo builds: as given, then
/// degree- and RCM-ordered (graph/reorder.h).
inline std::vector<Graph> AllLayouts(const Graph& g) {
  std::vector<Graph> out = {g};
  for (ReorderKind kind : {ReorderKind::kDegree, ReorderKind::kRcm}) {
    auto r = ReorderGraph(g, kind);
    DHTJOIN_CHECK(r.ok());
    out.push_back(std::move(r).value());
  }
  return out;
}

/// Every node of `g`, by external id.
inline std::vector<ExtNodeId> AllNodes(const Graph& g) {
  std::vector<ExtNodeId> out;
  for (NodeId u = 0; u < g.num_nodes(); ++u) out.push_back(ExtNodeId(u));
  return out;
}

/// First `count` node ids as a NodeSet.
inline NodeSet Range(const char* name, NodeId begin, NodeId end) {
  std::vector<NodeId> ids;
  for (NodeId u = begin; u < end; ++u) ids.push_back(u);
  return NodeSet(name, std::move(ids));
}

}  // namespace dhtjoin::testing

#endif  // DHTJOIN_TESTS_TESTING_REFERENCE_H_
