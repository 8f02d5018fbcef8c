/// \file tests/bounds_test.cc
/// \brief The X/Y remainder bounds: Lemma 2, Theorem 1, and Lemma 5.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "dht/backward.h"
#include "dht/bounds.h"
#include "testing/reference.h"

namespace dhtjoin {
namespace {

using testing::AllLayouts;
using testing::ClusteredGraph;
using testing::RandomGraph;
using testing::Range;
using testing::RefVisitSweep;
using testing::TwoCommunityGraph;

class BoundsSweep : public ::testing::TestWithParam<double> {};

TEST_P(BoundsSweep, XBoundBracketsRemainder) {
  // Lemma 2: h(p,q) <= h_l(p,q) + X_l; since h_d <= h, also h_d.
  const double lambda = GetParam();
  Graph g = RandomGraph(40, 120, 31);
  DhtParams p = DhtParams::Lambda(lambda);
  const int d = 10;
  BackwardWalker partial(g), full(g);
  for (NodeId q : {0, 13, 29}) {
    full.Reset(p, ExtNodeId(q));
    full.Advance(d);
    partial.Reset(p, ExtNodeId(q));
    for (int l = 1; l <= d; l++) {
      partial.Advance(1);
      for (NodeId u = 0; u < g.num_nodes(); ++u) {
        if (u == q) continue;
        EXPECT_LE(full.Score(ExtNodeId(u)),
                  partial.Score(ExtNodeId(u)) + p.XBound(l) + 1e-12)
            << "q=" << q << " u=" << u << " l=" << l;
      }
    }
  }
}

TEST_P(BoundsSweep, YBoundBracketsRemainder) {
  // Theorem 1: h_d(p,q) <= h_l(p,q) + Y_l(P, q).
  const double lambda = GetParam();
  Graph g = RandomGraph(40, 120, 32);
  DhtParams p = DhtParams::Lambda(lambda);
  const int d = 10;
  NodeSet P = Range("P", 0, 12);
  NodeSet Q = Range("Q", 20, 32);
  YBoundTable ytable(g, p, d, P, Q);
  BackwardWalker partial(g), full(g);
  for (std::size_t qi = 0; qi < Q.size(); ++qi) {
    ExtNodeId q = Q[qi];
    full.Reset(p, q);
    full.Advance(d);
    partial.Reset(p, q);
    for (int l = 1; l <= d; ++l) {
      partial.Advance(1);
      for (ExtNodeId u : P) {
        if (u == q) continue;
        EXPECT_LE(full.Score(u),
                  partial.Score(u) + ytable.Bound(l, qi) + 1e-12)
            << "q=" << q.value() << " u=" << u.value() << " l=" << l;
      }
    }
  }
}

TEST_P(BoundsSweep, Lemma5YNotLooserThanX) {
  const double lambda = GetParam();
  Graph g = RandomGraph(40, 120, 33);
  DhtParams p = DhtParams::Lambda(lambda);
  const int d = 10;
  NodeSet P = Range("P", 0, 12);
  NodeSet Q = Range("Q", 20, 32);
  YBoundTable ytable(g, p, d, P, Q);
  for (std::size_t qi = 0; qi < Q.size(); ++qi) {
    for (int l = 0; l <= d; ++l) {
      EXPECT_LE(ytable.Bound(l, qi), p.XBound(l) + 1e-12)
          << "qi=" << qi << " l=" << l;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Lambdas, BoundsSweep,
                         ::testing::Values(0.2, 0.4, 0.6, 0.8));

TEST(BoundsTest, YBoundMatchesNaiveSweepBitwise) {
  // The table's values, not just its brackets: suffix rows built from
  // the engine-independent S_i(P, q) sweep must match bit for bit, in
  // every layout. The random graph is connected (full dense plan); the
  // clustered one confines P to two of its four clusters (restricted
  // plan), so Q also probes nodes no walk from P can reach.
  struct Case {
    const char* name;
    Graph graph;
    NodeSet P, Q;
  };
  std::vector<Case> cases;
  cases.push_back({"random", RandomGraph(120, 480, 34, true, true),
                   Range("P", 0, 12), Range("Q", 40, 100)});
  ASSERT_EQ(cases.back().graph.Reachability().num_components(), 1);
  std::vector<NodeId> p_ids, q_ids;
  for (NodeId u = 0; u < 6; ++u) {
    p_ids.push_back(u);
    p_ids.push_back(40 + u);
  }
  for (NodeId u = 3; u < 160; u += 7) q_ids.push_back(u);
  cases.push_back({"clustered", ClusteredGraph(4, 40, 120, 35),
                   NodeSet("P", p_ids), NodeSet("Q", q_ids)});
  ASSERT_GT(cases.back().graph.Reachability().num_components(), 1);

  const int d = 10;
  for (const Case& c : cases) {
    for (double lambda : {0.3, 0.8}) {
      const DhtParams params = DhtParams::Lambda(lambda);
      const std::vector<std::vector<double>> s = RefVisitSweep(c.graph, c.P, d);
      int next_layout = 0;
      for (const Graph& g : AllLayouts(c.graph)) {
        const int layout = next_layout++;
        YBoundTable ytable(g, params, d, c.P, c.Q);
        const auto& rows = ytable.suffix_rows();
        ASSERT_EQ(rows.size(), c.Q.size());
        for (std::size_t qi = 0; qi < c.Q.size(); ++qi) {
          const auto q = static_cast<std::size_t>(c.Q[qi].value());
          ASSERT_EQ(rows[qi].size(), static_cast<std::size_t>(d) + 1);
          EXPECT_EQ(rows[qi][static_cast<std::size_t>(d)], 0.0);
          // Theorem 1's suffix sums, in YBoundTable's summation order.
          double acc = 0.0;
          for (int l = d - 1; l >= 0; --l) {
            acc += params.alpha * std::pow(lambda, l + 1) *
                   std::min(s[static_cast<std::size_t>(l)][q], 1.0);
            EXPECT_EQ(std::bit_cast<uint64_t>(
                          rows[qi][static_cast<std::size_t>(l)]),
                      std::bit_cast<uint64_t>(acc))
                << c.name << " layout " << layout << " lambda=" << lambda
                << " q=" << q << " l=" << l;
          }
        }
      }
    }
  }
}

TEST(BoundsTest, YBoundZeroAtFullDepth) {
  Graph g = TwoCommunityGraph();
  DhtParams p = DhtParams::Lambda(0.2);
  NodeSet P = Range("P", 0, 5);
  NodeSet Q = Range("Q", 5, 10);
  YBoundTable ytable(g, p, 8, P, Q);
  for (std::size_t qi = 0; qi < Q.size(); ++qi) {
    EXPECT_DOUBLE_EQ(ytable.Bound(8, qi), 0.0);
  }
}

TEST(BoundsTest, YBoundMonotoneDecreasingInL) {
  Graph g = TwoCommunityGraph();
  DhtParams p = DhtParams::Lambda(0.5);
  NodeSet P = Range("P", 0, 5);
  NodeSet Q = Range("Q", 5, 10);
  YBoundTable ytable(g, p, 8, P, Q);
  for (std::size_t qi = 0; qi < Q.size(); ++qi) {
    for (int l = 0; l < 8; ++l) {
      EXPECT_GE(ytable.Bound(l, qi), ytable.Bound(l + 1, qi) - 1e-15);
    }
  }
}

TEST(BoundsTest, YBoundUnreachableTargetIsZero) {
  // Node 3 of the directed path 0->1->2->3 can never walk back to P, but
  // more importantly an ISOLATED target gets S_i == 0 and thus Y == 0:
  // the bound proves immediately that nothing more can arrive.
  GraphBuilder b(5);
  ASSERT_TRUE(b.AddEdge(0, 1).ok());
  ASSERT_TRUE(b.AddEdge(1, 2).ok());
  Graph g = std::move(b.Build()).value();  // nodes 3, 4 isolated
  DhtParams p = DhtParams::Lambda(0.2);
  NodeSet P = Range("P", 0, 2);
  NodeSet Q("Q", {3, 4});
  YBoundTable ytable(g, p, 8, P, Q);
  for (std::size_t qi = 0; qi < 2; ++qi) {
    for (int l = 0; l <= 8; ++l) {
      EXPECT_DOUBLE_EQ(ytable.Bound(l, qi), 0.0);
    }
  }
}

TEST(BoundsTest, XUpperBoundFreeFunctionAgrees) {
  DhtParams p = DhtParams::Lambda(0.35);
  for (int l = 0; l < 6; ++l) {
    EXPECT_DOUBLE_EQ(XUpperBound(p, l), p.XBound(l));
  }
}

TEST(BoundsTest, YBoundChargesRealSweepCost) {
  // The construction sweep runs on the shared adaptive engine; its
  // edges_relaxed is what walk_steps gets charged. On a walk whose mass
  // stays inside a small component the sweep must cost far less than
  // the d dense passes the seed billed (d * |E|), and never more.
  Graph big = testing::RandomGraph(200, 800, 77);
  DhtParams p = DhtParams::Lambda(0.2);
  const int d = 8;
  {
    YBoundTable ytable(big, p, d, testing::Range("P", 0, 10),
                       testing::Range("Q", 50, 60));
    EXPECT_GT(ytable.edges_relaxed(), 0);
    EXPECT_LE(ytable.edges_relaxed(),
              static_cast<int64_t>(d) * big.num_edges());
  }
  // Two isolated edges: the sweep from P = {0} touches almost nothing,
  // so a flat d * |E| would overcount wildly.
  GraphBuilder b(6);
  ASSERT_TRUE(b.AddEdge(0, 1).ok());
  ASSERT_TRUE(b.AddEdge(2, 3).ok());
  ASSERT_TRUE(b.AddEdge(3, 2).ok());
  Graph tiny = std::move(b.Build()).value();
  YBoundTable ytable(tiny, p, d, NodeSet("P", std::vector<NodeId>{0}),
                     NodeSet("Q", std::vector<NodeId>{1}));
  EXPECT_LT(ytable.edges_relaxed(),
            static_cast<int64_t>(d) * tiny.num_edges());
}

TEST(BoundsTest, YBoundCapsProbabilityAtOne) {
  // With many sources, sum_p S_i(p, q) can exceed 1; Theorem 1 clamps it.
  // On the star graph every leaf reaches the hub in one step, so
  // S_1(P, hub) = |P| but the Y bound must use min(., 1).
  Graph g = testing::StarGraph(12);
  DhtParams p = DhtParams::Lambda(0.5);
  NodeSet P = Range("P", 1, 11);  // 10 leaves
  NodeSet Q("Q", std::vector<NodeId>{0});
  const int d = 6;
  YBoundTable ytable(g, p, d, P, Q);
  // Uncapped would give alpha * (lambda * 10 + ...); capped is at most
  // alpha * sum_{i=1..d} lambda^i = X_0 truncated, which equals X_0 - X_d.
  EXPECT_LE(ytable.Bound(0, 0), p.XBound(0) - p.XBound(d) + 1e-12);
}

}  // namespace
}  // namespace dhtjoin
