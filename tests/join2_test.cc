/// \file tests/join2_test.cc
/// \brief Agreement and semantics tests for the five 2-way join
/// algorithms (F-BJ, F-IDJ, B-BJ, B-IDJ-X, B-IDJ-Y).

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "join2/b_bj.h"
#include "join2/b_idj.h"
#include "join2/f_bj.h"
#include "join2/f_idj.h"
#include "testing/reference.h"

namespace dhtjoin {
namespace {

using testing::RandomGraph;
using testing::Range;
using testing::RefTwoWayJoin;
using testing::TwoCommunityGraph;

std::vector<std::unique_ptr<TwoWayJoin>> AllAlgorithms() {
  std::vector<std::unique_ptr<TwoWayJoin>> algos;
  algos.push_back(std::make_unique<FBjJoin>());
  algos.push_back(std::make_unique<FIdjJoin>());
  algos.push_back(std::make_unique<BBjJoin>());
  algos.push_back(
      std::make_unique<BIdjJoin>(BIdjJoin::Options{UpperBoundKind::kX}));
  algos.push_back(
      std::make_unique<BIdjJoin>(BIdjJoin::Options{UpperBoundKind::kY}));
  return algos;
}

void ExpectSameScores(const std::vector<ScoredPair>& got,
                      const std::vector<ScoredPair>& want,
                      const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    // Scores must agree; pair identity may differ only between ties.
    EXPECT_NEAR(got[i].score, want[i].score, 1e-9)
        << label << " rank " << i;
  }
}

struct JoinCase {
  uint64_t seed;
  double lambda;  // 0 = DHTe
  std::size_t k;
  bool weighted;
};

class TwoWayAgreement : public ::testing::TestWithParam<JoinCase> {};

TEST_P(TwoWayAgreement, AllFiveAlgorithmsMatchBruteForce) {
  const auto& c = GetParam();
  Graph g = RandomGraph(50, 160, c.seed, /*undirected=*/true, c.weighted);
  DhtParams p =
      c.lambda > 0 ? DhtParams::Lambda(c.lambda) : DhtParams::Exponential();
  const int d = 8;
  NodeSet P = Range("P", 0, 20);
  NodeSet Q = Range("Q", 25, 45);
  auto want = RefTwoWayJoin(g, p, d, P, Q, c.k);
  for (auto& algo : AllAlgorithms()) {
    auto got = algo->Run(g, p, d, P, Q, c.k);
    ASSERT_TRUE(got.ok()) << algo->Name() << ": "
                          << got.status().ToString();
    ExpectSameScores(*got, want, algo->Name());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TwoWayAgreement,
    ::testing::Values(JoinCase{101, 0.2, 10, false},
                      JoinCase{102, 0.2, 50, true},
                      JoinCase{103, 0.5, 25, false},
                      JoinCase{104, 0.8, 10, true},
                      JoinCase{105, 0.0, 10, false},  // DHTe
                      JoinCase{106, 0.0, 40, true},
                      JoinCase{107, 0.6, 1, false},
                      JoinCase{108, 0.4, 400, true}));  // k > pair space

TEST(TwoWayJoinTest, OverlappingSetsExcludeSelfPairs) {
  Graph g = TwoCommunityGraph();
  DhtParams p = DhtParams::Lambda(0.2);
  NodeSet P = Range("P", 0, 6);
  NodeSet Q = Range("Q", 4, 10);  // overlaps P on {4, 5}
  for (auto& algo : AllAlgorithms()) {
    auto got = algo->Run(g, p, 8, P, Q, 100);
    ASSERT_TRUE(got.ok()) << algo->Name();
    for (const ScoredPair& sp : *got) {
      EXPECT_NE(sp.p, sp.q) << algo->Name();
    }
  }
}

TEST(TwoWayJoinTest, UnreachablePairsExcluded) {
  // Directed path 0->1->2: node 0 is unreachable FROM anywhere, so as a
  // join target it must never appear.
  Graph g = testing::PathGraph(3);
  DhtParams p = DhtParams::Lambda(0.2);
  NodeSet P("P", {1, 2});
  NodeSet Q("Q", std::vector<NodeId>{0});
  for (auto& algo : AllAlgorithms()) {
    auto got = algo->Run(g, p, 8, P, Q, 10);
    ASSERT_TRUE(got.ok()) << algo->Name();
    EXPECT_TRUE(got->empty()) << algo->Name();
  }
}

TEST(TwoWayJoinTest, ResultsSortedDescending) {
  Graph g = RandomGraph(40, 120, 109);
  DhtParams p = DhtParams::Lambda(0.2);
  for (auto& algo : AllAlgorithms()) {
    auto got = algo->Run(g, p, 8, Range("P", 0, 15), Range("Q", 20, 35), 30);
    ASSERT_TRUE(got.ok());
    for (std::size_t i = 1; i < got->size(); ++i) {
      EXPECT_GE((*got)[i - 1].score, (*got)[i].score) << algo->Name();
    }
  }
}

TEST(TwoWayJoinTest, ScoresAreExactNotBounds) {
  // IDJ variants must return exact d-step scores for survivors, equal to
  // a direct backward computation.
  Graph g = RandomGraph(40, 120, 110);
  DhtParams p = DhtParams::Lambda(0.4);
  const int d = 8;
  BIdjJoin algo(BIdjJoin::Options{UpperBoundKind::kY});
  auto got = algo.Run(g, p, d, Range("P", 0, 15), Range("Q", 20, 35), 10);
  ASSERT_TRUE(got.ok());
  for (const ScoredPair& sp : *got) {
    const std::vector<double> h =
        testing::RefBackwardSweep(g, p, d, ExtNodeId(sp.q));
    EXPECT_NEAR(sp.score, h[static_cast<std::size_t>(sp.p)], 1e-12);
  }
}

TEST(TwoWayJoinTest, InvalidInputsRejected) {
  Graph g = TwoCommunityGraph();
  DhtParams p = DhtParams::Lambda(0.2);
  NodeSet P = Range("P", 0, 5);
  NodeSet Q = Range("Q", 5, 10);
  BBjJoin algo;
  EXPECT_FALSE(algo.Run(g, p, 0, P, Q, 10).ok());          // d < 1
  EXPECT_FALSE(algo.Run(g, p, 8, P, Q, 0).ok());           // k == 0
  EXPECT_FALSE(
      algo.Run(g, p, 8, NodeSet("E", std::vector<NodeId>{}), Q, 10).ok());
  EXPECT_FALSE(
      algo.Run(g, p, 8, NodeSet("B", std::vector<NodeId>{99}), Q, 10).ok());
  DhtParams bad = p;
  bad.lambda = 1.5;
  EXPECT_FALSE(algo.Run(g, bad, 8, P, Q, 10).ok());
}

TEST(TwoWayJoinTest, StatsReflectBackwardAdvantage) {
  // B-BJ restarts one walker per target; F-BJ one per pair.
  Graph g = RandomGraph(40, 120, 111);
  DhtParams p = DhtParams::Lambda(0.2);
  NodeSet P = Range("P", 0, 15);
  NodeSet Q = Range("Q", 20, 35);
  FBjJoin fbj;
  BBjJoin bbj;
  ASSERT_TRUE(fbj.Run(g, p, 8, P, Q, 10).ok());
  ASSERT_TRUE(bbj.Run(g, p, 8, P, Q, 10).ok());
  EXPECT_EQ(bbj.stats().walks_started, static_cast<int64_t>(Q.size()));
  EXPECT_EQ(fbj.stats().walks_started,
            static_cast<int64_t>(P.size() * Q.size()));
}

TEST(TwoWayJoinTest, IdjStatsRecordPruning) {
  Graph g = RandomGraph(60, 180, 112);
  DhtParams p = DhtParams::Lambda(0.2);
  BIdjJoin algo(BIdjJoin::Options{UpperBoundKind::kY});
  ASSERT_TRUE(
      algo.Run(g, p, 8, Range("P", 0, 20), Range("Q", 30, 55), 5).ok());
  const auto& st = algo.stats();
  // d=8 -> deepening levels l = 1, 2, 4 -> 3 pruning records, 4 live
  // counts (initial + after each level).
  EXPECT_EQ(st.pruned_fraction_per_iteration.size(), 3u);
  EXPECT_EQ(st.live_per_iteration.size(), 4u);
  EXPECT_EQ(st.live_per_iteration[0], 25);
  for (double f : st.pruned_fraction_per_iteration) {
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
  }
  // Cumulative pruning can only grow.
  for (std::size_t i = 1; i < st.pruned_fraction_per_iteration.size(); ++i) {
    EXPECT_GE(st.pruned_fraction_per_iteration[i],
              st.pruned_fraction_per_iteration[i - 1] - 1e-15);
  }
}

TEST(TwoWayJoinTest, YPrunesAtLeastAsManyAsX) {
  // Lemma 5 consequence, checked behaviourally on a community graph at
  // large lambda (where X is loose - the paper's Fig. 10(b) setting).
  Graph g = RandomGraph(80, 240, 113);
  DhtParams p = DhtParams::Lambda(0.7);
  NodeSet P = Range("P", 0, 25);
  NodeSet Q = Range("Q", 40, 75);
  const int d = DhtParams::Lambda(0.7).StepsForEpsilon(1e-6);
  BIdjJoin x(BIdjJoin::Options{UpperBoundKind::kX});
  BIdjJoin y(BIdjJoin::Options{UpperBoundKind::kY});
  ASSERT_TRUE(x.Run(g, p, d, P, Q, 5).ok());
  ASSERT_TRUE(y.Run(g, p, d, P, Q, 5).ok());
  const auto& fx = x.stats().pruned_fraction_per_iteration;
  const auto& fy = y.stats().pruned_fraction_per_iteration;
  ASSERT_EQ(fx.size(), fy.size());
  for (std::size_t i = 0; i < fx.size(); ++i) {
    EXPECT_GE(fy[i], fx[i] - 1e-12) << "iteration " << i;
  }
}

TEST(TwoWayJoinTest, DirectedAsymmetry) {
  // h(u, v) != h(v, u) on a directed graph; joins in both orientations
  // must reflect it.
  GraphBuilder b(4);
  ASSERT_TRUE(b.AddEdge(0, 1).ok());
  ASSERT_TRUE(b.AddEdge(1, 2).ok());
  ASSERT_TRUE(b.AddEdge(2, 0).ok());
  ASSERT_TRUE(b.AddEdge(1, 3).ok());
  ASSERT_TRUE(b.AddEdge(3, 1).ok());
  Graph g = std::move(b.Build()).value();
  DhtParams p = DhtParams::Lambda(0.5);
  BBjJoin algo;
  NodeSet A("A", std::vector<NodeId>{0});
  NodeSet B("B", std::vector<NodeId>{1});
  auto ab = algo.Run(g, p, 8, A, B, 1);
  auto ba = algo.Run(g, p, 8, B, A, 1);
  ASSERT_TRUE(ab.ok());
  ASSERT_TRUE(ba.ok());
  ASSERT_EQ(ab->size(), 1u);
  ASSERT_EQ(ba->size(), 1u);
  // 0 reaches 1 in one step; 1 reaches 0 via 2 (two steps) or 3->1 loop.
  EXPECT_GT((*ab)[0].score, (*ba)[0].score);
}

}  // namespace
}  // namespace dhtjoin
