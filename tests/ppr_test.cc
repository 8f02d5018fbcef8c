/// \file tests/ppr_test.cc
/// \brief The Personalized-PageRank extension (the paper's stated future
/// work): visiting-probability semantics through the same general-form
/// walk engine, bounds, and join algorithms.

#include <gtest/gtest.h>

#include <memory>

#include "dht/backward_batch.h"
#include "dht/bounds.h"
#include "dht/forward_batch.h"
#include "join2/b_bj.h"
#include "join2/b_idj.h"
#include "join2/f_bj.h"
#include "join2/f_idj.h"
#include "core/partial_join.h"
#include "core/query_graph.h"
#include "join2/incremental.h"
#include "testing/reference.h"

namespace dhtjoin {
namespace {

using testing::CycleGraph;
using testing::RandomGraph;
using testing::Range;
using testing::RefBackwardSweep;
using testing::TwoCommunityGraph;

/// h_d(u, v) of one pair on the forward engine.
double ForwardScore(const Graph& g, const DhtParams& p, int d, ExtNodeId u,
                    ExtNodeId v) {
  ForwardWalkerBatch batch(g, {.num_threads = 1});
  return batch.Run(p, d, {&u, 1}, {&v, 1})[0];
}

TEST(PprParamsTest, FactoryCoefficients) {
  DhtParams p = DhtParams::PersonalizedPageRank(0.85);
  EXPECT_DOUBLE_EQ(p.alpha, 0.15);
  EXPECT_DOUBLE_EQ(p.beta, 0.0);
  EXPECT_DOUBLE_EQ(p.lambda, 0.85);
  EXPECT_FALSE(p.first_hit);
  EXPECT_TRUE(p.Validate().ok());
}

TEST(PprWalkerTest, TwoCycleClosedForm) {
  // On the directed 2-cycle 0 <-> 1, S_i(0, 1) = 1 for odd i, 0 for
  // even i, so PPR(0,1) = (1-c) * (c + c^3 + c^5 + ...) -> c(1-c)/(1-c^2)
  // = c / (1 + c) as d -> infinity.
  GraphBuilder b(2);
  ASSERT_TRUE(b.AddEdge(0, 1).ok());
  ASSERT_TRUE(b.AddEdge(1, 0).ok());
  Graph g = std::move(b.Build()).value();
  const double c = 0.6;
  DhtParams p = DhtParams::PersonalizedPageRank(c);
  int d = p.StepsForEpsilon(1e-10);
  EXPECT_NEAR(ForwardScore(g, p, d, ExtNodeId(0), ExtNodeId(1)),
              c / (1.0 + c), 1e-9);
}

TEST(PprWalkerTest, VisitingNotFirstHit) {
  // On the directed 4-cycle the walk REVISITS the predecessor every 4
  // steps; first-hit semantics count only the first pass. The PPR score
  // must therefore exceed the equivalent first-hit score.
  Graph g = CycleGraph(4);
  const double c = 0.8;
  DhtParams visit = DhtParams::PersonalizedPageRank(c);
  DhtParams hit = visit;
  hit.first_hit = true;
  const int d = 20;
  double s_visit = ForwardScore(g, visit, d, ExtNodeId(0), ExtNodeId(3));
  double s_hit = ForwardScore(g, hit, d, ExtNodeId(0), ExtNodeId(3));
  EXPECT_GT(s_visit, s_hit + 1e-9);
}

TEST(PprWalkerTest, ForwardEqualsBackward) {
  Graph g = RandomGraph(30, 90, 61, /*undirected=*/true, /*weighted=*/true);
  DhtParams p = DhtParams::PersonalizedPageRank(0.7);
  const int d = 12;
  const std::vector<ExtNodeId> targets = {ExtNodeId(2), ExtNodeId(11),
                                          ExtNodeId(23)};
  const std::vector<ExtNodeId> sources = {ExtNodeId(0), ExtNodeId(5),
                                          ExtNodeId(17), ExtNodeId(28)};
  ForwardWalkerBatch fw(g);
  BackwardWalkerBatch bw(g);
  const std::vector<double> fwd = fw.Run(p, d, sources, targets);
  const std::vector<double> bwd = bw.Run(p, d, targets, sources);
  for (std::size_t t = 0; t < targets.size(); ++t) {
    for (std::size_t s = 0; s < sources.size(); ++s) {
      EXPECT_NEAR(fwd[s * targets.size() + t], bwd[t * sources.size() + s],
                  1e-10);
    }
  }
}

TEST(PprWalkerTest, VisitProbabilitiesCanSumPastOne) {
  // Unlike first-hit probabilities, per-step visiting probabilities are
  // not a sub-distribution: the walk can occupy the target many times.
  // With alpha = 1 and beta = 0, h_l - h_{l-1} = lambda^l * S_l, read
  // off the forward engine level by level.
  Graph g = CycleGraph(3);
  const DhtParams p{
      .alpha = 1.0, .beta = 0.0, .lambda = 0.9, .first_hit = false};
  ForwardWalkerBatch batch(g);
  ForwardBatchStates states;
  const ExtNodeId u(0);
  const std::size_t slot = 0;
  double total = 0.0;
  double prev = p.beta;
  double lambda_pow = 1.0;
  for (int l = 1; l <= 30; ++l) {
    double h = 0.0;
    batch.AdvancePairs(p, l, {&u, 1}, {&slot, 1}, ExtNodeId(2), states,
                       [&](std::size_t, double score) { h = score; });
    lambda_pow *= p.lambda;
    total += (h - prev) / lambda_pow;
    prev = h;
  }
  EXPECT_GT(total, 1.5);  // visited on steps 2, 5, 8, ...
}

TEST(PprBoundsTest, XAndYBracketRemainder) {
  Graph g = RandomGraph(40, 120, 62);
  DhtParams p = DhtParams::PersonalizedPageRank(0.8);
  const int d = 12;
  NodeSet P = Range("P", 0, 10);
  NodeSet Q = Range("Q", 20, 30);
  YBoundTable ytable(g, p, d, P, Q);
  for (std::size_t qi = 0; qi < Q.size(); ++qi) {
    ExtNodeId q = Q[qi];
    const std::vector<double> full = RefBackwardSweep(g, p, d, q);
    for (int l = 1; l <= d; ++l) {
      const std::vector<double> partial = RefBackwardSweep(g, p, l, q);
      for (ExtNodeId u : P) {
        if (u == q) continue;
        const auto ui = static_cast<std::size_t>(u.value());
        EXPECT_LE(full[ui], partial[ui] + p.XBound(l) + 1e-12);
        EXPECT_LE(full[ui], partial[ui] + ytable.Bound(l, qi) + 1e-12);
      }
    }
  }
}

class PprJoinSweep : public ::testing::TestWithParam<double> {};

TEST_P(PprJoinSweep, AllFiveJoinAlgorithmsAgree) {
  const double c = GetParam();
  Graph g = RandomGraph(50, 160, 63, /*undirected=*/true,
                        /*weighted=*/true);
  DhtParams p = DhtParams::PersonalizedPageRank(c);
  const int d = 10;
  NodeSet P = Range("P", 0, 18);
  NodeSet Q = Range("Q", 25, 43);
  auto want = testing::RefTwoWayJoin(g, p, d, P, Q, 25);
  std::vector<std::unique_ptr<TwoWayJoin>> algos;
  algos.push_back(std::make_unique<FBjJoin>());
  algos.push_back(std::make_unique<FIdjJoin>());
  algos.push_back(std::make_unique<BBjJoin>());
  algos.push_back(
      std::make_unique<BIdjJoin>(BIdjJoin::Options{UpperBoundKind::kX}));
  algos.push_back(
      std::make_unique<BIdjJoin>(BIdjJoin::Options{UpperBoundKind::kY}));
  for (auto& algo : algos) {
    auto got = algo->Run(g, p, d, P, Q, 25);
    ASSERT_TRUE(got.ok()) << algo->Name();
    ASSERT_EQ(got->size(), want.size()) << algo->Name();
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_NEAR((*got)[i].score, want[i].score, 1e-9)
          << algo->Name() << " rank " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ContinuationProbs, PprJoinSweep,
                         ::testing::Values(0.3, 0.5, 0.7, 0.85));

TEST(PprJoinTest, IncrementalEnumeratorWorks) {
  Graph g = RandomGraph(40, 130, 64);
  DhtParams p = DhtParams::PersonalizedPageRank(0.6);
  const int d = 10;
  NodeSet P = Range("P", 0, 14);
  NodeSet Q = Range("Q", 18, 32);
  auto want = testing::RefTwoWayJoin(g, p, d, P, Q,
                                     static_cast<std::size_t>(-1));
  auto join = IncrementalTwoWayJoin::Create(g, p, d, P, Q, 10);
  ASSERT_TRUE(join.ok());
  std::vector<ScoredPair> got;
  while (auto next = (*join)->Next()) got.push_back(*next);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].score, want[i].score, 1e-9) << "rank " << i;
  }
}

TEST(PprJoinTest, NwayJoinAgreesWithBruteForce) {
  // The full PJ-i pipeline under PPR, against exhaustive enumeration.
  Graph g = RandomGraph(32, 110, 65);
  DhtParams p = DhtParams::PersonalizedPageRank(0.7);
  const int d = 10;
  QueryGraph q;
  int a = q.AddNodeSet(Range("A", 0, 8));
  int b = q.AddNodeSet(Range("B", 10, 18));
  int c = q.AddNodeSet(Range("C", 20, 28));
  ASSERT_TRUE(q.AddEdge(a, b).ok());
  ASSERT_TRUE(q.AddEdge(b, c).ok());
  MinAggregate f;
  auto want = testing::RefNwayJoin(g, p, d, q.sets(), q.edges(), f, 10);
  PartialJoin pji(PartialJoin::Options{.m = 8, .incremental = true});
  auto got = pji.Run(g, p, d, q, f, 10);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR((*got)[i].f, want[i].f, 1e-9) << "rank " << i;
  }
}

TEST(PprJoinTest, RankingDiffersFromDht) {
  // PPR rewards recurrent proximity; DHT only the first arrival.
  // Target A (node 1) is hit at step 1 w.p. 1/2, then the walk leaves
  // forever (1 -> 4 <-> 5). Target B (node 3) is first hit at step 2
  // w.p. 1/2 but then revisited every second step via 3 <-> 2.
  //   DHT:  A = a*l/2 + b   >  B = a*l^2/2 + b             (any l)
  //   PPR:  A = (1-c)c/2    <  B = c^2/(2(1+c))   for c > 0.618...
  GraphBuilder b(6);
  ASSERT_TRUE(b.AddEdge(0, 1).ok());  // -> A
  ASSERT_TRUE(b.AddEdge(0, 2).ok());  // -> C
  ASSERT_TRUE(b.AddEdge(2, 3).ok());  // C -> B
  ASSERT_TRUE(b.AddEdge(3, 2).ok());  // B -> C (revisit loop)
  ASSERT_TRUE(b.AddEdge(1, 4).ok());  // A leads away...
  ASSERT_TRUE(b.AddEdge(4, 5).ok());
  ASSERT_TRUE(b.AddEdge(5, 4).ok());  // ...for good
  Graph g = std::move(b.Build()).value();
  const double c = 0.9;
  const int d = 140;  // c^d remainder well below the 1e-6 tolerance
  DhtParams ppr = DhtParams::PersonalizedPageRank(c);
  DhtParams dht = DhtParams::Lambda(0.9);
  EXPECT_GT(ForwardScore(g, dht, d, ExtNodeId(0), ExtNodeId(1)),
            ForwardScore(g, dht, d, ExtNodeId(0), ExtNodeId(3)));  // A > B
  double ppr_a = ForwardScore(g, ppr, d, ExtNodeId(0), ExtNodeId(1));
  double ppr_b = ForwardScore(g, ppr, d, ExtNodeId(0), ExtNodeId(3));
  EXPECT_LT(ppr_a, ppr_b);  // B > A: ranking reversed
  // And both match their closed forms.
  EXPECT_NEAR(ppr_a, (1 - c) * c / 2, 1e-6);
  EXPECT_NEAR(ppr_b, c * c / (2 * (1 + c)), 1e-6);
}

}  // namespace
}  // namespace dhtjoin
