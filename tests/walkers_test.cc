/// \file tests/walkers_test.cc
/// \brief Both directions of the walk engine vs the path-enumeration
/// oracle, plus the analytic invariants of h_d, and the plain-loop
/// reference sweeps behind the brute-force joins vs both.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dht/backward_batch.h"
#include "dht/forward_batch.h"
#include "testing/reference.h"

namespace dhtjoin {
namespace {

using testing::AllLayouts;
using testing::AllNodes;
using testing::ClusteredGraph;
using testing::CompleteGraph;
using testing::CycleGraph;
using testing::PathGraph;
using testing::RandomGraph;
using testing::RefBackwardSweep;
using testing::RefFirstHitProb;
using testing::RefForwardSweep;
using testing::RefHd;
using testing::StarGraph;
using testing::TwoCommunityGraph;

/// h_d(u, v) of one pair on the forward engine.
double ForwardScore(const Graph& g, const DhtParams& p, int d, ExtNodeId u,
                    ExtNodeId v) {
  ForwardWalkerBatch batch(g, {.num_threads = 1});
  return batch.Run(p, d, {&u, 1}, {&v, 1})[0];
}

/// h_d(u, q) for every node u (indexed by external id) on the
/// single-target backward engine.
std::vector<double> BackwardScores(const Graph& g, const DhtParams& p, int d,
                                   ExtNodeId q) {
  BackwardWalkerBatchT<1> batch(g, {.num_threads = 1});
  return batch.Run(p, d, {&q, 1}, AllNodes(g));
}

/// The first-hit probabilities P_i(u, v) for i = 1..steps, read off the
/// forward engine's h_l, resumed level by level: h_l - h_{l-1} =
/// alpha * lambda^l * P_l. The probe measure (alpha = 1, beta = 0,
/// lambda near 1) keeps lambda^l far from underflow, so each P_l comes
/// back within a few ulps, and exactly where P_l is 0 or the only
/// nonzero step so far.
std::vector<double> StepProbs(const Graph& g, ExtNodeId u, ExtNodeId v,
                              int steps) {
  const DhtParams probe{.alpha = 1.0, .beta = 0.0, .lambda = 0.99};
  ForwardWalkerBatch batch(g, {.num_threads = 1});
  ForwardBatchStates states;
  const std::size_t slot = 0;
  std::vector<double> out;
  double prev = probe.beta;
  double lambda_pow = 1.0;
  for (int l = 1; l <= steps; ++l) {
    double h = 0.0;
    batch.AdvancePairs(probe, l, {&u, 1}, {&slot, 1}, v, states,
                       [&](std::size_t, double score) { h = score; });
    lambda_pow *= probe.lambda;
    out.push_back((h - prev) / (probe.alpha * lambda_pow));
    prev = h;
  }
  return out;
}

// --------------------------------------------------- analytic examples

TEST(ForwardWalkerTest, PathGraphExactValues) {
  // On 0->1->2, P_i(0,2) = 1 exactly at i = 2; h_d = a*l^2 + b for d >= 2.
  Graph g = PathGraph(3);
  DhtParams p = DhtParams::Lambda(0.2);
  EXPECT_DOUBLE_EQ(ForwardScore(g, p, 1, ExtNodeId(0), ExtNodeId(2)), p.beta);
  double expect = p.alpha * p.lambda * p.lambda + p.beta;
  EXPECT_DOUBLE_EQ(ForwardScore(g, p, 2, ExtNodeId(0), ExtNodeId(2)), expect);
  // No longer paths exist past depth 2.
  EXPECT_DOUBLE_EQ(ForwardScore(g, p, 8, ExtNodeId(0), ExtNodeId(2)), expect);
}

TEST(ForwardWalkerTest, CycleFirstReturnIsExactlyN) {
  // On a directed n-cycle the walk returns to its start at step n with
  // probability 1 and never earlier; first-hit at the predecessor takes
  // n-1 steps.
  Graph g = CycleGraph(5);
  const std::vector<double> hit = StepProbs(g, ExtNodeId(0), ExtNodeId(4), 8);
  for (int i = 1; i <= 8; ++i) {
    EXPECT_DOUBLE_EQ(hit[static_cast<std::size_t>(i) - 1],
                     i == 4 ? 1.0 : 0.0);
  }
}

TEST(ForwardWalkerTest, StarHubOscillation) {
  // From leaf 1 of a star: step 1 reaches hub w.p. 1. First-hit on leaf
  // 2 happens at even steps: P_2 = 1/(n-1), P_4 = (n-2)/(n-1) * 1/(n-1).
  Graph g = StarGraph(4);  // hub 0, leaves 1..3
  const std::vector<double> hit = StepProbs(g, ExtNodeId(1), ExtNodeId(2), 4);
  EXPECT_DOUBLE_EQ(hit[0], 0.0);
  EXPECT_NEAR(hit[1], 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(hit[2], 0.0);
  EXPECT_NEAR(hit[3], (2.0 / 3.0) * (1.0 / 3.0), 1e-12);
}

// ------------------------------------------------ oracle cross-checks

TEST(ForwardWalkerTest, MatchesPathEnumerationOracle) {
  Graph g = TwoCommunityGraph();
  const int d = 6;
  for (NodeId u : {0, 3, 7}) {
    for (NodeId v : {2, 5, 9}) {
      if (u == v) continue;
      const std::vector<double> hit =
          StepProbs(g, ExtNodeId(u), ExtNodeId(v), d);
      for (int i = 1; i <= d; ++i) {
        EXPECT_NEAR(hit[static_cast<std::size_t>(i) - 1],
                    RefFirstHitProb(g, u, v, i), 1e-10)
            << "u=" << u << " v=" << v << " i=" << i;
      }
    }
  }
}

TEST(BackwardWalkerTest, MatchesPathEnumerationOracle) {
  Graph g = TwoCommunityGraph();
  const int d = 6;
  DhtParams p = DhtParams::Lambda(0.3);
  for (NodeId v : {2, 5, 9}) {
    const std::vector<double> h = BackwardScores(g, p, d, ExtNodeId(v));
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      if (u == v) continue;
      EXPECT_NEAR(h[static_cast<std::size_t>(u)], RefHd(g, p, d, u, v), 1e-10)
          << "u=" << u << " v=" << v;
    }
  }
}

struct WalkerSweepCase {
  uint64_t seed;
  bool weighted;
  double lambda;  // 0 = use DHTe
};

class WalkerAgreement : public ::testing::TestWithParam<WalkerSweepCase> {};

TEST_P(WalkerAgreement, ForwardEqualsBackward) {
  const auto& c = GetParam();
  Graph g = RandomGraph(30, 80, c.seed, /*undirected=*/true, c.weighted);
  DhtParams p = c.lambda > 0 ? DhtParams::Lambda(c.lambda)
                             : DhtParams::Exponential();
  const int d = 8;
  const std::vector<ExtNodeId> targets = {ExtNodeId(0), ExtNodeId(7),
                                          ExtNodeId(19)};
  const std::vector<ExtNodeId> sources = {ExtNodeId(1), ExtNodeId(3),
                                          ExtNodeId(11), ExtNodeId(25)};
  ForwardWalkerBatch fw(g);
  BackwardWalkerBatch bw(g);
  const std::vector<double> fwd = fw.Run(p, d, sources, targets);
  const std::vector<double> bwd = bw.Run(p, d, targets, sources);
  for (std::size_t t = 0; t < targets.size(); ++t) {
    for (std::size_t s = 0; s < sources.size(); ++s) {
      EXPECT_NEAR(fwd[s * targets.size() + t], bwd[t * sources.size() + s],
                  1e-10)
          << "u=" << sources[s].value() << " v=" << targets[t].value();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WalkerAgreement,
    ::testing::Values(WalkerSweepCase{11, false, 0.2},
                      WalkerSweepCase{12, true, 0.2},
                      WalkerSweepCase{13, false, 0.6},
                      WalkerSweepCase{14, true, 0.8},
                      WalkerSweepCase{15, true, 0.0},   // DHTe
                      WalkerSweepCase{16, false, 0.0}));

// ----------------------------------------------------- h_d invariants

TEST(WalkerInvariants, ScoreMonotoneInD) {
  Graph g = RandomGraph(25, 60, 21);
  DhtParams p = DhtParams::Lambda(0.4);
  BackwardWalkerBatchT<1> batch(g);
  BackwardBatchStates states(1);
  const ExtNodeId q(5);
  const ExtNodeId u(17);
  const std::size_t slot = 0;
  double prev = -1e100;
  for (int level = 1; level <= 10; ++level) {
    double s = 0.0;
    batch.AdvanceChunked(p, level, {&q, 1}, {&slot, 1}, {&u, 1}, states,
                         [&](std::size_t, const double* row) { s = row[0]; });
    EXPECT_GE(s, prev - 1e-15);
    prev = s;
  }
}

TEST(WalkerInvariants, ScoresWithinFloorAndCeiling) {
  Graph g = RandomGraph(25, 60, 22, true, true);
  for (double lambda : {0.2, 0.8}) {
    DhtParams p = DhtParams::Lambda(lambda);
    const std::vector<double> h = BackwardScores(g, p, 10, ExtNodeId(3));
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      if (u == 3) continue;
      EXPECT_GE(h[static_cast<std::size_t>(u)], p.FloorScore());
      EXPECT_LE(h[static_cast<std::size_t>(u)], p.MaxScore() + 1e-12);
    }
  }
}

TEST(WalkerInvariants, FirstHitProbsFormSubDistribution) {
  // Sum over i of P_i(u, v) <= 1 (the walk may never hit v).
  Graph g = TwoCommunityGraph();
  const int steps = 300;  // two sparse bridges: mixing is slow
  const std::vector<double> hit =
      StepProbs(g, ExtNodeId(0), ExtNodeId(9), steps);
  double total = 0.0;
  for (double h : hit) total += h;
  EXPECT_LE(total, 1.0 + 1e-9);
  EXPECT_GT(total, 0.9);  // connected graph: the walk almost surely hits
}

TEST(WalkerInvariants, DhtLambdaRecurrenceHolds) {
  // Eq. 2: DHT_l(u, v) = -1 + l * sum_w p_uw DHT_l(w, v), checked on
  // deeply truncated scores (truncation error < 1e-9 by Lemma 1).
  Graph g = TwoCommunityGraph();
  DhtParams p = DhtParams::Lambda(0.3);
  int d = p.StepsForEpsilon(1e-10);
  const NodeId v = 6;
  const std::vector<double> h = BackwardScores(g, p, d, ExtNodeId(v));
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (u == v) continue;
    double rhs = -1.0;
    for (const OutEdge& e : g.OutEdges(IntNodeId(u))) {
      // DHT(v, v) = 0; fresh fixture, so internal == external ids.
      double hw = e.to == v ? 0.0 : h[static_cast<std::size_t>(e.to)];
      rhs += p.lambda * e.prob * hw;
    }
    EXPECT_NEAR(h[static_cast<std::size_t>(u)], rhs, 1e-8) << "u=" << u;
  }
}

TEST(WalkerInvariants, SinkNodeNeverReachesAnything) {
  // Node 2 of the path graph has no out-edges.
  Graph g = PathGraph(3);
  DhtParams p = DhtParams::Lambda(0.2);
  EXPECT_DOUBLE_EQ(ForwardScore(g, p, 8, ExtNodeId(2), ExtNodeId(0)), p.beta);
}

TEST(WalkerInvariants, AbsorptionStopsMassAtTarget) {
  // 0 -> 1 -> 2 -> 3; absorbing at 1 means 2 and 3 are never visited, so
  // first-hit of 3 from 0 when absorbed at... instead check: forward to
  // target 1 must put zero hit probability at steps > 1.
  Graph g = PathGraph(4);
  const std::vector<double> hit = StepProbs(g, ExtNodeId(0), ExtNodeId(1), 5);
  EXPECT_DOUBLE_EQ(hit[0], 1.0);
  for (int i = 2; i <= 5; ++i) {
    EXPECT_DOUBLE_EQ(hit[static_cast<std::size_t>(i) - 1], 0.0);
  }
}

TEST(WalkerInvariants, ResumableAdvanceMatchesOneShot) {
  Graph g = RandomGraph(25, 70, 23);
  DhtParams p = DhtParams::Lambda(0.5);
  const ExtNodeId q(4);
  const std::vector<ExtNodeId> sources = AllNodes(g);
  BackwardWalkerBatchT<1> batch(g);
  const std::vector<double> a = batch.Run(p, 8, {&q, 1}, sources);
  BackwardBatchStates states(1);
  const std::size_t slot = 0;
  std::vector<double> b;
  for (int level : {3, 8}) {  // 3 steps, then 5 more resumed
    batch.AdvanceChunked(p, level, {&q, 1}, {&slot, 1}, sources, states,
                         [&](std::size_t, const double* row) {
                           b.assign(row, row + sources.size());
                         });
  }
  for (std::size_t u = 0; u < sources.size(); ++u) {
    EXPECT_DOUBLE_EQ(a[u], b[u]);
  }
  EXPECT_EQ(states.level(0), 8);
}

TEST(WalkerInvariants, ResetReusesWorkspaceCleanly) {
  Graph g = TwoCommunityGraph();
  DhtParams p = DhtParams::Lambda(0.2);
  // One thread: every run reuses the one pooled workspace.
  BackwardWalkerBatchT<1> batch(g, {.num_threads = 1});
  const ExtNodeId u(9);
  auto score = [&](NodeId q) {
    const ExtNodeId target(q);
    return batch.Run(p, 8, {&target, 1}, {&u, 1})[0];
  };
  const double first = score(0);
  score(5);  // different target
  EXPECT_DOUBLE_EQ(score(0), first);  // back to the first target
  EXPECT_GT(batch.pooled_workspaces(), 0u);
}

TEST(WalkerInvariants, WeightsChangeScores) {
  // Heavier edge => higher transition probability => higher DHT.
  GraphBuilder b1(3), b2(3);
  ASSERT_TRUE(b1.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(b1.AddEdge(0, 2, 1.0).ok());
  ASSERT_TRUE(b2.AddEdge(0, 1, 9.0).ok());
  ASSERT_TRUE(b2.AddEdge(0, 2, 1.0).ok());
  Graph even = std::move(b1.Build()).value();
  Graph skew = std::move(b2.Build()).value();
  DhtParams p = DhtParams::Lambda(0.2);
  EXPECT_LT(ForwardScore(even, p, 4, ExtNodeId(0), ExtNodeId(1)),
            ForwardScore(skew, p, 4, ExtNodeId(0), ExtNodeId(1)));
}

// ------------------------------------------ the reference forward sweep

TEST(RefForwardSweepTest, MatchesPathEnumerationOracle) {
  // The forward plain-loop walk against the walk enumeration, which
  // shares nothing with it.
  std::vector<Graph> graphs;
  graphs.push_back(TwoCommunityGraph());
  graphs.push_back(PathGraph(5));
  graphs.push_back(CycleGraph(6));
  graphs.push_back(RandomGraph(8, 16, 71, /*undirected=*/false,
                               /*weighted=*/true));
  const int d = 6;
  for (const Graph& g : graphs) {
    for (const DhtParams& p : {DhtParams::Lambda(0.3), DhtParams::Exponential()}) {
      for (NodeId u = 0; u < g.num_nodes(); ++u) {
        for (NodeId v = 0; v < g.num_nodes(); v += 2) {
          if (u == v) continue;
          EXPECT_NEAR(RefForwardSweep(g, p, d, ExtNodeId(u), ExtNodeId(v)),
                      RefHd(g, p, d, u, v), 1e-12)
              << "n=" << g.num_nodes() << " u=" << u << " v=" << v;
        }
      }
    }
  }
}

// ----------------------------------------- the reference backward sweep

TEST(RefBackwardSweepTest, MatchesPathEnumerationOracle) {
  // The brute-force joins' sweep against the walk enumeration, which
  // shares nothing with it.
  std::vector<Graph> graphs;
  graphs.push_back(TwoCommunityGraph());
  graphs.push_back(PathGraph(5));
  graphs.push_back(CycleGraph(6));
  graphs.push_back(RandomGraph(8, 16, 71, /*undirected=*/false,
                               /*weighted=*/true));
  const int d = 6;
  for (const Graph& g : graphs) {
    for (const DhtParams& p : {DhtParams::Lambda(0.3), DhtParams::Exponential()}) {
      for (NodeId v = 0; v < g.num_nodes(); v += 2) {
        const std::vector<double> h = RefBackwardSweep(g, p, d, ExtNodeId(v));
        for (NodeId u = 0; u < g.num_nodes(); ++u) {
          if (u == v) continue;
          EXPECT_NEAR(h[static_cast<std::size_t>(u)], RefHd(g, p, d, u, v),
                      1e-12)
              << "n=" << g.num_nodes() << " u=" << u << " v=" << v;
        }
      }
    }
  }
}

TEST(RefBackwardSweepTest, MatchesBatchEngineBitwiseInEveryLayout) {
  // Every row the batch engine produces — from scratch and resumed level
  // by level, at W = 8 and W = 1 — equals the plain-loop sweep bit for
  // bit, in every layout and under both semantics. Four clusters make
  // the engine's dense steps restricted sweeps; its pushes sort their
  // frontier first.
  const Graph base = ClusteredGraph(4, 40, 120, 35);
  std::vector<ExtNodeId> targets;
  for (NodeId u = 1; u < base.num_nodes(); u += 9) targets.push_back(ExtNodeId(u));
  std::vector<ExtNodeId> sources;
  for (NodeId u = 0; u < base.num_nodes(); ++u) sources.push_back(ExtNodeId(u));
  std::vector<std::size_t> slots(targets.size());
  for (std::size_t i = 0; i < slots.size(); ++i) slots[i] = i;
  int layout = 0;
  for (const Graph& g : AllLayouts(base)) {
    for (const DhtParams& p :
         {DhtParams::Lambda(0.3), DhtParams::Lambda(0.8),
          DhtParams::Exponential(), DhtParams::PersonalizedPageRank(0.7)}) {
      BackwardWalkerBatch wide(g, {.num_threads = 1});
      BackwardWalkerBatchT<1> narrow(g, {.num_threads = 1});
      BackwardBatchStates wide_states(targets.size());
      BackwardBatchStates narrow_states(targets.size());
      for (int d : {1, 2, 4, 8}) {
        const std::vector<double> scratch = wide.Run(p, d, targets, sources);
        std::vector<double> resumed(scratch.size());
        std::vector<double> resumed1(scratch.size());
        auto into = [&](std::vector<double>& out) {
          return [&out, &sources](std::size_t i, const double* row) {
            std::copy(row, row + sources.size(),
                      out.data() + i * sources.size());
          };
        };
        wide.AdvanceChunked(p, d, targets, slots, sources, wide_states,
                            into(resumed));
        narrow.AdvanceChunked(p, d, targets, slots, sources, narrow_states,
                              into(resumed1));
        for (std::size_t t = 0; t < targets.size(); ++t) {
          const std::vector<double> want = RefBackwardSweep(g, p, d, targets[t]);
          for (std::size_t s = 0; s < sources.size(); ++s) {
            const uint64_t bits = std::bit_cast<uint64_t>(
                want[static_cast<std::size_t>(sources[s].value())]);
            const std::size_t cell = t * sources.size() + s;
            const std::string where =
                "layout " + std::to_string(layout) + " first_hit=" +
                std::to_string(p.first_hit) + " lambda=" +
                std::to_string(p.lambda) + " d=" + std::to_string(d) +
                " q=" + std::to_string(targets[t].value()) +
                " u=" + std::to_string(sources[s].value());
            ASSERT_EQ(std::bit_cast<uint64_t>(scratch[cell]), bits) << where;
            ASSERT_EQ(std::bit_cast<uint64_t>(resumed[cell]), bits) << where;
            ASSERT_EQ(std::bit_cast<uint64_t>(resumed1[cell]), bits) << where;
          }
        }
      }
    }
    ++layout;
  }
}

}  // namespace
}  // namespace dhtjoin
