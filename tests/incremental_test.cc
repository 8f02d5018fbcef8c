/// \file tests/incremental_test.cc
/// \brief The resumable F-structure enumerator behind PJ-i: its output
/// must equal the full sorted join, one pair at a time, for every m.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "join2/incremental.h"
#include "testing/reference.h"

namespace dhtjoin {
namespace {

using testing::RandomGraph;
using testing::Range;
using testing::RefTwoWayJoin;

struct IncCase {
  uint64_t seed;
  double lambda;  // 0 = DHTe
  std::size_t m;
  UpperBoundKind bound;
};

class IncrementalSweep : public ::testing::TestWithParam<IncCase> {};

TEST_P(IncrementalSweep, EnumeratesFullJoinInOrder) {
  const auto& c = GetParam();
  Graph g = RandomGraph(50, 150, c.seed, /*undirected=*/true,
                        /*weighted=*/(c.seed % 2) == 0);
  DhtParams p =
      c.lambda > 0 ? DhtParams::Lambda(c.lambda) : DhtParams::Exponential();
  const int d = 8;
  NodeSet P = Range("P", 0, 18);
  NodeSet Q = Range("Q", 24, 42);
  auto want = RefTwoWayJoin(g, p, d, P, Q, static_cast<std::size_t>(-1));

  auto join = IncrementalTwoWayJoin::Create(
      g, p, d, P, Q, c.m, IncrementalTwoWayJoin::Options{c.bound});
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  std::vector<ScoredPair> got;
  while (auto next = (*join)->Next()) {
    got.push_back(*next);
  }
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].score, want[i].score, 1e-9) << "rank " << i;
  }
  // Exhausted for good.
  EXPECT_FALSE((*join)->Next().has_value());
  EXPECT_EQ((*join)->num_returned(), want.size());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IncrementalSweep,
    ::testing::Values(
        IncCase{201, 0.2, 0, UpperBoundKind::kY},    // fully lazy
        IncCase{202, 0.2, 1, UpperBoundKind::kY},
        IncCase{203, 0.2, 25, UpperBoundKind::kY},
        IncCase{204, 0.2, 5000, UpperBoundKind::kY},  // m > pair space
        IncCase{205, 0.6, 25, UpperBoundKind::kY},
        IncCase{206, 0.8, 10, UpperBoundKind::kY},   // loose X regime
        IncCase{207, 0.2, 25, UpperBoundKind::kX},
        IncCase{208, 0.8, 25, UpperBoundKind::kX},
        IncCase{209, 0.0, 25, UpperBoundKind::kY},   // DHTe
        IncCase{210, 0.0, 0, UpperBoundKind::kX}));

TEST(IncrementalTest, PairsNeverRepeat) {
  Graph g = RandomGraph(40, 120, 211);
  DhtParams p = DhtParams::Lambda(0.2);
  auto join = IncrementalTwoWayJoin::Create(g, p, 8, Range("P", 0, 15),
                                            Range("Q", 20, 35), 10);
  ASSERT_TRUE(join.ok());
  std::set<uint64_t> seen;
  while (auto next = (*join)->Next()) {
    EXPECT_TRUE(seen.insert(PairKey(next->p, next->q)).second)
        << "duplicate pair (" << next->p << "," << next->q << ")";
  }
}

TEST(IncrementalTest, ScoresNonIncreasing) {
  Graph g = RandomGraph(40, 140, 212, true, true);
  DhtParams p = DhtParams::Lambda(0.5);
  auto join = IncrementalTwoWayJoin::Create(g, p, 8, Range("P", 0, 15),
                                            Range("Q", 18, 38), 7);
  ASSERT_TRUE(join.ok());
  double prev = std::numeric_limits<double>::infinity();
  while (auto next = (*join)->Next()) {
    EXPECT_LE(next->score, prev + 1e-12);
    prev = next->score;
  }
}

TEST(IncrementalTest, ScoresAreExactDStepValues) {
  Graph g = RandomGraph(40, 120, 213);
  DhtParams p = DhtParams::Lambda(0.4);
  const int d = 8;
  auto join = IncrementalTwoWayJoin::Create(g, p, d, Range("P", 0, 15),
                                            Range("Q", 20, 35), 5);
  ASSERT_TRUE(join.ok());
  BackwardWalker w(g);
  for (int i = 0; i < 20; ++i) {
    auto next = (*join)->Next();
    if (!next) break;
    w.Reset(p, ExtNodeId(next->q));
    w.Advance(d);
    EXPECT_NEAR(next->score, w.Score(ExtNodeId(next->p)), 1e-12);
  }
}

TEST(IncrementalTest, EmptyResultWhenNothingReachable) {
  Graph g = testing::PathGraph(3);  // 0 -> 1 -> 2
  DhtParams p = DhtParams::Lambda(0.2);
  auto join = IncrementalTwoWayJoin::Create(g, p, 8, NodeSet("P", {1, 2}),
                                            NodeSet("Q", std::vector<NodeId>{0}), 5);
  ASSERT_TRUE(join.ok());
  EXPECT_FALSE((*join)->Next().has_value());
}

TEST(IncrementalTest, SelfPairsSkippedWithOverlappingSets) {
  Graph g = testing::TwoCommunityGraph();
  DhtParams p = DhtParams::Lambda(0.2);
  auto join = IncrementalTwoWayJoin::Create(g, p, 8, Range("P", 0, 7),
                                            Range("Q", 3, 10), 6);
  ASSERT_TRUE(join.ok());
  while (auto next = (*join)->Next()) {
    EXPECT_NE(next->p, next->q);
  }
}

TEST(IncrementalTest, InvalidInputsRejected) {
  Graph g = testing::TwoCommunityGraph();
  DhtParams p = DhtParams::Lambda(0.2);
  EXPECT_FALSE(IncrementalTwoWayJoin::Create(g, p, 0, Range("P", 0, 5),
                                             Range("Q", 5, 10), 5)
                   .ok());
  EXPECT_FALSE(IncrementalTwoWayJoin::Create(g, p, 8,
                                             NodeSet("E", std::vector<NodeId>{}),
                                             Range("Q", 5, 10), 5)
                   .ok());
}

TEST(IncrementalTest, LazyAndEagerAgree) {
  Graph g = RandomGraph(45, 130, 214);
  DhtParams p = DhtParams::Lambda(0.3);
  auto lazy = IncrementalTwoWayJoin::Create(g, p, 8, Range("P", 0, 16),
                                            Range("Q", 20, 36), 0);
  auto eager = IncrementalTwoWayJoin::Create(g, p, 8, Range("P", 0, 16),
                                             Range("Q", 20, 36), 40);
  ASSERT_TRUE(lazy.ok());
  ASSERT_TRUE(eager.ok());
  while (true) {
    auto a = (*lazy)->Next();
    auto b = (*eager)->Next();
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a) break;
    EXPECT_NEAR(a->score, b->score, 1e-9);
  }
}

TEST(IncrementalTest, EagerScheduleDoesLessWorkOnNextThanLazy) {
  // After a deep top-m run, the next few pairs should come from cached
  // exact entries without extra walks.
  Graph g = RandomGraph(60, 200, 215);
  DhtParams p = DhtParams::Lambda(0.2);
  auto join = IncrementalTwoWayJoin::Create(g, p, 8, Range("P", 0, 20),
                                            Range("Q", 25, 50), 30);
  ASSERT_TRUE(join.ok());
  for (int i = 0; i < 10; ++i) (*join)->Next();
  int64_t walks_before = (*join)->stats().walks_started;
  for (int i = 0; i < 5; ++i) (*join)->Next();
  int64_t walks_after = (*join)->stats().walks_started;
  // A from-scratch top-k join would need ~|Q| walks; the incremental
  // structure should need far fewer (often zero) for 5 more pairs.
  EXPECT_LE(walks_after - walks_before, 10);
}

TEST(IncrementalTest, BatchScheduleResumeCountersAreExact) {
  // Regression for a double-count: the batch schedule used to fold the
  // per-round hit/miss deltas AND add the cumulative engine counters
  // once more at the end, inflating state_hits/state_misses ~2x. The
  // semantics are "one hit or miss per (target, round) resume attempt":
  // with m larger than the pair space nothing prunes, so an 18-target
  // schedule at d = 8 runs rounds l = 1, 2, 4 plus the exact-8 pass —
  // every target misses once (cold at l = 1) and hits exactly 3 times.
  Graph g = RandomGraph(50, 150, 204, /*undirected=*/true,
                        /*weighted=*/true);
  DhtParams p = DhtParams::Lambda(0.2);
  NodeSet P = Range("P", 0, 18);
  NodeSet Q = Range("Q", 24, 42);  // 18 targets
  auto join = IncrementalTwoWayJoin::Create(g, p, 8, P, Q, 5000);
  ASSERT_TRUE(join.ok());

  const TwoWayJoinStats& st = (*join)->stats();
  const int64_t targets = 18;
  EXPECT_EQ(st.state_misses, targets);
  EXPECT_EQ(st.state_hits, 3 * targets);
  EXPECT_EQ(st.state_evictions, 0);
  // Nothing pruned: the live frontier stays |Q| through every round.
  ASSERT_EQ(st.live_per_iteration.size(), 4u);
  for (const int64_t live : st.live_per_iteration) {
    EXPECT_EQ(live, targets);
  }
  // pool_barriers is the sum of its per-round breakdown (3 rounds +
  // the final pass), also delta-folded — a second fold would break it.
  ASSERT_EQ(st.barriers_per_iteration.size(), 4u);
  int64_t total = 0;
  for (const int64_t b : st.barriers_per_iteration) total += b;
  EXPECT_EQ(st.pool_barriers, total);
}

TEST(IncrementalTest, ScalarPathCountsOneMissPerColdTarget) {
  // The m = 0 enumerator deepens targets one scalar walk at a time:
  // with an un-evicting pool each target is cold exactly once, so
  // misses == touched targets, independent of how many levels each
  // target is later resumed through (those are hits).
  Graph g = RandomGraph(40, 120, 216, /*undirected=*/true,
                        /*weighted=*/false);
  DhtParams p = DhtParams::Lambda(0.2);
  auto join = IncrementalTwoWayJoin::Create(g, p, 8, Range("P", 0, 15),
                                            Range("Q", 20, 36), 0);
  ASSERT_TRUE(join.ok());
  while ((*join)->Next().has_value()) {
  }
  const TwoWayJoinStats& st = (*join)->stats();
  EXPECT_EQ(st.state_evictions, 0);
  EXPECT_EQ(st.state_misses, 16);  // |Q|: every target cold exactly once
  EXPECT_GT(st.state_hits, 0);     // deeper levels resume, never restart
}

// ------------------------------------------------ canonical order on ties

/// Single-threaded BackwardSnapshotProvider keeping the deepest walk per
/// target, like the serving cache.
class MapProvider final : public BackwardSnapshotProvider {
 public:
  std::shared_ptr<const BackwardWalkerState> Fetch(ExtNodeId target) override {
    auto it = walks_.find(target.value());
    return it == walks_.end() ? nullptr : it->second;
  }
  void Store(ExtNodeId target, BackwardWalkerState state) override {
    auto& slot = walks_[target.value()];
    if (slot == nullptr || slot->level < state.level) {
      slot = std::make_shared<const BackwardWalkerState>(std::move(state));
    }
  }

 private:
  std::map<NodeId, std::shared_ptr<const BackwardWalkerState>> walks_;
};

struct TieGraph {
  std::string name;
  Graph g;
};

/// Graphs whose pair scores tie heavily (symmetric or unit-weight
/// structure), plus seeded unit-weight random graphs.
std::vector<TieGraph> TieHeavyGraphs() {
  std::vector<TieGraph> out;
  out.push_back({"complete14", testing::CompleteGraph(14)});
  out.push_back({"star30", testing::StarGraph(30)});
  out.push_back({"cycle40", testing::CycleGraph(40)});
  for (uint64_t seed : {301, 302, 303}) {
    out.push_back({"random" + std::to_string(seed),
                   RandomGraph(36, 90, seed, /*undirected=*/true)});
  }
  return out;
}

std::vector<ScoredPair> Drain(IncrementalTwoWayJoin& join) {
  std::vector<ScoredPair> out;
  while (auto next = join.Next()) out.push_back(*next);
  return out;
}

TEST(IncrementalTest, TieHeavyStreamsAreCanonical) {
  // Next() must emit exactly the full join in ScoredPairGreater order:
  // non-increasing scores, and strictly ascending (p, q) inside every
  // run of equal scores — whatever m, bound, or graph symmetry.
  const int d = 8;
  int64_t ties = 0;
  for (const TieGraph& tg : TieHeavyGraphs()) {
    const NodeId n = tg.g.num_nodes();
    NodeSet P = Range("P", 0, n * 2 / 3);
    NodeSet Q = Range("Q", n / 3, n);
    for (double lambda : {0.2, 0.6}) {
      DhtParams p = DhtParams::Lambda(lambda);
      auto want = RefTwoWayJoin(tg.g, p, d, P, Q, static_cast<std::size_t>(-1));
      for (UpperBoundKind bound : {UpperBoundKind::kY, UpperBoundKind::kX}) {
        for (std::size_t m : {std::size_t{0}, std::size_t{5}, std::size_t{50}}) {
          SCOPED_TRACE(tg.name + " lambda=" + std::to_string(lambda) +
                       " m=" + std::to_string(m) +
                       (bound == UpperBoundKind::kY ? " Y" : " X"));
          auto join = IncrementalTwoWayJoin::Create(
              tg.g, p, d, P, Q, m, IncrementalTwoWayJoin::Options{bound});
          ASSERT_TRUE(join.ok());
          std::vector<ScoredPair> got = Drain(**join);
          for (std::size_t i = 1; i < got.size(); ++i) {
            ASSERT_LE(got[i].score, got[i - 1].score) << "rank " << i;
            if (got[i].score == got[i - 1].score) {
              ++ties;
              ASSERT_TRUE(got[i - 1].p < got[i].p ||
                          (got[i - 1].p == got[i].p && got[i - 1].q < got[i].q))
                  << "rank " << i;
            }
          }
          // ScoredPair::operator== compares scores exactly.
          ASSERT_EQ(got, want);
        }
      }
    }
  }
  EXPECT_GT(ties, 0);  // the fixtures really are tie-heavy
}

TEST(IncrementalTest, TightYBoundTiesStayCanonical) {
  // On a directed cycle each walk is deterministic, so a target whose
  // only source in P sits at distance i has a one-term Y bound equal in
  // real arithmetic to that pair's score — and, with beta = 0 (PPR),
  // an ulp under it in floating point for some lambda. Ties must still
  // come out in key order: (0, q) leads every pair of its score.
  Graph g = testing::CycleGraph(60);
  std::vector<NodeId> sources = {0};
  for (NodeId u = 20; u < 40; ++u) sources.push_back(u);
  NodeSet P("P", sources);
  NodeSet Q = Range("Q", 1, 60);
  for (double c : {0.2, 0.3}) {
    DhtParams p = DhtParams::PersonalizedPageRank(c);
    for (int d : {4, 8}) {
      auto want = RefTwoWayJoin(g, p, d, P, Q, static_cast<std::size_t>(-1));
      for (std::size_t m : {std::size_t{0}, std::size_t{3}}) {
        SCOPED_TRACE("c=" + std::to_string(c) + " d=" + std::to_string(d) +
                     " m=" + std::to_string(m));
        auto join = IncrementalTwoWayJoin::Create(g, p, d, P, Q, m);
        ASSERT_TRUE(join.ok());
        EXPECT_EQ(Drain(**join), want);
      }
    }
  }
}

TEST(IncrementalTest, ProviderWarmedStreamEqualsColdStream) {
  // A provider holding walks at assorted levels (left by a query with a
  // wider P over the same targets) changes which walks run, never the
  // stream; and the warm enumerator really scores from those walks.
  const int d = 8;
  for (const TieGraph& tg : TieHeavyGraphs()) {
    const NodeId n = tg.g.num_nodes();
    NodeSet P = Range("P", 0, n / 2);
    NodeSet wide = Range("W", 0, n);
    NodeSet Q = Range("Q", n / 4, n);
    for (double lambda : {0.2, 0.6}) {
      SCOPED_TRACE(tg.name + " lambda=" + std::to_string(lambda));
      DhtParams p = DhtParams::Lambda(lambda);
      auto cold = IncrementalTwoWayJoin::Create(tg.g, p, d, P, Q, 5);
      ASSERT_TRUE(cold.ok());
      const std::vector<ScoredPair> want = Drain(**cold);

      MapProvider provider;
      IncrementalTwoWayJoin::Options opts{.snapshots = &provider};
      auto prewarm = IncrementalTwoWayJoin::Create(tg.g, p, d, wide, Q, 5, opts);
      ASSERT_TRUE(prewarm.ok());
      for (int i = 0; i < 7 && (*prewarm)->Next().has_value(); ++i) {
      }
      auto warm = IncrementalTwoWayJoin::Create(tg.g, p, d, P, Q, 5, opts);
      ASSERT_TRUE(warm.ok());
      EXPECT_EQ(Drain(**warm), want);
      EXPECT_GT((*warm)->warm_targets(), 0);

      // A repeat reads every target straight from its stored walk.
      auto again = IncrementalTwoWayJoin::Create(tg.g, p, d, P, Q, 5, opts);
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(Drain(**again), want);
      EXPECT_EQ((*again)->cold_targets(), 0);
      EXPECT_LT((*again)->stats().walk_steps, (*cold)->stats().walk_steps);
    }
  }
}

}  // namespace
}  // namespace dhtjoin
