/// \file tests/incremental_test.cc
/// \brief The resumable F-structure enumerator behind PJ-i: its output
/// must equal the full sorted join, one pair at a time, for every m.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "datasets/yeast_like.h"
#include "graph/graph_builder.h"
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
  for (int i = 0; i < 20; ++i) {
    auto next = (*join)->Next();
    if (!next) break;
    const std::vector<double> h =
        testing::RefBackwardSweep(g, p, d, ExtNodeId(next->q));
    EXPECT_NEAR(next->score, h[static_cast<std::size_t>(next->p)], 1e-12);
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

TEST(IncrementalTest, LazyPathCountsOneMissPerColdTarget) {
  // The m = 0 enumerator deepens targets one W = 1 walk at a time:
  // with an un-evicting budget each target is cold exactly once, so
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

/// Single-threaded BatchStateProvider keeping the deepest state per
/// (target, P), like the serving cache.
class MapProvider final : public BatchStateProvider {
 public:
  void Import(const NodeSet& P, const NodeSet& Q, int /*d*/,
              BackwardBatchStates& states) override {
    for (std::size_t qi = 0; qi < Q.size(); ++qi) {
      auto it = states_.find(Key(P, Q[qi]));
      if (it != states_.end()) states.Import(qi, it->second);
    }
  }
  void WriteBack(const NodeSet& P, const NodeSet& Q, int /*d*/,
                 BackwardBatchStates& states,
                 std::span<const int> imported_level) override {
    for (std::size_t qi = 0; qi < Q.size(); ++qi) {
      if (states.level(qi) <= imported_level[qi]) continue;
      std::shared_ptr<const BackwardBatchSnapshot> snap = states.Take(qi);
      std::shared_ptr<const BackwardBatchSnapshot>& slot =
          states_[Key(P, Q[qi])];
      if (slot == nullptr || slot->level < snap->level) slot = std::move(snap);
    }
  }

 private:
  static std::vector<NodeId> Key(const NodeSet& P, ExtNodeId q) {
    std::vector<NodeId> key;
    for (ExtNodeId p : P) key.push_back(p.value());
    key.push_back(q.value());
    return key;
  }

  std::map<std::vector<NodeId>, std::shared_ptr<const BackwardBatchSnapshot>>
      states_;
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

TEST(IncrementalTest, DrainStartsEveryTargetOnce) {
  // The schedule's pruned targets keep their states and Next() resumes
  // them: with a budget that evicts nothing, draining the whole stream
  // starts each target's walk from scratch exactly once.
  Graph g = RandomGraph(50, 150, 218, /*undirected=*/true,
                        /*weighted=*/true);
  DhtParams p = DhtParams::Lambda(0.2);
  NodeSet P = Range("P", 0, 18);
  NodeSet Q = Range("Q", 24, 42);
  auto join = IncrementalTwoWayJoin::Create(
      g, p, 8, P, Q, 3,
      IncrementalTwoWayJoin::Options{.state_budget_bytes = std::size_t{1}
                                                           << 30});
  ASSERT_TRUE(join.ok());
  const TwoWayJoinStats& st = (*join)->stats();
  ASSERT_LT(st.live_per_iteration.back(), static_cast<int64_t>(Q.size()))
      << "the schedule must prune for Next() to re-activate anything";
  EXPECT_EQ(Drain(**join),
            RefTwoWayJoin(g, p, 8, P, Q, static_cast<std::size_t>(-1)));
  EXPECT_EQ(st.state_evictions, 0);
  EXPECT_EQ(st.walks_started, static_cast<int64_t>(Q.size()));
  EXPECT_EQ(st.state_misses, static_cast<int64_t>(Q.size()));
}

// ----------------------------------------- F's blocker and tie put-back

TEST(IncrementalTest, BlockerCountsTheTopTargetsRunnerUp) {
  // Only target 10 has pairs, so F holds one entry and no other target's
  // key blocks anything: (1, 10) leads at level 1, and only its own
  // runner-up (0, 10) can block it. At lambda = 0.2 both pairs score
  // exactly the same, so the tie run must emit (0, 10) first. At 0.6
  // (0, 10) wins outright; the runner-up blocks (1, 10) at level 1, so
  // target 10 is resumed at level 2 and then at d. A blocker without
  // the runner-up leaves the tie at 0.2 to the order of the row's equal
  // cells, and at 0.6 jumps target 10 straight to d, resuming it once.
  GraphBuilder b(12, /*undirected=*/false);
  ASSERT_TRUE(b.AddEdge(1, 10, 0.6).ok());
  ASSERT_TRUE(b.AddEdge(1, 6, 0.4).ok());
  ASSERT_TRUE(b.AddEdge(0, 10, 0.5).ok());
  ASSERT_TRUE(b.AddEdge(0, 5, 0.5).ok());
  ASSERT_TRUE(b.AddEdge(5, 10, 1.0).ok());
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  const NodeSet P("P", std::vector<NodeId>{0, 1});
  const NodeSet Q("Q", std::vector<NodeId>{10, 11});
  const int d = 8;

  const DhtParams tie = DhtParams::Lambda(0.2);
  auto join = IncrementalTwoWayJoin::Create(*g, tie, d, P, Q, 0);
  ASSERT_TRUE(join.ok());
  const std::vector<ScoredPair> got = Drain(**join);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].score, got[1].score);
  EXPECT_EQ(got[0].p, NodeId{0});
  EXPECT_EQ(got[1].p, NodeId{1});
  EXPECT_EQ(got, RefTwoWayJoin(*g, tie, d, P, Q, static_cast<std::size_t>(-1)));

  const DhtParams apart = DhtParams::Lambda(0.6);
  join = IncrementalTwoWayJoin::Create(*g, apart, d, P, Q, 0);
  ASSERT_TRUE(join.ok());
  EXPECT_EQ(Drain(**join),
            RefTwoWayJoin(*g, apart, d, P, Q, static_cast<std::size_t>(-1)));
  EXPECT_EQ((*join)->stats().state_hits, 2);
  EXPECT_EQ((*join)->stats().state_misses, 1);
}

TEST(IncrementalTest, TieRunPutsBackExactPairsBelowItsScore) {
  // EmitTieRun takes out of F every exact pair within the rounding
  // margin under the run's score s; those scoring under s must go back
  // and wait for their own turn. These directed weighted graphs reach
  // that put-back: a drain that dropped it would lose pairs.
  struct Case {
    uint64_t seed;
    double lambda;
  };
  const int d = 8;
  const NodeSet P = Range("P", 0, 16);
  const NodeSet Q = Range("Q", 8, 24);
  for (const Case c : {Case{306, 0.2}, Case{420, 0.2}, Case{752, 0.2},
                       Case{1367, 0.2}, Case{1680, 0.2}, Case{1724, 0.2},
                       Case{1960, 0.2}, Case{2776, 0.2}, Case{2227, 0.6}}) {
    Graph g = RandomGraph(24, 60, c.seed, /*undirected=*/false,
                          /*weighted=*/true);
    const DhtParams p = DhtParams::Lambda(c.lambda);
    const auto want = RefTwoWayJoin(g, p, d, P, Q, static_cast<std::size_t>(-1));
    for (std::size_t m : {std::size_t{0}, std::size_t{5}}) {
      SCOPED_TRACE("seed=" + std::to_string(c.seed) +
                   " m=" + std::to_string(m));
      auto join = IncrementalTwoWayJoin::Create(g, p, d, P, Q, m);
      ASSERT_TRUE(join.ok());
      EXPECT_EQ(Drain(**join), want);
    }
  }
}

// ------------------------------------------------ pinned walk work

/// The Yeast-like fixture of the pinned-work tests: a 1,200-node graph
/// and the top-40 sets by degree of its partitions a and a + 1.
struct YeastEdges {
  datasets::YeastLikeDataset ds;

  YeastEdges() {
    auto r = datasets::GenerateYeastLike(
        {.num_nodes = 1200, .num_edges = 3600, .seed = 13});
    DHTJOIN_CHECK(r.ok());
    ds = std::move(r).value();
  }
  NodeSet P(int a) const {
    return ds.partitions[static_cast<std::size_t>(a)].TopByDegree(ds.graph,
                                                                   40);
  }
  NodeSet Q(int a) const { return P(a + 1); }
};

TEST(IncrementalTest, WalkWorkIsPinned) {
  // How F is kept must not move a deepening: each case's counters after
  // its first 300 pairs are the ones the per-pair heap recorded. A
  // budget that evicts nothing keeps them independent of thread timing.
  struct Pinned {
    int a;
    double lambda;
    UpperBoundKind bound;
    std::size_t m;
    int64_t walk_steps;
    int64_t walks_started;
    int64_t state_hits;
    int64_t state_misses;
    std::vector<int64_t> live;
  };
  constexpr UpperBoundKind kY = UpperBoundKind::kY;
  constexpr UpperBoundKind kX = UpperBoundKind::kX;
  const std::vector<Pinned> pinned = {
    {0, 0.2, kY, 0, 1410305, 40, 120, 40, {}},
    {0, 0.2, kY, 5, 1479438, 40, 120, 40, {40, 9, 7, 5}},
    {0, 0.2, kY, 50, 1704821, 40, 120, 40, {40, 40, 33, 27}},
    {0, 0.2, kX, 0, 1359526, 40, 120, 40, {}},
    {0, 0.2, kX, 5, 1506293, 40, 120, 40, {40, 40, 17, 6}},
    {0, 0.2, kX, 50, 1730794, 40, 120, 40, {40, 40, 40, 37}},
    {0, 0.6, kY, 0, 1410305, 40, 120, 40, {}},
    {0, 0.6, kY, 5, 1556921, 40, 120, 40, {40, 19, 16, 10}},
    {0, 0.6, kY, 50, 1781573, 40, 120, 40, {40, 40, 40, 38}},
    {0, 0.6, kX, 0, 1359526, 40, 120, 40, {}},
    {0, 0.6, kX, 5, 1730794, 40, 120, 40, {40, 40, 40, 40}},
    {0, 0.6, kX, 50, 1730794, 40, 120, 40, {40, 40, 40, 40}},
    {1, 0.2, kY, 0, 1437698, 40, 120, 40, {}},
    {1, 0.2, kY, 5, 1449217, 40, 120, 40, {40, 10, 5, 5}},
    {1, 0.2, kY, 50, 1655368, 40, 120, 40, {40, 40, 35, 30}},
    {1, 0.2, kX, 0, 1386915, 40, 120, 40, {}},
    {1, 0.2, kX, 5, 1555599, 40, 120, 40, {40, 40, 20, 5}},
    {1, 0.2, kX, 50, 1675935, 40, 120, 40, {40, 40, 40, 34}},
    {1, 0.6, kY, 0, 1437698, 40, 120, 40, {}},
    {1, 0.6, kY, 5, 1606382, 40, 120, 40, {40, 21, 20, 11}},
    {1, 0.6, kY, 50, 1726718, 40, 120, 40, {40, 40, 40, 37}},
    {1, 0.6, kX, 0, 1386915, 40, 120, 40, {}},
    {1, 0.6, kX, 5, 1675935, 40, 120, 40, {40, 40, 40, 40}},
    {1, 0.6, kX, 50, 1675935, 40, 120, 40, {40, 40, 40, 40}},
    {2, 0.2, kY, 0, 1440550, 40, 120, 40, {}},
    {2, 0.2, kY, 5, 1493102, 40, 120, 40, {40, 13, 7, 5}},
    {2, 0.2, kY, 50, 1711482, 40, 120, 40, {40, 40, 35, 29}},
    {2, 0.2, kX, 0, 1395363, 40, 120, 40, {}},
    {2, 0.2, kX, 5, 1519505, 40, 120, 40, {40, 40, 16, 6}},
    {2, 0.2, kX, 50, 1731174, 40, 120, 40, {40, 40, 40, 36}},
    {2, 0.6, kY, 0, 1440550, 40, 120, 40, {}},
    {2, 0.6, kY, 5, 1564692, 40, 120, 40, {40, 19, 16, 12}},
    {2, 0.6, kY, 50, 1776361, 40, 120, 40, {40, 40, 40, 39}},
    {2, 0.6, kX, 0, 1395363, 40, 120, 40, {}},
    {2, 0.6, kX, 5, 1731174, 40, 120, 40, {40, 40, 40, 40}},
    {2, 0.6, kX, 50, 1731174, 40, 120, 40, {40, 40, 40, 40}},
    {3, 0.2, kY, 0, 1347653, 40, 120, 40, {}},
    {3, 0.2, kY, 5, 1400719, 40, 120, 40, {40, 8, 7, 5}},
    {3, 0.2, kY, 50, 1624660, 40, 120, 40, {40, 40, 32, 22}},
    {3, 0.2, kX, 0, 1302297, 40, 120, 40, {}},
    {3, 0.2, kX, 5, 1384867, 40, 120, 40, {40, 40, 13, 6}},
    {3, 0.2, kX, 50, 1620618, 40, 120, 40, {40, 40, 40, 34}},
    {3, 0.6, kY, 0, 1347653, 40, 120, 40, {}},
    {3, 0.6, kY, 5, 1430161, 40, 120, 40, {40, 13, 12, 9}},
    {3, 0.6, kY, 50, 1605583, 40, 120, 40, {40, 40, 39, 37}},
    {3, 0.6, kX, 0, 1302297, 40, 120, 40, {}},
    {3, 0.6, kX, 5, 1620618, 40, 120, 40, {40, 40, 40, 40}},
    {3, 0.6, kX, 50, 1620618, 40, 120, 40, {40, 40, 40, 40}},
  };
  const YeastEdges y;
  const int d = 8;
  for (const Pinned& c : pinned) {
    SCOPED_TRACE("a=" + std::to_string(c.a) +
                 " lambda=" + std::to_string(c.lambda) +
                 (c.bound == kY ? " Y" : " X") + " m=" + std::to_string(c.m));
    const DhtParams p = DhtParams::Lambda(c.lambda);
    const NodeSet P = y.P(c.a);
    const NodeSet Q = y.Q(c.a);
    auto join = IncrementalTwoWayJoin::Create(
        y.ds.graph, p, d, P, Q, c.m,
        IncrementalTwoWayJoin::Options{
            .bound = c.bound, .state_budget_bytes = std::size_t{1} << 30});
    ASSERT_TRUE(join.ok());
    std::vector<ScoredPair> got;
    while (got.size() < 300) {
      auto next = (*join)->Next();
      if (!next) break;
      got.push_back(*next);
    }
    EXPECT_EQ(got, RefTwoWayJoin(y.ds.graph, p, d, P, Q, 300));
    const TwoWayJoinStats& st = (*join)->stats();
    EXPECT_EQ(st.walk_steps, c.walk_steps);
    EXPECT_EQ(st.walks_started, c.walks_started);
    EXPECT_EQ(st.state_hits, c.state_hits);
    EXPECT_EQ(st.state_misses, c.state_misses);
    EXPECT_EQ(st.live_per_iteration, c.live);
  }
}

TEST(IncrementalTest, NextStaysExactAfterWriteBack) {
  // WriteBackStates() hands the deeper states to the provider mid-stream;
  // the targets it took restart from scratch, and the rest of the drain
  // must still be the full join's.
  const YeastEdges y;
  const int d = 8;
  for (int a = 0; a < 4; ++a) {
    const NodeSet P = y.P(a);
    const NodeSet Q = y.Q(a);
    for (double lambda : {0.2, 0.6}) {
      const DhtParams p = DhtParams::Lambda(lambda);
      const auto want = RefTwoWayJoin(y.ds.graph, p, d, P, Q,
                                      static_cast<std::size_t>(-1));
      for (UpperBoundKind bound : {UpperBoundKind::kY, UpperBoundKind::kX}) {
        for (std::size_t m : {std::size_t{0}, std::size_t{5}, std::size_t{50}}) {
          for (std::size_t before : {std::size_t{1}, std::size_t{7},
                                     std::size_t{30}}) {
            SCOPED_TRACE("a=" + std::to_string(a) +
                         " lambda=" + std::to_string(lambda) +
                         (bound == UpperBoundKind::kY ? " Y" : " X") +
                         " m=" + std::to_string(m) +
                         " before=" + std::to_string(before));
            MapProvider provider;
            auto join = IncrementalTwoWayJoin::Create(
                y.ds.graph, p, d, P, Q, m,
                IncrementalTwoWayJoin::Options{.bound = bound,
                                               .snapshots = &provider});
            ASSERT_TRUE(join.ok());
            std::vector<ScoredPair> got;
            for (std::size_t i = 0; i < before; ++i) {
              auto next = (*join)->Next();
              ASSERT_TRUE(next.has_value());
              got.push_back(*next);
            }
            (*join)->WriteBackStates();
            const std::vector<ScoredPair> rest = Drain(**join);
            got.insert(got.end(), rest.begin(), rest.end());
            EXPECT_EQ(got, want);
          }
        }
      }
    }
  }
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
  // A provider holding states of the same (P, Q) at assorted levels —
  // left by a query with another m that stopped after a few pairs —
  // changes which walks run, never the stream; and the warm enumerator
  // really scores from those states, eagerly and lazily.
  const int d = 8;
  for (const TieGraph& tg : TieHeavyGraphs()) {
    const NodeId n = tg.g.num_nodes();
    NodeSet P = Range("P", 0, n / 2);
    NodeSet Q = Range("Q", n / 4, n);
    for (double lambda : {0.2, 0.6}) {
      SCOPED_TRACE(tg.name + " lambda=" + std::to_string(lambda));
      DhtParams p = DhtParams::Lambda(lambda);
      auto cold = IncrementalTwoWayJoin::Create(tg.g, p, d, P, Q, 5);
      ASSERT_TRUE(cold.ok());
      const std::vector<ScoredPair> want = Drain(**cold);

      MapProvider provider;
      IncrementalTwoWayJoin::Options opts{.snapshots = &provider};
      auto prewarm = IncrementalTwoWayJoin::Create(tg.g, p, d, P, Q, 1, opts);
      ASSERT_TRUE(prewarm.ok());
      for (int i = 0; i < 7 && (*prewarm)->Next().has_value(); ++i) {
      }
      (*prewarm)->WriteBackStates();
      auto lazy = IncrementalTwoWayJoin::Create(tg.g, p, d, P, Q, 0, opts);
      ASSERT_TRUE(lazy.ok());
      EXPECT_EQ(Drain(**lazy), want);
      EXPECT_GT((*lazy)->warm_targets(), 0);
      auto warm = IncrementalTwoWayJoin::Create(tg.g, p, d, P, Q, 5, opts);
      ASSERT_TRUE(warm.ok());
      EXPECT_EQ(Drain(**warm), want);
      EXPECT_GT((*warm)->warm_targets(), 0);
      (*warm)->WriteBackStates();

      // A repeat starts every target from its stored state.
      auto again = IncrementalTwoWayJoin::Create(tg.g, p, d, P, Q, 5, opts);
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(Drain(**again), want);
      EXPECT_EQ((*again)->cold_targets(), 0);
      EXPECT_EQ((*again)->stats().walks_started, 0);
      EXPECT_LT((*again)->stats().walk_steps, (*cold)->stats().walk_steps);
    }
  }
}

}  // namespace
}  // namespace dhtjoin
