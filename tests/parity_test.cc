/// \file tests/parity_test.cc
/// \brief Cross-algorithm parity for the shared result semantics of
/// join2/two_way_join.h: floor-score (unreachable) pairs are excluded
/// by every algorithm via the same strict `score > beta` test (so
/// under-k results are uniform), and equal-score ties at the k-th
/// boundary resolve to the same (p, q)-ascending choice everywhere —
/// across the five 2-way algorithms, the incremental enumerator, and
/// NestedLoopJoin on a 2-set query.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/nl_join.h"
#include "join2/b_bj.h"
#include "join2/b_idj.h"
#include "join2/f_bj.h"
#include "join2/f_idj.h"
#include "join2/incremental.h"
#include "testing/reference.h"
#include "util/rng.h"
#include "util/top_k.h"

namespace dhtjoin {
namespace {

using testing::Range;
using testing::StarGraph;

std::vector<std::unique_ptr<TwoWayJoin>> AllAlgorithms() {
  std::vector<std::unique_ptr<TwoWayJoin>> algos;
  algos.push_back(std::make_unique<FBjJoin>());
  algos.push_back(std::make_unique<FIdjJoin>());
  algos.push_back(std::make_unique<FIdjJoin>(FIdjJoin::Options{.resume = false}));
  algos.push_back(std::make_unique<BBjJoin>());
  algos.push_back(
      std::make_unique<BIdjJoin>(BIdjJoin::Options{UpperBoundKind::kX}));
  algos.push_back(
      std::make_unique<BIdjJoin>(BIdjJoin::Options{UpperBoundKind::kY}));
  algos.push_back(std::make_unique<BIdjJoin>(
      BIdjJoin::Options{.bound = UpperBoundKind::kY, .resume = false}));
  return algos;
}

/// Two weakly separated communities plus isolated nodes: most (p, q)
/// combinations are unreachable within d steps, so joins return far
/// fewer than k pairs.
Graph MostlyUnreachableGraph() {
  GraphBuilder b(20, /*undirected=*/false);
  // Community A: directed ring 0..5.
  for (NodeId u = 0; u < 6; ++u) {
    DHTJOIN_CHECK(b.AddEdge(u, (u + 1) % 6).ok());
  }
  // Community B: directed ring 8..13.
  for (NodeId u = 8; u < 14; ++u) {
    DHTJOIN_CHECK(b.AddEdge(u, u == 13 ? 8 : u + 1).ok());
  }
  // One-way bridge A -> B only.
  DHTJOIN_CHECK(b.AddEdge(2, 9, 0.5).ok());
  // Nodes 14..19 isolated except a sink edge into 14 (nothing leaves).
  DHTJOIN_CHECK(b.AddEdge(5, 14).ok());
  auto g = b.Build();
  DHTJOIN_CHECK(g.ok());
  return std::move(g).value();
}

/// Drains the incremental enumerator into the standard result form.
std::vector<ScoredPair> DrainIncremental(const Graph& g, const DhtParams& p,
                                         int d, const NodeSet& P,
                                         const NodeSet& Q, std::size_t k) {
  auto join = IncrementalTwoWayJoin::Create(g, p, d, P, Q, k);
  DHTJOIN_CHECK(join.ok());
  std::vector<ScoredPair> out;
  while (out.size() < k) {
    auto next = (*join)->Next();
    if (!next.has_value()) break;
    out.push_back(*next);
  }
  return out;
}

/// Runs NestedLoopJoin on the 2-set query (P) -edge-> (Q) and lifts the
/// tuple answers back into scored pairs.
std::vector<ScoredPair> NlAsTwoWay(const Graph& g, const DhtParams& p, int d,
                                   const NodeSet& P, const NodeSet& Q,
                                   std::size_t k) {
  QueryGraph query;
  int a = query.AddNodeSet(P);
  int b = query.AddNodeSet(Q);
  DHTJOIN_CHECK(query.AddEdge(a, b).ok());
  NestedLoopJoin nl;
  MinAggregate f;
  auto got = nl.Run(g, p, d, query, f, k);
  DHTJOIN_CHECK(got.ok());
  std::vector<ScoredPair> out;
  for (const TupleAnswer& t : *got) {
    out.push_back(ScoredPair{t.nodes[0], t.nodes[1], t.edge_scores[0]});
  }
  return out;
}

TEST(ParityTest, UnderKSemanticsUniformAcrossAlgorithms) {
  Graph g = MostlyUnreachableGraph();
  const int d = 6;
  NodeSet P = Range("P", 0, 10);   // community A + a bit of B
  NodeSet Q = Range("Q", 8, 20);   // community B + unreachable tail
  const std::size_t k = 500;       // far above the valid pair count
  for (const DhtParams& p :
       {DhtParams::Lambda(0.2), DhtParams::Exponential(),
        DhtParams::PersonalizedPageRank(0.7)}) {
    auto want = testing::RefTwoWayJoin(g, p, d, P, Q, k);
    ASSERT_GT(want.size(), 0u);
    // Many pairs must be invalid for this test to bite.
    ASSERT_LT(want.size(), P.size() * Q.size() / 2);
    for (auto& algo : AllAlgorithms()) {
      auto got = algo->Run(g, p, d, P, Q, k);
      ASSERT_TRUE(got.ok()) << algo->Name();
      ASSERT_EQ(got->size(), want.size())
          << algo->Name() << ": under-k count diverges (floor-score "
          << "pairs must be dropped uniformly)";
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ((*got)[i].p, want[i].p) << algo->Name() << " rank " << i;
        EXPECT_EQ((*got)[i].q, want[i].q) << algo->Name() << " rank " << i;
        EXPECT_NEAR((*got)[i].score, want[i].score, 1e-12)
            << algo->Name() << " rank " << i;
      }
    }
    auto inc = DrainIncremental(g, p, d, P, Q, k);
    ASSERT_EQ(inc.size(), want.size()) << "incremental under-k diverges";
    auto nl = NlAsTwoWay(g, p, d, P, Q, k);
    ASSERT_EQ(nl.size(), want.size()) << "NL under-k diverges";
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(nl[i].p, want[i].p) << "NL rank " << i;
      EXPECT_EQ(nl[i].q, want[i].q) << "NL rank " << i;
    }
  }
}

TEST(ParityTest, TieBreaksAreDeterministicAcrossAlgorithms) {
  // Star: every leaf has the identical score to the hub, so the top-k
  // boundary is one big tie; each algorithm computes the tied scores
  // with identical FP operations internally, so the (p, q)-ascending
  // tie policy must pick exactly the same pairs everywhere.
  Graph g = StarGraph(12);
  DhtParams p = DhtParams::Lambda(0.3);
  const int d = 8;
  NodeSet P = Range("P", 1, 11);  // leaves
  NodeSet Q("Q", std::vector<NodeId>{0});  // hub
  const std::size_t k = 4;        // < 10 tied pairs
  std::vector<ScoredPair> expect;
  for (NodeId leaf = 1; leaf <= 4; ++leaf) {
    expect.push_back(ScoredPair{leaf, 0, 0.0});  // smallest (p, q) win
  }
  for (auto& algo : AllAlgorithms()) {
    auto got = algo->Run(g, p, d, P, Q, k);
    ASSERT_TRUE(got.ok()) << algo->Name();
    ASSERT_EQ(got->size(), k) << algo->Name();
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_EQ((*got)[i].p, expect[i].p) << algo->Name() << " rank " << i;
      EXPECT_EQ((*got)[i].q, expect[i].q) << algo->Name() << " rank " << i;
    }
  }
  auto nl = NlAsTwoWay(g, p, d, P, Q, k);
  ASSERT_EQ(nl.size(), k);
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_EQ(nl[i].p, expect[i].p) << "NL rank " << i;
  }
}

TEST(ParityTest, TopKTieBreakRetainsPreferredItems) {
  // Unit-level: at a tied boundary the preferred (smaller) item wins
  // regardless of arrival order.
  PairTopK heap(2);
  heap.Offer(1.0, ScoredPair{5, 5, 1.0});
  heap.Offer(1.0, ScoredPair{3, 3, 1.0});
  heap.Offer(1.0, ScoredPair{4, 4, 1.0});
  heap.Offer(1.0, ScoredPair{9, 9, 1.0});
  auto entries = heap.TakeSortedDescending();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].item.p, 3);
  EXPECT_EQ(entries[1].item.p, 4);

  // Higher keys still dominate the tie policy.
  PairTopK heap2(2);
  heap2.Offer(1.0, ScoredPair{1, 1, 1.0});
  heap2.Offer(2.0, ScoredPair{9, 9, 2.0});
  heap2.Offer(1.0, ScoredPair{2, 2, 1.0});
  auto entries2 = heap2.TakeSortedDescending();
  ASSERT_EQ(entries2.size(), 2u);
  EXPECT_EQ(entries2[0].item.p, 9);
  EXPECT_EQ(entries2[1].item.p, 1);
}

TEST(ParityTest, TopKRejectsAgreesWithOffer) {
  // Rejects is the test Offer applies, callable before the item exists:
  // on a tie-heavy stream it must predict every Offer outcome, for pairs
  // probed by the pair itself and for tuples probed by a bare node
  // vector (the way NL and PBRJ call it).
  constexpr double kKeys[] = {-1.0, -0.5, 0.0, 0.5, 1.0};
  Rng rng(14);
  for (std::size_t capacity : {std::size_t{1}, std::size_t{3},
                               std::size_t{16}}) {
    PairTopK pairs(capacity);
    TupleTopK tuples(capacity);
    int tie_kept = 0;
    int tie_rejected = 0;
    for (int step = 0; step < 10000; ++step) {
      const double key = kKeys[rng.Below(5)];
      const ScoredPair pair{static_cast<NodeId>(rng.Below(8)),
                            static_cast<NodeId>(rng.Below(8)), key};
      const bool full = pairs.size() == capacity;
      const bool tie = full && key == pairs.Threshold();
      const bool rejects = pairs.Rejects(key, pair);
      ASSERT_EQ(rejects, !pairs.Offer(key, pair))
          << "pairs, capacity " << capacity << " step " << step;
      if (tie) ++(rejects ? tie_rejected : tie_kept);

      std::vector<NodeId> nodes;
      for (int a = 0; a < 3; ++a) {
        nodes.push_back(static_cast<NodeId>(rng.Below(4)));
      }
      const bool tuple_rejects = tuples.Rejects(key, nodes);
      ASSERT_EQ(tuple_rejects,
                !tuples.Offer(key, TupleAnswer{nodes, {key}, key}))
          << "tuples, capacity " << capacity << " step " << step;
    }
    // Both sides of the tie rule were exercised.
    EXPECT_GT(tie_kept, 0) << "capacity " << capacity;
    EXPECT_GT(tie_rejected, 0) << "capacity " << capacity;
  }
}

TEST(ParityTest, NlTableAndPerTuplePathsAgree) {
  // Forcing max_table_bytes = 0 exercises NL's O(1)-memory per-tuple
  // fallback; it must return the same bytes as the batched tables (the
  // forward batch and the scalar walker agree bitwise, see
  // ResumeTest.ForwardBatchMatchesScalarWalker). The 3-set chain makes
  // the fallback score edges at two loop levels; P and Q share nodes 8
  // and 9, so self pairs occur.
  Graph g = MostlyUnreachableGraph();
  DhtParams p = DhtParams::Lambda(0.3);
  QueryGraph pair_query;
  {
    int a = pair_query.AddNodeSet(Range("P", 0, 10));
    int b = pair_query.AddNodeSet(Range("Q", 8, 16));
    DHTJOIN_CHECK(pair_query.AddEdge(a, b).ok());
  }
  QueryGraph chain_query;
  {
    int a = chain_query.AddNodeSet(Range("P", 0, 10));
    int b = chain_query.AddNodeSet(Range("Q", 8, 16));
    int c = chain_query.AddNodeSet(Range("R", 9, 15));
    DHTJOIN_CHECK(chain_query.AddEdge(a, b).ok());
    DHTJOIN_CHECK(chain_query.AddEdge(b, c).ok());
  }
  MinAggregate min;
  SumAggregate sum;
  for (const QueryGraph* query : {&pair_query, &chain_query}) {
    for (const Aggregate* f : {static_cast<const Aggregate*>(&min),
                               static_cast<const Aggregate*>(&sum)}) {
      const std::string label = std::to_string(query->num_sets()) +
                                " sets, " + f->Name();
      NestedLoopJoin tabled;
      NestedLoopJoin per_tuple(
          NestedLoopJoin::Options{.max_table_bytes = 0});
      auto x = tabled.Run(g, p, 6, *query, *f, 20);
      auto y = per_tuple.Run(g, p, 6, *query, *f, 20);
      ASSERT_TRUE(x.ok());
      ASSERT_TRUE(y.ok());
      ASSERT_GT(x->size(), 0u) << label;
      testing::ExpectSameTuples(*y, *x, label);
      EXPECT_DOUBLE_EQ(
          static_cast<double>(tabled.stats().tuples_enumerated),
          query->CandidateSpace())
          << label;
      EXPECT_EQ(per_tuple.stats().tuples_enumerated,
                tabled.stats().tuples_enumerated)
          << label;
    }
  }
}

TEST(ParityTest, ExactFloorScoresAreExcludedEverywhere) {
  // A pair whose only walks exceed depth d scores exactly beta at depth
  // d — the floor — and must be excluded, not returned as a zero-signal
  // filler, even when that leaves fewer than k results.
  Graph g = testing::PathGraph(6);  // 0 -> 1 -> ... -> 5
  DhtParams p = DhtParams::Lambda(0.2);
  const int d = 2;
  NodeSet P("P", std::vector<NodeId>{0});
  NodeSet Q("Q", {1, 2, 3, 4, 5});  // only 1 and 2 reachable within 2
  for (auto& algo : AllAlgorithms()) {
    auto got = algo->Run(g, p, d, P, Q, 10);
    ASSERT_TRUE(got.ok()) << algo->Name();
    ASSERT_EQ(got->size(), 2u) << algo->Name();
    EXPECT_EQ((*got)[0].q, 1) << algo->Name();
    EXPECT_EQ((*got)[1].q, 2) << algo->Name();
    for (const ScoredPair& sp : *got) {
      EXPECT_GT(sp.score, p.beta) << algo->Name();
    }
  }
  auto nl = NlAsTwoWay(g, p, d, P, Q, 10);
  ASSERT_EQ(nl.size(), 2u);
  auto inc = DrainIncremental(g, p, d, P, Q, 10);
  ASSERT_EQ(inc.size(), 2u);
}

}  // namespace
}  // namespace dhtjoin
