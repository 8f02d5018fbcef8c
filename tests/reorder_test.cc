/// \file tests/reorder_test.cc
/// \brief Cache-conscious relayout (graph/reorder.h) property tests.
///
/// The load-bearing claims (DESIGN.md §7):
///  1. Reordering is a pure physical optimization — every engine and
///     join returns BYTE-identical scores and rankings on a reordered
///     graph (under the external-id remap carried by the Graph).
///  2. The reachability-restricted dense sweep is exact — identical
///     bits to the full sweep — and strictly cheaper on
///     saturated-but-local walks.
///  3. The serving cache can never alias payloads across layouts
///     (layout-epoch-aware GraphFingerprint), even when two layouts'
///     CSR bits coincide.

#include <cmath>
#include <cstdio>
#include <vector>

#include <gtest/gtest.h>

#include "core/nl_join.h"
#include "core/partial_join.h"
#include "datasets/perturb.h"
#include "dht/backward_batch.h"
#include "dht/forward_batch.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "graph/reorder.h"
#include "join2/b_bj.h"
#include "join2/b_idj.h"
#include "join2/f_bj.h"
#include "join2/f_idj.h"
#include "join2/incremental.h"
#include "serve/score_cache.h"
#include "serve/session.h"
#include "testing/reference.h"

namespace dhtjoin {
namespace {

using testing::ClusteredGraph;
using testing::RandomGraph;
using testing::Range;

Graph Reordered(const Graph& g, ReorderKind kind) {
  auto r = ReorderGraph(g, kind);
  DHTJOIN_CHECK(r.ok());
  return std::move(r).value();
}

TEST(ReorderTest, PermutationsAreValidAndRemapInverts) {
  Graph g = RandomGraph(80, 240, 9, true, true);
  for (ReorderKind kind : {ReorderKind::kDegree, ReorderKind::kRcm}) {
    Graph rg = Reordered(g, kind);
    ASSERT_EQ(rg.num_nodes(), g.num_nodes());
    ASSERT_EQ(rg.num_edges(), g.num_edges());
    EXPECT_TRUE(rg.is_reordered());
    EXPECT_NE(rg.layout_epoch(), 0u);
    std::vector<bool> hit(static_cast<std::size_t>(g.num_nodes()), false);
    for (NodeId u = 0; u < rg.num_nodes(); ++u) {
      const IntNodeId iu = IntNodeId(u);
      ExtNodeId ext = rg.ToExternal(iu);
      ASSERT_TRUE(rg.ContainsNode(ext));
      EXPECT_EQ(rg.ToInternal(ext).value(), u);
      EXPECT_FALSE(hit[static_cast<std::size_t>(ext.value())]);
      hit[static_cast<std::size_t>(ext.value())] = true;
      // Structure is preserved under the remap: same degrees, weights.
      // `g` is insertion-ordered, so its internal ids ARE external ids.
      EXPECT_EQ(rg.OutDegree(iu), g.OutDegree(IntNodeId(ext.value())));
      EXPECT_EQ(rg.InDegree(iu), g.InDegree(IntNodeId(ext.value())));
      auto row = rg.OutEdges(iu);
      auto weights = rg.OutWeights(iu);
      for (std::size_t i = 0; i < row.size(); ++i) {
        const IntNodeId gu = g.ToInternal(ext);
        const IntNodeId gv = g.ToInternal(rg.ToExternal(IntNodeId(row[i].to)));
        EXPECT_EQ(g.EdgeWeight(gu, gv), weights[i]);
        EXPECT_EQ(g.HasEdge(gu, gv), rg.HasEdge(iu, IntNodeId(row[i].to)));
      }
    }
  }
  // Degree layout: hubs first.
  Graph dg = Reordered(g, ReorderKind::kDegree);
  for (NodeId u = 0; u + 1 < dg.num_nodes(); ++u) {
    EXPECT_GE(dg.Degree(IntNodeId(u)), dg.Degree(IntNodeId(u + 1)));
  }
}

TEST(ReorderTest, RejectsNonPermutations) {
  Graph g = RandomGraph(10, 20, 3);
  std::vector<NodeId> bad(static_cast<std::size_t>(g.num_nodes()), 0);
  EXPECT_FALSE(ApplyNodePermutation(g, bad).ok());
  bad.resize(3);
  EXPECT_FALSE(ApplyNodePermutation(g, bad).ok());
}

TEST(ReorderTest, ReorderOfReorderedComposesToOriginalExternalIds) {
  Graph g = RandomGraph(60, 200, 11, true, true);
  Graph once = Reordered(g, ReorderKind::kDegree);
  Graph twice = Reordered(once, ReorderKind::kRcm);
  // External ids still mean construction-time ids after two relayouts.
  for (NodeId ext = 0; ext < g.num_nodes(); ++ext) {
    IntNodeId u = twice.ToInternal(ExtNodeId(ext));
    EXPECT_EQ(twice.ToExternal(u).value(), ext);
    EXPECT_EQ(twice.Degree(u), g.Degree(g.ToInternal(ExtNodeId(ext))));
  }
  // RCM of an RCM-equivalent layout equals RCM of the original: the
  // permutation is computed over canonical ids, not layout ids.
  Graph direct = Reordered(g, ReorderKind::kRcm);
  EXPECT_EQ(direct.layout_epoch(), twice.layout_epoch());
}

struct Walk {
  std::vector<double> mass;  // indexed by EXTERNAL node id
  int64_t edges_relaxed = 0;
};

/// Walks `d` steps of the non-absorbing (visiting) walk from `seed`
/// (external) on the single-lane engine of one direction, and returns
/// its saved mass and its edge bill.
Walk WalkAfter(const Graph& g, bool forward, PropagationMode mode,
               NodeId seed, int d, bool restrict_dense = true) {
  const DhtParams p = DhtParams::PersonalizedPageRank(0.5);
  const ExtNodeId s(seed);
  const std::size_t slot = 0;
  Walk out;
  auto read = [&](const batch_core::SparseMass& mass) {
    out.mass.assign(static_cast<std::size_t>(g.num_nodes()), 0.0);
    for (std::size_t i = 0; i < mass.size(); ++i) {
      out.mass[static_cast<std::size_t>(
          g.ToExternal(IntNodeId(mass.nodes[i])).value())] = mass.values[i];
    }
  };
  if (forward) {
    ForwardWalkerBatchT<1> batch(
        g, {.mode = mode, .restrict_dense = restrict_dense});
    ForwardBatchStates states;
    batch.AdvancePairs(p, d, {&s, 1}, {&slot, 1}, s, states,
                       [](std::size_t, double) {});
    read(*states.mass(slot));
    out.edges_relaxed = batch.edges_relaxed();
  } else {
    BackwardWalkerBatchT<1> batch(
        g, {.mode = mode, .restrict_dense = restrict_dense});
    BackwardBatchStates states(1);
    batch.AdvanceChunked(p, d, {&s, 1}, {&slot, 1}, {&s, 1}, states,
                         [](std::size_t, const double*) {});
    read(states.Saved(slot)->mass);
    out.edges_relaxed = batch.edges_relaxed();
  }
  return out;
}

TEST(ReorderTest, PropagatorBitIdenticalAcrossLayoutsAndModes) {
  Graph g = RandomGraph(120, 500, 21, true, true);
  Graph deg = Reordered(g, ReorderKind::kDegree);
  Graph rcm = Reordered(g, ReorderKind::kRcm);
  for (bool forward : {true, false}) {
    for (NodeId seed : {0, 17, 63, 119}) {
      std::vector<double> want =
          WalkAfter(g, forward, PropagationMode::kAdaptive, seed, 6).mass;
      for (const Graph* other : {&g, &deg, &rcm}) {
        for (auto mode : {PropagationMode::kDense, PropagationMode::kSparse,
                          PropagationMode::kAdaptive}) {
          std::vector<double> got =
              WalkAfter(*other, forward, mode, seed, 6).mass;
          ASSERT_EQ(want.size(), got.size());
          for (std::size_t u = 0; u < want.size(); ++u) {
            // Bit-identical, not approximately equal.
            ASSERT_EQ(want[u], got[u])
                << "forward=" << forward << " seed=" << seed
                << " node=" << u;
          }
        }
      }
    }
  }
}

TEST(ReorderTest, AllTwoWayJoinsByteIdenticalOnReorderedGraph) {
  Graph g = RandomGraph(70, 260, 33, true, true);
  DhtParams params = DhtParams::Lambda(0.3);
  const int d = 6;
  NodeSet P = Range("P", 0, 28);
  NodeSet Q = Range("Q", 24, 52);
  const std::size_t k = 25;

  BIdjJoin bidj_y(BIdjJoin::Options{UpperBoundKind::kY});
  BIdjJoin bidj_x(BIdjJoin::Options{UpperBoundKind::kX});
  BBjJoin bbj;
  FBjJoin fbj;
  FIdjJoin fidj;
  std::vector<TwoWayJoin*> joins = {&bidj_y, &bidj_x, &bbj, &fbj, &fidj};

  for (ReorderKind kind : {ReorderKind::kDegree, ReorderKind::kRcm}) {
    Graph rg = Reordered(g, kind);
    for (TwoWayJoin* join : joins) {
      auto want = join->Run(g, params, d, P, Q, k);
      auto got = join->Run(rg, params, d, P, Q, k);
      ASSERT_TRUE(want.ok() && got.ok()) << join->Name();
      // ScoredPair::operator== compares scores EXACTLY: byte-identical
      // results including ranking and tie-breaks.
      EXPECT_EQ(*want, *got) << join->Name() << " on " << ReorderKindName(kind);
    }
  }
}

TEST(ReorderTest, IncrementalEnumeratorByteIdenticalOnReorderedGraph) {
  Graph g = RandomGraph(50, 170, 41, true, true);
  Graph rg = Reordered(g, ReorderKind::kDegree);
  DhtParams params = DhtParams::Lambda(0.25);
  NodeSet P = Range("P", 0, 20);
  NodeSet Q = Range("Q", 15, 40);
  auto a = IncrementalTwoWayJoin::Create(g, params, 5, P, Q, 10);
  auto b = IncrementalTwoWayJoin::Create(rg, params, 5, P, Q, 10);
  ASSERT_TRUE(a.ok() && b.ok());
  for (int i = 0; i < 40; ++i) {
    auto pa = (*a)->Next();
    auto pb = (*b)->Next();
    ASSERT_EQ(pa.has_value(), pb.has_value());
    if (!pa.has_value()) break;
    EXPECT_EQ(*pa, *pb) << "pair " << i;
  }
}

TEST(ReorderTest, NwayJoinsByteIdenticalOnReorderedGraph) {
  Graph g = RandomGraph(40, 150, 55, true, true);
  Graph rg = Reordered(g, ReorderKind::kRcm);
  DhtParams params = DhtParams::Lambda(0.3);
  QueryGraph query;
  int a = query.AddNodeSet(Range("A", 0, 12));
  int b = query.AddNodeSet(Range("B", 10, 24));
  int c = query.AddNodeSet(Range("C", 20, 34));
  ASSERT_TRUE(query.AddEdge(a, b).ok());
  ASSERT_TRUE(query.AddBidirectionalEdge(b, c).ok());
  MinAggregate min_f;

  PartialJoin pji(PartialJoin::Options{.m = 20, .incremental = true});
  NestedLoopJoin nl;
  for (NwayJoin* join : std::initializer_list<NwayJoin*>{&pji, &nl}) {
    auto want = join->Run(g, params, 5, query, min_f, 12);
    auto got = join->Run(rg, params, 5, query, min_f, 12);
    ASSERT_TRUE(want.ok() && got.ok()) << join->Name();
    ASSERT_EQ(want->size(), got->size()) << join->Name();
    for (std::size_t i = 0; i < want->size(); ++i) {
      EXPECT_EQ((*want)[i].nodes, (*got)[i].nodes) << join->Name();
      EXPECT_EQ((*want)[i].f, (*got)[i].f) << join->Name();
    }
  }

  // The service's PJ-i scores warm targets from cached walks, whose
  // deltas are keyed by layout id: cold and warm runs on the reordered
  // graph must match the library run on the original one.
  auto want = pji.Run(g, params, 5, query, min_f, 12);
  ASSERT_TRUE(want.ok());
  serve::DhtJoinService service(rg, params, 5, {.num_threads = 1});
  for (int round = 0; round < 2; ++round) {
    auto got = service.Nway(query, min_f, 12);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(want->size(), got->size()) << "round " << round;
    for (std::size_t i = 0; i < want->size(); ++i) {
      EXPECT_EQ((*want)[i].nodes, (*got)[i].nodes) << "round " << round;
      EXPECT_EQ((*want)[i].edge_scores, (*got)[i].edge_scores)
          << "round " << round;
    }
  }
}

TEST(ReorderTest, RestrictedSweepBitIdenticalAndCheaper) {
  // 4 clusters of 50 nodes; a walk saturates its own cluster quickly.
  Graph g = ClusteredGraph(4, 50, 300, 77);
  ASSERT_GT(g.Reachability().num_components(), 1);

  for (bool forward : {true, false}) {
    const Walk restricted = WalkAfter(g, forward, PropagationMode::kDense,
                                      7, 6, /*restrict_dense=*/true);
    const Walk full = WalkAfter(g, forward, PropagationMode::kDense, 7, 6,
                                /*restrict_dense=*/false);
    for (std::size_t u = 0; u < restricted.mass.size(); ++u) {
      ASSERT_EQ(restricted.mass[u], full.mass[u]) << u;
    }
    // The restricted plan covers one cluster: ~1/4 of the edge bill.
    EXPECT_LT(restricted.edges_relaxed, full.edges_relaxed / 2);
  }

  // Batch engines: same rows, restricted vs full. The targets share a
  // lane block AND a cluster, so the block's union plan stays local
  // (lanes from different components would widen it to their union).
  std::vector<ExtNodeId> targets = {ExtNodeId(3),  ExtNodeId(11),
                                    ExtNodeId(19), ExtNodeId(27),
                                    ExtNodeId(35), ExtNodeId(43)};
  std::vector<ExtNodeId> sources;
  for (NodeId p = 0; p < 200; p += 7) sources.push_back(ExtNodeId(p));
  DhtParams params = DhtParams::Lambda(0.2);
  BackwardWalkerBatch on(g, {.mode = PropagationMode::kDense});
  BackwardWalkerBatch off(g, {.mode = PropagationMode::kDense,
                              .restrict_dense = false});
  auto rows_on = on.Run(params, 6, targets, sources);
  auto rows_off = off.Run(params, 6, targets, sources);
  ASSERT_EQ(rows_on.size(), rows_off.size());
  for (std::size_t i = 0; i < rows_on.size(); ++i) {
    ASSERT_EQ(rows_on[i], rows_off[i]);
  }
  EXPECT_LT(on.edges_relaxed(), off.edges_relaxed() / 2);

  // The adaptive policy flips a saturated-but-local walk to the
  // restricted dense sweep (against the old global threshold it would
  // have stayed sparse and paid the frontier penalty forever). Under
  // first-hit the target's row is dark after every step, so a push
  // never bills the whole cluster; only a gather bills exactly its
  // plan's edges. Each depth's walk is a prefix of the next one's.
  const ExtNodeId q(7);
  const int64_t cluster_edges =
      g.PlanDenseSweep(std::vector<NodeId>{g.ToInternal(q).value()}).edges;
  BackwardWalkerBatchT<1> adaptive(g, {.mode = PropagationMode::kAdaptive});
  bool went_dense = false;
  int64_t before = 0;
  for (int d = 1; d <= 8; ++d) {
    const int64_t start = adaptive.edges_relaxed();
    adaptive.Run(params, d, {&q, 1}, {&q, 1});
    const int64_t bill = adaptive.edges_relaxed() - start;
    went_dense = went_dense || bill - before == cluster_edges;
    before = bill;
  }
  EXPECT_TRUE(went_dense);
}

TEST(ReorderTest, RestrictedSweepOnReorderedClusteredGraph) {
  Graph g = ClusteredGraph(3, 40, 200, 99);
  Graph rg = Reordered(g, ReorderKind::kRcm);
  DhtParams params = DhtParams::Lambda(0.25);
  const std::vector<ExtNodeId> sources = testing::AllNodes(g);
  BackwardWalkerBatchT<1> a(g);
  BackwardWalkerBatchT<1> b(rg);
  for (NodeId q : {1, 45, 90}) {
    const ExtNodeId target(q);
    const std::vector<double> want = a.Run(params, 7, {&target, 1}, sources);
    const std::vector<double> got = b.Run(params, 7, {&target, 1}, sources);
    for (std::size_t u = 0; u < sources.size(); ++u) {
      ASSERT_EQ(want[u], got[u]) << "q=" << q << " u=" << u;
    }
  }
}

TEST(ReorderTest, PerturbModuleIsLayoutOblivious) {
  Graph g = RandomGraph(60, 220, 61, true, true);
  Graph rg = Reordered(g, ReorderKind::kDegree);
  NodeSet P = Range("P", 0, 25);
  NodeSet Q = Range("Q", 20, 50);
  auto a = datasets::RemoveInterSetEdges(g, P, Q, 0.5, 9);
  auto b = datasets::RemoveInterSetEdges(rg, P, Q, 0.5, 9);
  ASSERT_TRUE(a.ok() && b.ok());
  // Same external pairs removed, and the rebuilt graphs are the same
  // insertion-ordered graph bit-for-bit.
  ASSERT_EQ(a->removed.size(), b->removed.size());
  for (std::size_t i = 0; i < a->removed.size(); ++i) {
    EXPECT_EQ(a->removed[i], b->removed[i]);
  }
  EXPECT_EQ(serve::GraphFingerprint(a->graph),
            serve::GraphFingerprint(b->graph));

  auto ta = datasets::FindTriangles(g, P, Q, Q);
  auto tb = datasets::FindTriangles(rg, P, Q, Q);
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].p, tb[i].p);
    EXPECT_EQ(ta[i].q, tb[i].q);
    EXPECT_EQ(ta[i].r, tb[i].r);
  }
}

TEST(ReorderTest, FingerprintSeparatesLayouts) {
  Graph g = RandomGraph(60, 200, 5, true, true);
  Graph rg = Reordered(g, ReorderKind::kDegree);
  EXPECT_NE(serve::GraphFingerprint(g), serve::GraphFingerprint(rg));

  // The adversarial case: a rotation of a 4-cycle has IDENTICAL CSR
  // bits, but its internal ids mean different external nodes — the
  // layout epoch must keep the fingerprints apart.
  GraphBuilder b(4, /*undirected=*/true);
  for (NodeId u = 0; u < 4; ++u) {
    ASSERT_TRUE(b.AddEdge(u, (u + 1) % 4, 1.0).ok());
  }
  auto cycle = b.Build();
  ASSERT_TRUE(cycle.ok());
  std::vector<NodeId> rotate = {1, 2, 3, 0};
  auto rotated = ApplyNodePermutation(*cycle, rotate);
  ASSERT_TRUE(rotated.ok());
  // Same structural bits...
  for (NodeId u = 0; u < 4; ++u) {
    ASSERT_EQ(cycle->OutDegree(IntNodeId(u)), rotated->OutDegree(IntNodeId(u)));
  }
  // ...different meaning, different fingerprint.
  EXPECT_NE(serve::GraphFingerprint(*cycle),
            serve::GraphFingerprint(*rotated));
  EXPECT_NE(cycle->layout_epoch(), rotated->layout_epoch());
}

TEST(ReorderTest, SaveEdgeListWritesExternalIds) {
  Graph g = RandomGraph(50, 180, 13, true, true);
  Graph rg = Reordered(g, ReorderKind::kDegree);
  std::string path = ::testing::TempDir() + "/reordered_graph.txt";
  ASSERT_TRUE(SaveEdgeList(rg, path).ok());
  auto loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.ok());
  // The file means external ids: reloading recovers the insertion-
  // ordered graph bit-exactly (weights AND transition probabilities).
  EXPECT_EQ(serve::GraphFingerprint(g), serve::GraphFingerprint(*loaded));
  std::remove(path.c_str());
}

TEST(ReorderTest, ServingByteIdenticalAcrossLayoutsAndWarmth) {
  Graph g = RandomGraph(80, 300, 17, true, true);
  Graph rg = Reordered(g, ReorderKind::kDegree);
  DhtParams params = DhtParams::Lambda(0.3);
  const int d = 6;
  NodeSet P = Range("P", 0, 30);
  NodeSet Q = Range("Q", 25, 60);

  BIdjJoin reference(BIdjJoin::Options{UpperBoundKind::kY});
  auto want = reference.Run(g, params, d, P, Q, 20);
  ASSERT_TRUE(want.ok());

  serve::DhtJoinService cold(g, params, d);
  serve::DhtJoinService warm(rg, params, d);
  EXPECT_NE(cold.graph_fingerprint(), warm.graph_fingerprint());

  auto r1 = warm.TwoWay(P, Q, 20);  // cold on the reordered graph
  auto r2 = warm.TwoWay(P, Q, 20);  // warm resume from the cache
  auto r3 = cold.TwoWay(P, Q, 20);
  ASSERT_TRUE(r1.ok() && r2.ok() && r3.ok());
  EXPECT_EQ(*want, *r1);
  EXPECT_EQ(*want, *r2);
  EXPECT_EQ(*want, *r3);
}

}  // namespace
}  // namespace dhtjoin
