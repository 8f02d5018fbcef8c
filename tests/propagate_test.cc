/// \file tests/propagate_test.cc
/// \brief The frontier-adaptive propagation engine vs the dense
/// reference sweep, and the batched backward evaluator vs a sequential
/// walker loop — on every graph fixture, under both first-hit (DHT) and
/// visiting (PPR) semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <vector>

#include "dht/backward.h"
#include "dht/backward_batch.h"
#include "dht/forward.h"
#include "dht/propagate.h"
#include "testing/reference.h"
#include "util/thread_pool.h"

namespace dhtjoin {
namespace {

using testing::CycleGraph;
using testing::PathGraph;
using testing::RandomGraph;
using testing::StarGraph;
using testing::TwoCommunityGraph;

constexpr double kTol = 1e-12;

struct Fixture {
  const char* name;
  Graph graph;
};

std::vector<Fixture> Fixtures() {
  std::vector<Fixture> out;
  out.push_back({"path", PathGraph(8)});
  out.push_back({"cycle", CycleGraph(7)});
  out.push_back({"star", StarGraph(9)});
  out.push_back({"two_community", TwoCommunityGraph()});
  out.push_back({"random_sparse", RandomGraph(40, 60, 31, true, true)});
  out.push_back({"random_denser", RandomGraph(30, 140, 32, false, true)});
  return out;
}

std::vector<DhtParams> Semantics() {
  return {DhtParams::Lambda(0.2), DhtParams::Lambda(0.8),
          DhtParams::Exponential(), DhtParams::PersonalizedPageRank(0.7)};
}

// ----------------------------------------- sparse/adaptive == dense

TEST(PropagateTest, BackwardModesAgreeOnAllFixtures) {
  for (auto& fx : Fixtures()) {
    for (const DhtParams& p : Semantics()) {
      BackwardWalker dense(fx.graph, PropagationMode::kDense);
      BackwardWalker sparse(fx.graph, PropagationMode::kSparse);
      BackwardWalker adaptive(fx.graph, PropagationMode::kAdaptive);
      for (NodeId q = 0; q < fx.graph.num_nodes(); q += 3) {
        dense.Reset(p, ExtNodeId(q));
        sparse.Reset(p, ExtNodeId(q));
        adaptive.Reset(p, ExtNodeId(q));
        dense.Advance(10);
        sparse.Advance(10);
        adaptive.Advance(10);
        for (NodeId u = 0; u < fx.graph.num_nodes(); ++u) {
          EXPECT_EQ(sparse.Score(ExtNodeId(u)), dense.Score(ExtNodeId(u)))
              << fx.name << " first_hit=" << p.first_hit << " q=" << q
              << " u=" << u;
          EXPECT_EQ(adaptive.Score(ExtNodeId(u)), dense.Score(ExtNodeId(u)))
              << fx.name << " first_hit=" << p.first_hit << " q=" << q
              << " u=" << u;
        }
      }
    }
  }
}

TEST(PropagateTest, ForwardModesAgreeOnAllFixtures) {
  for (auto& fx : Fixtures()) {
    for (const DhtParams& p : Semantics()) {
      ForwardWalker dense(fx.graph, PropagationMode::kDense);
      ForwardWalker sparse(fx.graph, PropagationMode::kSparse);
      ForwardWalker adaptive(fx.graph, PropagationMode::kAdaptive);
      const NodeId n = fx.graph.num_nodes();
      for (NodeId u : {NodeId{0}, static_cast<NodeId>(n / 2)}) {
        for (NodeId v : {static_cast<NodeId>(n - 1), NodeId{1}}) {
          if (u == v) continue;
          const int d = 9;
          dense.Reset(p, ExtNodeId(u), ExtNodeId(v));
          sparse.Reset(p, ExtNodeId(u), ExtNodeId(v));
          adaptive.Reset(p, ExtNodeId(u), ExtNodeId(v));
          dense.Advance(d);
          sparse.Advance(d);
          adaptive.Advance(d);
          // Identical bits, not merely close (DESIGN.md §3): the dense
          // gather adds each row's terms in the sparse push's order.
          EXPECT_EQ(sparse.Score(), dense.Score()) << fx.name;
          EXPECT_EQ(adaptive.Score(), dense.Score()) << fx.name;
          for (int i = 1; i <= d; ++i) {
            EXPECT_EQ(sparse.HitProbability(i), dense.HitProbability(i))
                << fx.name << " i=" << i;
            EXPECT_EQ(adaptive.HitProbability(i), dense.HitProbability(i))
                << fx.name << " i=" << i;
          }
        }
      }
    }
  }
}

TEST(PropagateTest, SparseResumableAdvanceMatchesOneShot) {
  Graph g = RandomGraph(25, 70, 33);
  DhtParams p = DhtParams::Lambda(0.5);
  BackwardWalker a(g, PropagationMode::kSparse);
  BackwardWalker b(g, PropagationMode::kSparse);
  a.Reset(p, ExtNodeId(4));
  a.Advance(8);
  b.Reset(p, ExtNodeId(4));
  b.Advance(3);
  b.Advance(5);  // resumed: must be bit-identical, not just close
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_DOUBLE_EQ(a.Score(ExtNodeId(u)), b.Score(ExtNodeId(u)));
  }
}

// ----------------------------------------------- engine-level checks

TEST(PropagateTest, SparseStepsRelaxFewerEdgesOnLocalizedWalks) {
  // Backward walk from a star leaf: the frontier is {leaf}, then {hub},
  // then all leaves — far below the dense m-per-step cost.
  Graph g = StarGraph(64);
  Propagator dense(g, Propagator::Direction::kBackward,
                   PropagationMode::kDense);
  Propagator adaptive(g, Propagator::Direction::kBackward,
                      PropagationMode::kAdaptive);
  dense.Reset(IntNodeId(1));
  adaptive.Reset(IntNodeId(1));
  dense.Step();
  adaptive.Step();
  EXPECT_LT(adaptive.edges_relaxed(), dense.edges_relaxed() / 4);
}

TEST(PropagateTest, AdaptiveGoesDenseOnSaturatedFrontier) {
  // On a complete graph the frontier saturates after one step; the
  // adaptive engine must fall back to the dense sweep instead of paying
  // the sparse-push penalty on a full frontier.
  Graph g = testing::CompleteGraph(24);
  Propagator adaptive(g, Propagator::Direction::kBackward,
                      PropagationMode::kAdaptive);
  adaptive.Reset(IntNodeId(0));
  adaptive.Step();  // frontier: 23 in-neighbors of node 0
  adaptive.Step();  // frontier: everything
  EXPECT_TRUE(adaptive.last_step_dense());
}

TEST(PropagateTest, MassConservedWithoutAbsorption) {
  // A PPR-style (non-absorbing) walk on a graph with no sinks keeps
  // total mass at exactly... well, within FP error of 1.
  Graph g = CycleGraph(11);
  for (auto mode : {PropagationMode::kDense, PropagationMode::kSparse,
                    PropagationMode::kAdaptive}) {
    Propagator engine(g, Propagator::Direction::kForward, mode);
    engine.Reset(IntNodeId(3));
    for (int s = 0; s < 25; ++s) engine.Step();
    double total = 0.0;
    engine.ForEachMass([&](NodeId, double m) { total += m; });
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
}

TEST(PropagateTest, ResetDropsAllMass) {
  Graph g = TwoCommunityGraph();
  Propagator engine(g, Propagator::Direction::kBackward,
                    PropagationMode::kAdaptive);
  engine.Reset(IntNodeId(0));
  for (int s = 0; s < 6; ++s) engine.Step();
  engine.Reset(IntNodeId(5));
  double total = 0.0;
  int count = 0;
  engine.ForEachMass([&](NodeId u, double m) {
    total += m;
    ++count;
    EXPECT_EQ(u, 5);
  });
  EXPECT_EQ(count, 1);
  EXPECT_DOUBLE_EQ(total, 1.0);
}

// ------------------------------------------------- batched evaluator

TEST(BackwardWalkerBatchTest, MatchesSequentialWalkerLoop) {
  // The issue's acceptance shape: batch(T, S) == per-target sequential
  // walks, for target counts that exercise full and partial lane blocks.
  Graph g = RandomGraph(50, 160, 34, true, true);
  std::vector<ExtNodeId> sources;
  for (NodeId u = 0; u < 20; ++u) sources.push_back(ExtNodeId(u));
  for (const DhtParams& p : Semantics()) {
    for (std::size_t num_targets : {1u, 7u, 8u, 9u, 30u}) {
      std::vector<ExtNodeId> targets;
      for (std::size_t i = 0; i < num_targets; ++i) {
        targets.push_back(ExtNodeId(static_cast<NodeId>((i * 3 + 10) % 50)));
      }
      BackwardWalkerBatch batch(g);
      std::vector<double> got = batch.Run(p, 8, targets, sources);
      ASSERT_EQ(got.size(), targets.size() * sources.size());
      BackwardWalker walker(g);
      for (std::size_t t = 0; t < targets.size(); ++t) {
        walker.Reset(p, targets[t]);
        walker.Advance(8);
        for (std::size_t s = 0; s < sources.size(); ++s) {
          EXPECT_NEAR(got[t * sources.size() + s], walker.Score(sources[s]),
                      kTol)
              << "first_hit=" << p.first_hit << " T=" << num_targets
              << " t=" << t << " s=" << s;
        }
      }
    }
  }
}

TEST(BackwardWalkerBatchTest, DuplicateTargetsShareALaneRow) {
  Graph g = TwoCommunityGraph();
  DhtParams p = DhtParams::Lambda(0.3);
  std::vector<ExtNodeId> targets = {ExtNodeId(7), ExtNodeId(7), ExtNodeId(2), ExtNodeId(7)};  // dups in a block
  std::vector<ExtNodeId> sources = {ExtNodeId(0), ExtNodeId(1), ExtNodeId(3), ExtNodeId(9)};
  BackwardWalkerBatch batch(g);
  std::vector<double> got = batch.Run(p, 6, targets, sources);
  BackwardWalker walker(g);
  for (std::size_t t = 0; t < targets.size(); ++t) {
    walker.Reset(p, targets[t]);
    walker.Advance(6);
    for (std::size_t s = 0; s < sources.size(); ++s) {
      EXPECT_NEAR(got[t * sources.size() + s], walker.Score(sources[s]),
                  kTol);
    }
  }
}

TEST(BackwardWalkerBatchTest, ThreadCountDoesNotChangeResults) {
  Graph g = RandomGraph(60, 200, 35);
  DhtParams p = DhtParams::Lambda(0.4);
  std::vector<ExtNodeId> targets;
  for (NodeId q = 0; q < 40; ++q) targets.push_back(ExtNodeId(q));
  std::vector<ExtNodeId> sources = {ExtNodeId(41), ExtNodeId(45), ExtNodeId(50), ExtNodeId(59)};
  BackwardWalkerBatch one(g, {.num_threads = 1});
  BackwardWalkerBatch four(g, {.num_threads = 4});
  std::vector<double> a = one.Run(p, 8, targets, sources);
  std::vector<double> b = four.Run(p, 8, targets, sources);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Blocks are deterministic regardless of which worker runs them.
    EXPECT_DOUBLE_EQ(a[i], b[i]) << "i=" << i;
  }
  EXPECT_EQ(one.edges_relaxed(), four.edges_relaxed());
}

TEST(BackwardWalkerBatchTest, DenseModeMatchesAdaptive) {
  Graph g = RandomGraph(40, 120, 36);
  DhtParams p = DhtParams::Exponential();
  std::vector<ExtNodeId> targets = {ExtNodeId(0), ExtNodeId(5), ExtNodeId(9), ExtNodeId(13),
                                    ExtNodeId(17), ExtNodeId(21), ExtNodeId(25), ExtNodeId(29),
                                    ExtNodeId(33)};
  std::vector<ExtNodeId> sources = {ExtNodeId(2), ExtNodeId(3), ExtNodeId(4), ExtNodeId(38)};
  BackwardWalkerBatch dense(g, {.mode = PropagationMode::kDense});
  BackwardWalkerBatch adaptive(g, {.mode = PropagationMode::kAdaptive});
  std::vector<double> a = dense.Run(p, 8, targets, sources);
  std::vector<double> b = adaptive.Run(p, 8, targets, sources);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], kTol);
  }
  EXPECT_LE(adaptive.edges_relaxed(), dense.edges_relaxed());
}

TEST(BackwardWalkerBatchTest, RunChunkedMatchesSingleRunAcrossSlices) {
  // Forcing a 3-target slice exercises the multi-chunk path the joins
  // rely on for all-pairs memory bounding.
  Graph g = RandomGraph(40, 120, 37);
  DhtParams p = DhtParams::Lambda(0.3);
  std::vector<ExtNodeId> targets = {ExtNodeId(0), ExtNodeId(4), ExtNodeId(8), ExtNodeId(12),
                                    ExtNodeId(16), ExtNodeId(20), ExtNodeId(24), ExtNodeId(28),
                                    ExtNodeId(32), ExtNodeId(36)};
  std::vector<ExtNodeId> sources = {ExtNodeId(1), ExtNodeId(2), ExtNodeId(3), ExtNodeId(39)};
  BackwardWalkerBatch batch(g);
  std::vector<double> whole = batch.Run(p, 8, targets, sources);
  std::vector<double> chunked(whole.size(), 0.0);
  std::vector<int> rows_seen(targets.size(), 0);
  batch.RunChunked(
      p, 8, targets, sources,
      [&](std::size_t t, const double* row) {
        rows_seen[t]++;
        std::copy(row, row + sources.size(), &chunked[t * sources.size()]);
      },
      /*max_targets_per_run=*/3);
  for (int seen : rows_seen) EXPECT_EQ(seen, 1);
  for (std::size_t i = 0; i < whole.size(); ++i) {
    EXPECT_DOUBLE_EQ(chunked[i], whole[i]) << "i=" << i;
  }
}

TEST(BackwardWalkerBatchTest, RepeatedRunsReuseStatesCleanly) {
  Graph g = TwoCommunityGraph();
  DhtParams p = DhtParams::Lambda(0.2);
  std::vector<ExtNodeId> targets = {ExtNodeId(0), ExtNodeId(5)};
  std::vector<ExtNodeId> sources = {ExtNodeId(1), ExtNodeId(9)};
  BackwardWalkerBatch batch(g, {.num_threads = 1});
  std::vector<double> first = batch.Run(p, 8, targets, sources);
  batch.Run(p, 3, {&targets[1], 1}, sources);  // perturb the workspace
  std::vector<double> again = batch.Run(p, 8, targets, sources);
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_DOUBLE_EQ(first[i], again[i]);
  }
}

// ------------------------------------------------------- thread pool

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  for (int threads : {1, 3}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h.store(0);
    pool.ParallelFor(static_cast<int64_t>(hits.size()),
                     [&](int64_t i) { hits[static_cast<std::size_t>(i)]++; });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "i=" << i << " threads=" << threads;
    }
  }
}

TEST(ThreadPoolTest, WaitDrainsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&done] { done++; });
  }
  pool.Wait();
  EXPECT_EQ(done.load(), 50);
}

}  // namespace
}  // namespace dhtjoin
