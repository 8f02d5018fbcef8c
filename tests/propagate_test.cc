/// \file tests/propagate_test.cc
/// \brief The frontier-adaptive walk engine (dht/batch_core.h) in every
/// mode and at both lane widths vs the plain-loop reference sweeps, its
/// edge billing, and the batched evaluators vs per-target walks — on
/// every graph fixture, under both first-hit (DHT) and visiting (PPR)
/// semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "dht/backward_batch.h"
#include "dht/forward_batch.h"
#include "testing/reference.h"
#include "util/thread_pool.h"

namespace dhtjoin {
namespace {

using testing::AllLayouts;
using testing::AllNodes;
using testing::CycleGraph;
using testing::PathGraph;
using testing::RandomGraph;
using testing::RefBackwardSweep;
using testing::RefForwardSweep;
using testing::StarGraph;
using testing::TwoCommunityGraph;

constexpr PropagationMode kModes[] = {PropagationMode::kDense,
                                      PropagationMode::kSparse,
                                      PropagationMode::kAdaptive};

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

std::string Where(const char* fixture, int layout, PropagationMode mode,
                  int width, const DhtParams& p) {
  return std::string(fixture) + " layout " + std::to_string(layout) +
         " mode " + std::to_string(static_cast<int>(mode)) + " W=" +
         std::to_string(width) + " first_hit=" + std::to_string(p.first_hit) +
         " lambda=" + std::to_string(p.lambda);
}

// ------------------------------- every mode and width == the reference

TEST(PropagateTest, BackwardModesAgreeOnAllFixtures) {
  // Every mode at W = 8 and W = 1 gives the plain-loop sweep's bits, in
  // every layout: the push adds each row's terms in the gather's order.
  for (auto& fx : Fixtures()) {
    int layout = 0;
    for (const Graph& g : AllLayouts(fx.graph)) {
      const std::vector<ExtNodeId> sources = AllNodes(g);
      std::vector<ExtNodeId> targets;
      for (NodeId q = 0; q < g.num_nodes(); q += 3) {
        targets.push_back(ExtNodeId(q));
      }
      for (const DhtParams& p : Semantics()) {
        std::vector<std::vector<double>> want;
        for (ExtNodeId q : targets) want.push_back(RefBackwardSweep(g, p, 10, q));
        for (PropagationMode mode : kModes) {
          BackwardWalkerBatch wide(g, {.mode = mode});
          BackwardWalkerBatchT<1> narrow(g, {.mode = mode});
          const std::vector<double> got8 = wide.Run(p, 10, targets, sources);
          const std::vector<double> got1 = narrow.Run(p, 10, targets, sources);
          for (std::size_t t = 0; t < targets.size(); ++t) {
            for (std::size_t s = 0; s < sources.size(); ++s) {
              const uint64_t bits = std::bit_cast<uint64_t>(want[t][s]);
              const std::size_t cell = t * sources.size() + s;
              ASSERT_EQ(std::bit_cast<uint64_t>(got8[cell]), bits)
                  << Where(fx.name, layout, mode, 8, p) << " q="
                  << targets[t].value() << " u=" << s;
              ASSERT_EQ(std::bit_cast<uint64_t>(got1[cell]), bits)
                  << Where(fx.name, layout, mode, 1, p) << " q="
                  << targets[t].value() << " u=" << s;
            }
          }
        }
      }
      ++layout;
    }
  }
}

TEST(PropagateTest, ForwardModesMatchReferenceSweepBitwise) {
  // The forward engine's dense step gathers over in-rows and its sparse
  // step pushes over out-rows; both add each row's terms in canonical
  // source order, so every mode at W = 8 and W = 1 gives the plain-loop
  // walk's bits, at every depth, in every layout.
  for (auto& fx : Fixtures()) {
    int layout = 0;
    for (const Graph& g : AllLayouts(fx.graph)) {
      const NodeId n = g.num_nodes();
      const std::vector<ExtNodeId> sources = AllNodes(g);
      const std::vector<ExtNodeId> targets = {
          ExtNodeId(n - 1), ExtNodeId(1), ExtNodeId(n / 2)};
      for (const DhtParams& p : Semantics()) {
        for (PropagationMode mode : kModes) {
          ForwardWalkerBatch wide(g, {.mode = mode});
          ForwardWalkerBatchT<1> narrow(g, {.mode = mode});
          for (int d : {1, 2, 5, 9}) {
            const std::vector<double> got8 = wide.Run(p, d, sources, targets);
            const std::vector<double> got1 =
                narrow.Run(p, d, sources, targets);
            for (std::size_t s = 0; s < sources.size(); ++s) {
              for (std::size_t t = 0; t < targets.size(); ++t) {
                if (sources[s] == targets[t]) continue;
                const uint64_t bits = std::bit_cast<uint64_t>(
                    RefForwardSweep(g, p, d, sources[s], targets[t]));
                const std::size_t cell = s * targets.size() + t;
                ASSERT_EQ(std::bit_cast<uint64_t>(got8[cell]), bits)
                    << Where(fx.name, layout, mode, 8, p) << " d=" << d
                    << " u=" << s << " v=" << targets[t].value();
                ASSERT_EQ(std::bit_cast<uint64_t>(got1[cell]), bits)
                    << Where(fx.name, layout, mode, 1, p) << " d=" << d
                    << " u=" << s << " v=" << targets[t].value();
              }
            }
          }
        }
      }
      ++layout;
    }
  }
}

TEST(PropagateTest, SparseResumableAdvanceMatchesOneShot) {
  Graph g = RandomGraph(25, 70, 33);
  DhtParams p = DhtParams::Lambda(0.5);
  const ExtNodeId q(4);
  const std::vector<ExtNodeId> sources = AllNodes(g);
  BackwardWalkerBatchT<1> batch(g, {.mode = PropagationMode::kSparse});
  const std::vector<double> a = batch.Run(p, 8, {&q, 1}, sources);
  BackwardBatchStates states(1);
  const std::size_t slot = 0;
  std::vector<double> b;
  for (int level : {3, 8}) {  // resumed: must be bit-identical, not close
    batch.AdvanceChunked(p, level, {&q, 1}, {&slot, 1}, sources, states,
                         [&](std::size_t, const double* row) {
                           b.assign(row, row + sources.size());
                         });
  }
  for (std::size_t u = 0; u < sources.size(); ++u) {
    EXPECT_EQ(std::bit_cast<uint64_t>(a[u]), std::bit_cast<uint64_t>(b[u]));
  }
}

TEST(PropagateTest, ScoresHoldPinnedBitsOnEveryBuildTarget) {
  // Answers must not depend on the build target (DESIGN.md §3): these
  // digests come from a baseline x86-64 build, and a build for an FMA
  // target (CI's x86-64-v3 job) must reproduce them. Without
  // -ffp-contract=off, such a build fuses the kernels' multiply-adds
  // and changes these bits even though every engine still agrees with
  // the references compiled next to it.
  Graph g = RandomGraph(40, 120, 38, true, true);
  DhtParams p = DhtParams::Lambda(0.3);
  const std::vector<ExtNodeId> nodes = AllNodes(g);
  auto digest = [](const std::vector<double>& values) {
    uint64_t h = 1469598103934665603ull;  // FNV-1a over the bits
    for (double x : values) {
      h = (h ^ std::bit_cast<uint64_t>(x)) * 1099511628211ull;
    }
    return h;
  };
  BackwardWalkerBatch backward(g);
  ForwardWalkerBatch forward(g);
  EXPECT_EQ(digest(backward.Run(p, 8, nodes, nodes)), 0xdc246cea2aaedf0aull);
  EXPECT_EQ(digest(forward.Run(p, 8, nodes, nodes)), 0xf35c8dc5cdffb0b2ull);
}

// ----------------------------------------------- engine-level checks

TEST(PropagateTest, SparseStepsRelaxFewerEdgesOnLocalizedWalks) {
  // Backward walk from a star leaf: the frontier is {leaf}, then {hub},
  // then all leaves — far below the dense m-per-step cost.
  Graph g = StarGraph(64);
  DhtParams p = DhtParams::Lambda(0.2);
  const ExtNodeId leaf(1);
  BackwardWalkerBatchT<1> dense(g, {.mode = PropagationMode::kDense});
  BackwardWalkerBatchT<1> adaptive(g, {.mode = PropagationMode::kAdaptive});
  dense.Run(p, 1, {&leaf, 1}, {&leaf, 1});
  adaptive.Run(p, 1, {&leaf, 1}, {&leaf, 1});
  EXPECT_EQ(dense.edges_relaxed(), g.num_edges());
  EXPECT_LT(adaptive.edges_relaxed(), dense.edges_relaxed() / 4);
}

TEST(PropagateTest, AdaptiveGoesDenseOnSaturatedFrontier) {
  // On a complete graph the frontier saturates after one step; the
  // adaptive engine must fall back to the dense sweep instead of paying
  // the sparse-push penalty on a full frontier. Step 1 pushes node 0's
  // 23 in-edges; step 2 starts from its 23 in-neighbours, whose in-rows
  // hold 23 * 23 edges against a dense sweep of all of them.
  Graph g = testing::CompleteGraph(24);
  DhtParams p = DhtParams::Lambda(0.2);
  const ExtNodeId q(0);
  BackwardWalkerBatchT<1> adaptive(g, {.mode = PropagationMode::kAdaptive});
  BackwardWalkerBatchT<1> sparse(g, {.mode = PropagationMode::kSparse});
  adaptive.Run(p, 2, {&q, 1}, {&q, 1});
  sparse.Run(p, 2, {&q, 1}, {&q, 1});
  EXPECT_EQ(sparse.edges_relaxed(), 23 + 23 * 23);
  EXPECT_EQ(adaptive.edges_relaxed(), 23 + g.num_edges());
}

TEST(PropagateTest, MassConservedWithoutAbsorption) {
  // A PPR-style (non-absorbing) walk on a graph with no sinks keeps
  // total mass at exactly... well, within FP error of 1.
  Graph g = CycleGraph(11);
  DhtParams p = DhtParams::PersonalizedPageRank(0.7);
  const ExtNodeId source(3);
  const ExtNodeId target(0);
  const std::size_t slot = 0;
  for (PropagationMode mode : kModes) {
    ForwardWalkerBatchT<1> batch(g, {.mode = mode});
    ForwardBatchStates states;
    batch.AdvancePairs(p, 25, {&source, 1}, {&slot, 1}, target, states,
                       [](std::size_t, double) {});
    const batch_core::SparseMass* mass = states.mass(slot);
    ASSERT_NE(mass, nullptr);
    double total = 0.0;
    for (double m : mass->values) total += m;
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
}

TEST(PropagateTest, ResetDropsAllMass) {
  // A pooled workspace carries no mass into its next walk: a walk on an
  // engine whose one workspace just ran six steps elsewhere saves the
  // same state as the walk on a fresh engine.
  Graph g = TwoCommunityGraph();
  DhtParams p = DhtParams::Lambda(0.2);
  const std::vector<ExtNodeId> sources = {ExtNodeId(1), ExtNodeId(9)};
  const std::size_t slot = 0;
  auto walk = [&](BackwardWalkerBatchT<1>& batch, NodeId target, int d) {
    const ExtNodeId q(target);
    BackwardBatchStates states(1);
    batch.AdvanceChunked(p, d, {&q, 1}, {&slot, 1}, sources, states,
                         [](std::size_t, const double*) {});
    return states.Take(slot);
  };
  BackwardWalkerBatchT<1> reused(g, {.num_threads = 1});
  BackwardWalkerBatchT<1> fresh(g, {.num_threads = 1});
  walk(reused, 0, 6);
  ASSERT_EQ(reused.pooled_workspaces(), 1u);
  const auto got = walk(reused, 5, 1);
  const auto want = walk(fresh, 5, 1);
  ASSERT_NE(got, nullptr);
  ASSERT_NE(want, nullptr);
  testing::ExpectSameSnapshot(*got, *want, "target 5 after target 0");
  ASSERT_EQ(got->mass.size(), g.InEdges(g.ToInternal(ExtNodeId(5))).size());
}

// ------------------------------------------------- batched evaluator

TEST(BackwardWalkerBatchTest, MatchesSequentialWalkerLoop) {
  // batch(T, S) == per-target single-lane walks == the plain-loop sweep,
  // bit for bit, for target counts that exercise full and partial lane
  // blocks.
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
      BackwardWalkerBatchT<1> single(g);
      for (std::size_t t = 0; t < targets.size(); ++t) {
        const std::vector<double> row =
            single.Run(p, 8, {&targets[t], 1}, sources);
        const std::vector<double> want =
            RefBackwardSweep(g, p, 8, targets[t]);
        for (std::size_t s = 0; s < sources.size(); ++s) {
          const double cell = got[t * sources.size() + s];
          EXPECT_EQ(std::bit_cast<uint64_t>(cell),
                    std::bit_cast<uint64_t>(row[s]))
              << "first_hit=" << p.first_hit << " T=" << num_targets
              << " t=" << t << " s=" << s;
          EXPECT_EQ(std::bit_cast<uint64_t>(cell),
                    std::bit_cast<uint64_t>(
                        want[static_cast<std::size_t>(sources[s].value())]))
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
  BackwardWalkerBatchT<1> single(g);
  for (std::size_t t = 0; t < targets.size(); ++t) {
    const std::vector<double> row = single.Run(p, 6, {&targets[t], 1}, sources);
    for (std::size_t s = 0; s < sources.size(); ++s) {
      EXPECT_EQ(got[t * sources.size() + s], row[s]);
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
    EXPECT_EQ(a[i], b[i]);
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
