/// \file tests/resume_test.cc
/// \brief Resume-equivalence property tests: continuing a walk from its
/// current level (or from a saved/restored state, or from a batch
/// engine's persistent per-target state) must be BIT-identical to a
/// from-scratch walk of the same depth, under both first-hit (DHT) and
/// visiting (PPR) semantics — the determinism contract of DESIGN.md §3
/// that makes resumable deepening byte-safe.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "dht/backward.h"
#include "dht/backward_batch.h"
#include "dht/forward.h"
#include "dht/forward_batch.h"
#include "dht/walker_state.h"
#include "graph/reorder.h"
#include "join2/b_idj.h"
#include "join2/f_idj.h"
#include "testing/reference.h"

namespace dhtjoin {
namespace {

using testing::RandomGraph;
using testing::Range;
using testing::StarGraph;
using testing::TwoCommunityGraph;

std::vector<DhtParams> Semantics() {
  return {DhtParams::Lambda(0.2), DhtParams::Lambda(0.7),
          DhtParams::Exponential(), DhtParams::PersonalizedPageRank(0.7)};
}

// --------------------------------------------------- scalar walkers

TEST(ResumeTest, BackwardSplitAdvanceIsBitIdentical) {
  Graph g = RandomGraph(45, 140, 41, true, true);
  for (const DhtParams& p : Semantics()) {
    for (auto mode : {PropagationMode::kDense, PropagationMode::kSparse,
                      PropagationMode::kAdaptive}) {
      BackwardWalker whole(g, mode);
      BackwardWalker split(g, mode);
      for (int l : {1, 2, 4}) {
        whole.Reset(p, ExtNodeId(7));
        whole.Advance(2 * l);
        split.Reset(p, ExtNodeId(7));
        split.Advance(l);
        split.Advance(l);
        for (NodeId u = 0; u < g.num_nodes(); ++u) {
          // Bit-identical, not merely close: resume must not perturb
          // the floating-point trajectory.
          EXPECT_EQ(whole.Score(ExtNodeId(u)), split.Score(ExtNodeId(u)))
              << "first_hit=" << p.first_hit << " l=" << l << " u=" << u;
        }
      }
    }
  }
}

TEST(ResumeTest, ForwardSplitAdvanceIsBitIdentical) {
  Graph g = RandomGraph(45, 140, 42, false, true);
  for (const DhtParams& p : Semantics()) {
    ForwardWalker whole(g);
    ForwardWalker split(g);
    for (int l : {1, 3, 4}) {
      whole.Reset(p, ExtNodeId(2), ExtNodeId(31));
      whole.Advance(2 * l);
      split.Reset(p, ExtNodeId(2), ExtNodeId(31));
      split.Advance(l);
      split.Advance(l);
      EXPECT_EQ(whole.Score(), split.Score())
          << "first_hit=" << p.first_hit << " l=" << l;
      for (int i = 1; i <= 2 * l; ++i) {
        EXPECT_EQ(whole.HitProbability(i), split.HitProbability(i));
      }
    }
  }
}

TEST(ResumeTest, BackwardSaveRestoreResumesExactly) {
  Graph g = TwoCommunityGraph();
  DhtParams p = DhtParams::Lambda(0.3);
  BackwardWalker reference(g);
  reference.Reset(p, ExtNodeId(7));
  reference.Advance(8);

  BackwardWalker walker(g);
  walker.Reset(p, ExtNodeId(7));
  walker.Advance(3);
  BackwardWalkerState snapshot;
  walker.Save(&snapshot);
  EXPECT_EQ(snapshot.level, 3);
  EXPECT_EQ(snapshot.target.value(), 7);
  // Perturb the walker with unrelated targets, then restore.
  walker.Reset(p, ExtNodeId(2));
  walker.Advance(5);
  walker.Restore(p, snapshot);
  EXPECT_EQ(walker.level(), 3);
  EXPECT_EQ(walker.target().value(), 7);
  walker.Advance(5);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(walker.Score(ExtNodeId(u)), reference.Score(ExtNodeId(u)))
        << "u=" << u;
  }
}

TEST(ResumeTest, BackwardSaveEmitsDeltasAscendingByInternalId) {
  // Save's deltas are exactly the touched set, strictly ascending by
  // INTERNAL id, for shallow walks that touch a few nodes and deep ones
  // that touch most. With beta = 0, Score(u) is u's delta itself, so
  // the touched set is {u : Score != 0}.
  const Graph base = RandomGraph(240, 480, 43);
  for (const Graph& g : testing::AllLayouts(base)) {
    auto expect_touched_ascending = [&](const BackwardWalker& walker,
                                        const std::string& label) {
      BackwardWalkerState state;
      walker.Save(&state);
      std::vector<std::pair<NodeId, double>> want;
      for (NodeId u = 0; u < g.num_nodes(); ++u) {
        const double delta = walker.Score(g.ToExternal(IntNodeId(u)));
        if (delta != 0.0) want.emplace_back(u, delta);
      }
      ASSERT_EQ(state.score_delta.size(), want.size()) << label;
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(state.score_delta[i].first, want[i].first) << label;
        EXPECT_EQ(std::bit_cast<uint64_t>(state.score_delta[i].second),
                  std::bit_cast<uint64_t>(want[i].second))
            << label;
      }
    };
    for (const DhtParams& p :
         {DhtParams::Exponential(), DhtParams::PersonalizedPageRank(0.7)}) {
      for (NodeId q : {3, 120, 231}) {
        for (int level : {1, 2, 4, 8}) {
          const std::string label = "first_hit=" +
                                    std::to_string(p.first_hit) +
                                    " q=" + std::to_string(q) +
                                    " level=" + std::to_string(level);
          BackwardWalker walker(g);
          walker.Reset(p, ExtNodeId(q));
          walker.Advance(level);
          expect_touched_ascending(walker, label);
          // A restored walk lists the saved ids first and appends its
          // new touches behind them; Save must still emit them in id
          // order.
          BackwardWalkerState saved;
          walker.Save(&saved);
          BackwardWalker resumed(g);
          resumed.Restore(p, saved);
          resumed.Advance(level);
          expect_touched_ascending(resumed, label + " resumed");
        }
      }
    }
  }
}

TEST(ResumeTest, ForwardSaveRestoreResumesExactly) {
  Graph g = TwoCommunityGraph();
  DhtParams p = DhtParams::PersonalizedPageRank(0.8);  // PPR path too
  ForwardWalker reference(g);
  reference.Reset(p, ExtNodeId(0), ExtNodeId(9));
  reference.Advance(9);

  ForwardWalker walker(g);
  walker.Reset(p, ExtNodeId(0), ExtNodeId(9));
  walker.Advance(4);
  ForwardWalkerState snapshot;
  walker.Save(&snapshot);
  walker.Reset(p, ExtNodeId(3), ExtNodeId(6));
  walker.Advance(2);
  walker.Restore(p, snapshot);
  walker.Advance(5);
  EXPECT_EQ(walker.Score(), reference.Score());
  EXPECT_EQ(walker.level(), 9);
  for (int i = 1; i <= 9; ++i) {
    EXPECT_EQ(walker.HitProbability(i), reference.HitProbability(i));
  }
}

// ------------------------------------------------ walker state pool

TEST(ResumeTest, WalkerStatePoolFindsPutAndEvictsLru) {
  Graph g = StarGraph(16);
  DhtParams p = DhtParams::Lambda(0.2);
  BackwardWalker walker(g);

  BackwardWalkerState proto;
  walker.Reset(p, ExtNodeId(1));
  walker.Advance(2);
  walker.Save(&proto);
  const std::size_t per_state = proto.ApproxBytes();

  // Budget for about two states.
  WalkerStatePool<BackwardWalkerState> pool(2 * per_state + per_state / 2);
  pool.Put(10, proto);
  pool.Put(11, proto);
  EXPECT_EQ(pool.size(), 2u);
  ASSERT_NE(pool.Find(10), nullptr);  // bump 10 to most-recent
  pool.Put(12, proto);                // evicts 11, the LRU entry
  EXPECT_EQ(pool.Find(11), nullptr);
  EXPECT_NE(pool.Find(10), nullptr);
  EXPECT_NE(pool.Find(12), nullptr);
  pool.Erase(10);
  EXPECT_EQ(pool.Find(10), nullptr);
  EXPECT_EQ(pool.size(), 1u);

  // A state larger than the whole budget is not retained.
  WalkerStatePool<BackwardWalkerState> tiny(1);
  tiny.Put(1, proto);
  EXPECT_EQ(tiny.Find(1), nullptr);
}

TEST(ResumeTest, WalkerStatePoolRetuneGrowsOnThrashShrinksOnIdle) {
  Graph g = StarGraph(16);
  DhtParams p = DhtParams::Lambda(0.2);
  BackwardWalker walker(g);
  BackwardWalkerState proto;
  walker.Reset(p, ExtNodeId(1));
  walker.Advance(2);
  walker.Save(&proto);
  const std::size_t per_state = proto.ApproxBytes();

  // THRASH: four keys cycling through a one-state budget — misses and
  // evictions dominate, so the feedback autotuner doubles the budget.
  WalkerStatePool<BackwardWalkerState> pool(per_state + per_state / 2);
  for (uint64_t k = 0; k < 8; ++k) {
    EXPECT_EQ(pool.Find(k % 4), nullptr);
    pool.Put(k % 4, proto);
  }
  EXPECT_GT(pool.evictions(), 0);
  const std::size_t before = pool.max_bytes();
  EXPECT_EQ(pool.Retune(per_state, 100 * per_state), 2 * before);
  EXPECT_EQ(pool.budget_grows(), 1);
  // No new activity since: the budget holds steady.
  EXPECT_EQ(pool.Retune(per_state, 100 * per_state), 2 * before);
  EXPECT_EQ(pool.budget_grows(), 1);

  // IDLE: all hits, no evictions, resident far below the budget — the
  // autotuner halves it (never below `lo` or the resident bytes).
  WalkerStatePool<BackwardWalkerState> idle(64 * per_state);
  idle.Put(1, proto);
  for (int i = 0; i < 8; ++i) EXPECT_NE(idle.Find(1), nullptr);
  EXPECT_EQ(idle.Retune(per_state, 100 * per_state), 32 * per_state);
  EXPECT_EQ(idle.budget_shrinks(), 1);
  // Repeated idle periods keep shrinking, but never below `lo`.
  for (int i = 0; i < 20; ++i) idle.Retune(4 * per_state, 100 * per_state);
  EXPECT_EQ(idle.max_bytes(), 4 * per_state);
}

TEST(ResumeTest, BatchWorkspacePoolCapDiscardsIdleWorkspaces) {
  Graph g = RandomGraph(60, 200, 91);
  DhtParams p = DhtParams::Lambda(0.2);
  std::vector<ExtNodeId> targets = {
      ExtNodeId(1), ExtNodeId(2), ExtNodeId(3), ExtNodeId(4),
      ExtNodeId(5), ExtNodeId(6), ExtNodeId(7), ExtNodeId(8),
      ExtNodeId(9), ExtNodeId(10)};
  std::vector<ExtNodeId> sources = {
      ExtNodeId(11), ExtNodeId(12), ExtNodeId(13)};

  // max_pooled_bytes = 1: every workspace is freed on release instead
  // of pinning 128 bytes/node for the engine's lifetime. Scores are
  // unaffected — the cap trades reallocation time for idle memory.
  BackwardWalkerBatch pooled(g);
  BackwardWalkerBatch capped(g, {.max_pooled_bytes = 1});
  EXPECT_EQ(pooled.Run(p, 4, targets, sources),
            capped.Run(p, 4, targets, sources));
  EXPECT_GT(pooled.pooled_workspaces(), 0u);
  EXPECT_LE(pooled.pooled_workspace_bytes(),
            BackwardWalkerBatch::kDefaultMaxPooledBytes);
  EXPECT_EQ(capped.pooled_workspaces(), 0u);
  EXPECT_EQ(capped.pooled_workspace_bytes(), 0u);
  EXPECT_GT(capped.workspaces_discarded(), 0);
  EXPECT_EQ(pooled.workspaces_discarded(), 0);

  ForwardWalkerBatch fpooled(g);
  ForwardWalkerBatch fcapped(g, {.max_pooled_bytes = 1});
  EXPECT_EQ(fpooled.Run(p, 4, sources, targets),
            fcapped.Run(p, 4, sources, targets));
  EXPECT_EQ(fcapped.pooled_workspaces(), 0u);
  EXPECT_GT(fcapped.workspaces_discarded(), 0);
}

// ------------------------------------------------- batched backward

// Every layout of a graph of eight sparse clusters. Their local walks
// keep a restored multi-lane block sparse at its first step: the step
// that consumes the order of the restored union support, which the
// restore leaves in lane-load order and the step must sort first. The
// well-mixed random graphs below resume mostly into dense steps.
std::vector<Graph> ClusteredLayouts() {
  return testing::AllLayouts(testing::ClusteredGraph(8, 100, 200, 5));
}

// Walks `targets` through the IDJ deepening schedule on resumable
// states; every row must equal a from-scratch Run bit for bit.
void ExpectBackwardResumeMatchesScratch(const Graph& g,
                                        const std::vector<ExtNodeId>& targets,
                                        const std::vector<ExtNodeId>& sources,
                                        const std::string& label) {
  std::vector<std::size_t> slots;
  for (std::size_t i = 0; i < targets.size(); ++i) slots.push_back(i);
  for (const DhtParams& p : Semantics()) {
    BackwardWalkerBatch batch(g);
    std::vector<double> scratch = batch.Run(p, 8, targets, sources);

    BackwardBatchStates states(targets.size());
    std::vector<double> resumed(scratch.size());
    int64_t fresh_total = 0;
    for (int l : {1, 2, 4, 8}) {  // the IDJ deepening schedule
      fresh_total += batch.AdvanceChunked(
          p, l, targets, slots, sources,
          states, [&](std::size_t i, const double* row) {
            std::copy(row, row + sources.size(),
                      resumed.data() + i * sources.size());
          });
    }
    // Every target walked from scratch exactly once, at level 1.
    EXPECT_EQ(fresh_total, static_cast<int64_t>(targets.size())) << label;
    for (std::size_t i = 0; i < scratch.size(); ++i) {
      EXPECT_EQ(resumed[i], scratch[i])
          << label << " first_hit=" << p.first_hit << " i=" << i;
    }
  }
}

TEST(ResumeTest, BackwardBatchResumeMatchesFromScratchBitwise) {
  std::vector<ExtNodeId> sources;
  for (NodeId u = 0; u < 25; ++u) sources.push_back(ExtNodeId(u));
  ExpectBackwardResumeMatchesScratch(
      RandomGraph(50, 170, 43, true, true),
      {ExtNodeId(3), ExtNodeId(9), ExtNodeId(14), ExtNodeId(20),
       ExtNodeId(27), ExtNodeId(33), ExtNodeId(38), ExtNodeId(44),
       ExtNodeId(48)},
      sources, "random");

  // Two lane blocks with one target per cluster each, plus a lone
  // ninth target; three sources per cluster.
  std::vector<ExtNodeId> targets;
  for (NodeId c = 0; c < 8; ++c) targets.push_back(ExtNodeId(c * 100 + 7));
  for (NodeId c = 0; c < 8; ++c) targets.push_back(ExtNodeId(c * 100 + 61));
  targets.push_back(ExtNodeId(333));
  sources.clear();
  for (NodeId c = 0; c < 8; ++c) {
    for (NodeId off : {2, 40, 90}) sources.push_back(ExtNodeId(c * 100 + off));
  }
  int layout = 0;
  for (const Graph& g : ClusteredLayouts()) {
    ExpectBackwardResumeMatchesScratch(
        g, targets, sources, "clustered layout " + std::to_string(layout++));
  }
}

TEST(ResumeTest, BackwardBatchResumeRelaxesFewerEdgesThanRestart) {
  Graph g = RandomGraph(60, 220, 44);
  DhtParams p = DhtParams::Lambda(0.2);
  std::vector<ExtNodeId> targets;
  std::vector<std::size_t> slots;
  for (NodeId q = 0; q < 24; ++q) {
    targets.push_back(ExtNodeId(q));
    slots.push_back(static_cast<std::size_t>(q));
  }
  std::vector<ExtNodeId> sources = {
      ExtNodeId(30), ExtNodeId(40), ExtNodeId(50), ExtNodeId(55)};

  BackwardWalkerBatch restart(g);
  BackwardWalkerBatch resume(g);
  BackwardBatchStates states(targets.size());
  auto sink = [](std::size_t, const double*) {};
  for (int l : {1, 2, 4, 8}) {
    restart.RunChunked(p, l, targets, sources, sink);
    resume.AdvanceChunked(p, l, targets, slots, sources, states, sink);
  }
  // Restart pays 1+2+4+8 = 15 levels of stepping; resume pays 8.
  EXPECT_LT(resume.edges_relaxed(), restart.edges_relaxed());
  EXPECT_GT(resume.edges_relaxed(), 0);
}

TEST(ResumeTest, BackwardBatchEvictionRestartsTransparently) {
  Graph g = RandomGraph(40, 130, 45);
  DhtParams p = DhtParams::Exponential();
  std::vector<ExtNodeId> targets = {
      ExtNodeId(1), ExtNodeId(5), ExtNodeId(9), ExtNodeId(13),
      ExtNodeId(17), ExtNodeId(21), ExtNodeId(25), ExtNodeId(29),
      ExtNodeId(33), ExtNodeId(37)};
  std::vector<std::size_t> slots;
  for (std::size_t i = 0; i < targets.size(); ++i) slots.push_back(i);
  std::vector<ExtNodeId> sources = {
      ExtNodeId(0), ExtNodeId(2), ExtNodeId(4), ExtNodeId(6)};

  BackwardWalkerBatch batch(g);
  std::vector<double> scratch = batch.Run(p, 6, targets, sources);

  // A 1-byte budget: every writeback is dropped, every level restarts —
  // results must not change (only the step count does).
  BackwardBatchStates starving(targets.size(), 1);
  std::vector<double> resumed(scratch.size());
  for (int l : {1, 2, 4, 6}) {
    batch.AdvanceChunked(p, l, targets, slots, sources, starving,
                         [&](std::size_t i, const double* row) {
                           std::copy(row, row + sources.size(),
                                     resumed.data() + i * sources.size());
                         });
  }
  EXPECT_EQ(starving.bytes(), 0u);
  for (std::size_t i = 0; i < scratch.size(); ++i) {
    EXPECT_EQ(resumed[i], scratch[i]) << "i=" << i;
  }
}

TEST(ResumeTest, BackwardBatchDropFreesAndRestarts) {
  Graph g = TwoCommunityGraph();
  DhtParams p = DhtParams::Lambda(0.4);
  std::vector<ExtNodeId> targets = {
      ExtNodeId(7), ExtNodeId(2)};
  std::vector<std::size_t> slots = {0, 1};
  std::vector<ExtNodeId> sources = {
      ExtNodeId(0), ExtNodeId(1), ExtNodeId(3)};
  BackwardWalkerBatch batch(g);
  BackwardBatchStates states(2);
  auto sink = [](std::size_t, const double*) {};
  batch.AdvanceChunked(p, 2, targets, slots, sources, states, sink);
  EXPECT_EQ(states.level(0), 2);
  EXPECT_GT(states.bytes(), 0u);
  states.Drop(0);
  EXPECT_EQ(states.level(0), 0);
  // Dropped slot restarts; undropped one resumes. Both match scratch.
  std::vector<double> rows(2 * sources.size());
  int64_t fresh = batch.AdvanceChunked(
      p, 4, targets, slots, sources, states,
      [&](std::size_t i, const double* row) {
        std::copy(row, row + sources.size(), rows.data() + i * sources.size());
      });
  EXPECT_EQ(fresh, 1);
  std::vector<double> scratch = batch.Run(p, 4, targets, sources);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i], scratch[i]);
  }
}

// -------------------------------------------------- batched forward

TEST(ResumeTest, ForwardBatchMatchesScalarWalker) {
  Graph g = RandomGraph(50, 160, 46, true, true);
  std::vector<ExtNodeId> sources;
  for (NodeId u = 0; u < 21; ++u) sources.push_back(ExtNodeId(u));
  std::vector<ExtNodeId> targets = {
      ExtNodeId(25), ExtNodeId(30), ExtNodeId(35), ExtNodeId(40),
      ExtNodeId(45)};
  for (const DhtParams& p : Semantics()) {
    ForwardWalkerBatch batch(g);
    std::vector<double> got = batch.Run(p, 8, sources, targets);
    ASSERT_EQ(got.size(), sources.size() * targets.size());
    ForwardWalker walker(g);
    for (std::size_t s = 0; s < sources.size(); ++s) {
      for (std::size_t t = 0; t < targets.size(); ++t) {
        if (sources[s] == targets[t]) continue;
        double want = walker.Compute(p, 8, sources[s], targets[t]);
        // The sorted-support contract makes batch lanes bit-equal to
        // the scalar engine, not merely 1e-12-close.
        EXPECT_EQ(got[s * targets.size() + t], want)
            << "first_hit=" << p.first_hit << " s=" << s << " t=" << t;
      }
    }
  }
}

TEST(ResumeTest, ForwardBatchChunkedMatchesSingleRun) {
  Graph g = RandomGraph(40, 120, 47);
  DhtParams p = DhtParams::Lambda(0.3);
  std::vector<ExtNodeId> sources = {
      ExtNodeId(0), ExtNodeId(3), ExtNodeId(6), ExtNodeId(9),
      ExtNodeId(12), ExtNodeId(15), ExtNodeId(18), ExtNodeId(21),
      ExtNodeId(24), ExtNodeId(27)};
  std::vector<ExtNodeId> targets = {
      ExtNodeId(30), ExtNodeId(33), ExtNodeId(36)};
  ForwardWalkerBatch batch(g);
  std::vector<double> whole = batch.Run(p, 7, sources, targets);
  std::vector<double> chunked(whole.size(), 0.0);
  std::vector<int> rows_seen(sources.size(), 0);
  batch.RunChunked(
      p, 7, sources, targets,
      [&](std::size_t s, const double* row) {
        rows_seen[s]++;
        std::copy(row, row + targets.size(), &chunked[s * targets.size()]);
      },
      /*max_sources_per_run=*/3);
  for (int seen : rows_seen) EXPECT_EQ(seen, 1);
  for (std::size_t i = 0; i < whole.size(); ++i) {
    EXPECT_EQ(chunked[i], whole[i]) << "i=" << i;
  }
}

TEST(ResumeTest, ForwardBatchThreadCountDoesNotChangeResults) {
  Graph g = RandomGraph(45, 150, 48);
  DhtParams p = DhtParams::Lambda(0.5);
  std::vector<ExtNodeId> sources;
  for (NodeId u = 0; u < 30; ++u) sources.push_back(ExtNodeId(u));
  std::vector<ExtNodeId> targets = {
      ExtNodeId(31), ExtNodeId(35), ExtNodeId(39), ExtNodeId(43)};
  ForwardWalkerBatch one(g, {.num_threads = 1});
  ForwardWalkerBatch four(g, {.num_threads = 4});
  std::vector<double> a = one.Run(p, 8, sources, targets);
  std::vector<double> b = four.Run(p, 8, sources, targets);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "i=" << i;
  }
  EXPECT_EQ(one.edges_relaxed(), four.edges_relaxed());
}

// Walks every (source, target) pair through the deepening schedule on
// resumable states; every score must equal a from-scratch Run bit for
// bit.
void ExpectForwardResumeMatchesScratch(const Graph& g,
                                       const std::vector<ExtNodeId>& sources,
                                       ExtNodeId target,
                                       const std::string& label) {
  std::vector<std::size_t> slots;
  for (std::size_t i = 0; i < sources.size(); ++i) slots.push_back(i);
  const std::vector<ExtNodeId> target_vec = {target};
  for (const DhtParams& p : Semantics()) {
    ForwardWalkerBatch batch(g);
    std::vector<double> scratch = batch.Run(p, 8, sources, target_vec);

    ForwardBatchStates states;  // sparse map: no slot-count preallocation
    std::vector<double> resumed(sources.size());
    int64_t fresh_total = 0;
    for (int l : {1, 2, 4, 8}) {
      fresh_total += batch.AdvancePairs(
          p, l, sources, slots, target, states,
          [&](std::size_t i, double s) { resumed[i] = s; });
    }
    EXPECT_EQ(fresh_total, static_cast<int64_t>(sources.size())) << label;
    for (std::size_t i = 0; i < sources.size(); ++i) {
      EXPECT_EQ(resumed[i], scratch[i])
          << label << " first_hit=" << p.first_hit << " i=" << i;
    }
  }
}

TEST(ResumeTest, ForwardBatchPairResumeMatchesFromScratchBitwise) {
  ExpectForwardResumeMatchesScratch(
      RandomGraph(40, 130, 49, false, true),
      {ExtNodeId(0), ExtNodeId(2), ExtNodeId(4), ExtNodeId(6), ExtNodeId(8),
       ExtNodeId(10), ExtNodeId(12), ExtNodeId(14), ExtNodeId(16)},
      ExtNodeId(33), "random");

  // Nine sources around one target, all in cluster 4.
  std::vector<ExtNodeId> sources;
  for (NodeId off = 3; off < 100; off += 11) {
    sources.push_back(ExtNodeId(400 + off));
  }
  int layout = 0;
  for (const Graph& g : ClusteredLayouts()) {
    ExpectForwardResumeMatchesScratch(
        g, sources, ExtNodeId(450),
        "clustered layout " + std::to_string(layout++));
  }
}

// ------------------------------------- fused multi-target scheduler

TEST(ResumeTest, BackwardBatchMatchesScalarWalkerBitwise) {
  // The batch engine accumulates beta-exclusive delta rows in the
  // scalar walker's exact step order and adds beta at output, so the
  // two engines are BIT-identical — the property that lets the
  // incremental join's batch-driven initial schedule coexist with the
  // scalar Next() path without perturbing a single result.
  Graph g = RandomGraph(50, 170, 61, true, true);
  std::vector<ExtNodeId> targets = {
      ExtNodeId(2), ExtNodeId(7), ExtNodeId(13), ExtNodeId(21),
      ExtNodeId(30), ExtNodeId(44)};
  std::vector<ExtNodeId> sources;
  for (NodeId u = 0; u < 25; ++u) sources.push_back(ExtNodeId(u));
  for (const DhtParams& p : Semantics()) {
    BackwardWalkerBatch batch(g);
    std::vector<double> got = batch.Run(p, 8, targets, sources);
    BackwardWalker walker(g);
    for (std::size_t t = 0; t < targets.size(); ++t) {
      walker.Reset(p, targets[t]);
      walker.Advance(8);
      for (std::size_t s = 0; s < sources.size(); ++s) {
        if (sources[s] == targets[t]) continue;
        EXPECT_EQ(got[t * sources.size() + s], walker.Score(sources[s]))
            << "first_hit=" << p.first_hit << " t=" << t << " s=" << s;
      }
    }
  }
}

/// Runs the F-IDJ-shaped deepening schedule over every (source, target)
/// pair with one AdvancePairs call per target per level — the
/// historical per-target loop — and returns the final-level scores
/// (row-major by target) plus the engine's barrier count.
std::pair<std::vector<double>, int64_t> ForwardPerTargetLoop(
    const Graph& g, const DhtParams& p, const std::vector<int>& levels,
    const std::vector<ExtNodeId>& sources,
    const std::vector<ExtNodeId>& targets, int num_threads) {
  ForwardWalkerBatch batch(g, {.num_threads = num_threads});
  ForwardBatchStates states;
  std::vector<double> out(targets.size() * sources.size());
  std::vector<std::size_t> slots(sources.size());
  for (int l : levels) {
    for (std::size_t t = 0; t < targets.size(); ++t) {
      for (std::size_t i = 0; i < sources.size(); ++i) {
        slots[i] = i * targets.size() + t;
      }
      batch.AdvancePairs(p, l, sources, slots, targets[t], states,
                         [&](std::size_t i, double s) {
                           out[t * sources.size() + i] = s;
                         });
    }
  }
  return {std::move(out), batch.scheduler_barriers()};
}

/// The same schedule through the fused scheduler: ONE AdvanceMany call
/// (one fork/join) per level across all targets.
std::pair<std::vector<double>, int64_t> ForwardFusedSchedule(
    const Graph& g, const DhtParams& p, const std::vector<int>& levels,
    const std::vector<ExtNodeId>& sources,
    const std::vector<ExtNodeId>& targets, int num_threads) {
  ForwardWalkerBatch batch(g, {.num_threads = num_threads});
  ForwardBatchStates states;
  std::vector<double> out(targets.size() * sources.size());
  std::vector<std::size_t> slots(targets.size() * sources.size());
  std::vector<ForwardTargetPlan> plans(targets.size());
  for (std::size_t t = 0; t < targets.size(); ++t) {
    for (std::size_t i = 0; i < sources.size(); ++i) {
      slots[t * sources.size() + i] = i * targets.size() + t;
    }
    plans[t].target = targets[t];
    plans[t].sources = sources;
    plans[t].slots = {slots.data() + t * sources.size(), sources.size()};
    plans[t].out = out.data() + t * sources.size();
  }
  for (int l : levels) batch.AdvanceMany(p, l, plans, states, true);
  return {std::move(out), batch.scheduler_barriers()};
}

TEST(ResumeTest, ForwardAdvanceManyMatchesPerTargetLoopBitwise) {
  Graph base = RandomGraph(48, 160, 62, true, true);
  Graph rcm = *ReorderGraph(base, ReorderKind::kRcm);
  std::vector<ExtNodeId> sources;
  for (NodeId u = 0; u < 19; ++u) sources.push_back(ExtNodeId(u));
  std::vector<ExtNodeId> targets = {
      ExtNodeId(20), ExtNodeId(25), ExtNodeId(30), ExtNodeId(35),
      ExtNodeId(40), ExtNodeId(45), ExtNodeId(47)};
  const std::vector<int> levels = {1, 2, 4, 8};
  for (const DhtParams& p : Semantics()) {
    auto [loop, loop_barriers] =
        ForwardPerTargetLoop(base, p, levels, sources, targets, 1);
    for (const Graph* g : {&base, &rcm}) {
      for (int threads : {1, 4}) {
        auto [fused, fused_barriers] =
            ForwardFusedSchedule(*g, p, levels, sources, targets, threads);
        ASSERT_EQ(fused.size(), loop.size());
        for (std::size_t i = 0; i < loop.size(); ++i) {
          EXPECT_EQ(fused[i], loop[i])
              << "first_hit=" << p.first_hit << " i=" << i
              << " threads=" << threads << " rcm=" << (g == &rcm);
        }
        // One barrier per level instead of |targets| per level.
        EXPECT_EQ(fused_barriers,
                  static_cast<int64_t>(levels.size()));
        EXPECT_EQ(loop_barriers,
                  static_cast<int64_t>(levels.size() * targets.size()));
      }
    }
    // Restart-vs-resume: the fused resume schedule equals a single
    // from-scratch run at the final depth.
    ForwardWalkerBatch scratch(base);
    std::vector<double> whole = scratch.Run(p, 8, sources, targets);
    for (std::size_t t = 0; t < targets.size(); ++t) {
      for (std::size_t i = 0; i < sources.size(); ++i) {
        EXPECT_EQ(loop[t * sources.size() + i],
                  whole[i * targets.size() + t])
            << "first_hit=" << p.first_hit;
      }
    }
  }
}

TEST(ResumeTest, BackwardAdvanceManyMultiGroupMatchesSequentialBitwise) {
  Graph g = RandomGraph(55, 180, 63, true, true);
  DhtParams p = DhtParams::Lambda(0.3);
  std::vector<ExtNodeId> targets_a = {
      ExtNodeId(1), ExtNodeId(4), ExtNodeId(9), ExtNodeId(16),
      ExtNodeId(25), ExtNodeId(36), ExtNodeId(49)};
  std::vector<ExtNodeId> targets_b = {
      ExtNodeId(2), ExtNodeId(6), ExtNodeId(12), ExtNodeId(20),
      ExtNodeId(30), ExtNodeId(42)};
  std::vector<ExtNodeId> sources_a = {
      ExtNodeId(40), ExtNodeId(41), ExtNodeId(42), ExtNodeId(43)};
  std::vector<ExtNodeId> sources_b = {
      ExtNodeId(10), ExtNodeId(11), ExtNodeId(12)};
  std::vector<std::size_t> slots_a, slots_b;
  for (std::size_t i = 0; i < targets_a.size(); ++i) slots_a.push_back(i);
  for (std::size_t i = 0; i < targets_b.size(); ++i) slots_b.push_back(i);

  // Sequential: one AdvanceChunked per group per level.
  BackwardWalkerBatch seq(g);
  BackwardBatchStates seq_a(targets_a.size()), seq_b(targets_b.size());
  std::vector<double> want_a(targets_a.size() * sources_a.size());
  std::vector<double> want_b(targets_b.size() * sources_b.size());
  auto copy_to = [](std::vector<double>& dst, std::size_t width) {
    return [&dst, width](std::size_t i, const double* row) {
      std::copy(row, row + width, dst.data() + i * width);
    };
  };
  for (int l : {1, 2, 4, 8}) {
    seq.AdvanceChunked(p, l, targets_a, slots_a, sources_a, seq_a,
                       copy_to(want_a, sources_a.size()));
    seq.AdvanceChunked(p, l, targets_b, slots_b, sources_b, seq_b,
                       copy_to(want_b, sources_b.size()));
  }

  // Fused: both groups (their own states, sources, and output rows) in
  // one AdvanceMany per level — one barrier for the whole round.
  BackwardWalkerBatch fused(g);
  BackwardBatchStates fus_a(targets_a.size()), fus_b(targets_b.size());
  std::vector<double> got_a(want_a.size()), got_b(want_b.size());
  for (int l : {1, 2, 4, 8}) {
    BackwardAdvanceGroup groups[2];
    groups[0] = {l, targets_a, slots_a, sources_a, &fus_a,
                 SaveStates::kResumable, got_a.data()};
    groups[1] = {l, targets_b, slots_b, sources_b, &fus_b,
                 SaveStates::kResumable, got_b.data()};
    fused.AdvanceMany(p, groups);
  }
  for (std::size_t i = 0; i < want_a.size(); ++i) {
    EXPECT_EQ(got_a[i], want_a[i]) << "group a, i=" << i;
  }
  for (std::size_t i = 0; i < want_b.size(); ++i) {
    EXPECT_EQ(got_b[i], want_b[i]) << "group b, i=" << i;
  }
  EXPECT_EQ(fused.scheduler_barriers(), 4);
  EXPECT_EQ(seq.scheduler_barriers(), 8);
}

TEST(ResumeTest, NarrowLaneWidthIsBitIdenticalToDefault) {
  // kLaneWidth = 4: half the workspace bytes per block, twice the
  // blocks in flight, identical bits — lanes are independent columns
  // and the union support only ever contributes exact zeros to lanes
  // that don't own a node.
  Graph g = RandomGraph(50, 170, 64, true, true);
  std::vector<ExtNodeId> targets = {
      ExtNodeId(3), ExtNodeId(9), ExtNodeId(14), ExtNodeId(20),
      ExtNodeId(27), ExtNodeId(33), ExtNodeId(38), ExtNodeId(44),
      ExtNodeId(48)};
  std::vector<ExtNodeId> sources;
  for (NodeId u = 0; u < 22; ++u) sources.push_back(ExtNodeId(u));
  std::vector<std::size_t> slots(targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) slots[i] = i;
  for (const DhtParams& p : Semantics()) {
    BackwardWalkerBatchT<8> wide(g);
    BackwardWalkerBatchT<4> narrow(g);
    EXPECT_EQ(wide.Run(p, 8, targets, sources),
              narrow.Run(p, 8, targets, sources))
        << "first_hit=" << p.first_hit;

    // The resumable deepening path too, per level.
    BackwardBatchStates ws(targets.size()), ns(targets.size());
    std::vector<double> wrow(targets.size() * sources.size());
    std::vector<double> nrow(wrow.size());
    for (int l : {1, 2, 4, 8}) {
      wide.AdvanceChunked(p, l, targets, slots, sources, ws,
                          [&](std::size_t i, const double* row) {
                            std::copy(row, row + sources.size(),
                                      wrow.data() + i * sources.size());
                          });
      narrow.AdvanceChunked(p, l, targets, slots, sources, ns,
                            [&](std::size_t i, const double* row) {
                              std::copy(row, row + sources.size(),
                                        nrow.data() + i * sources.size());
                            });
      for (std::size_t i = 0; i < wrow.size(); ++i) {
        EXPECT_EQ(nrow[i], wrow[i])
            << "first_hit=" << p.first_hit << " l=" << l << " i=" << i;
      }
    }

    ForwardWalkerBatchT<8> fwide(g);
    ForwardWalkerBatchT<4> fnarrow(g);
    EXPECT_EQ(fwide.Run(p, 8, sources, targets),
              fnarrow.Run(p, 8, sources, targets))
        << "first_hit=" << p.first_hit;
  }
}

TEST(ResumeTest, BatchStatesRetuneGrowsOnThrashShrinksOnIdle) {
  Graph g = RandomGraph(40, 130, 65);
  DhtParams p = DhtParams::Lambda(0.2);
  std::vector<ExtNodeId> targets = {
      ExtNodeId(1), ExtNodeId(5), ExtNodeId(9), ExtNodeId(13),
      ExtNodeId(17), ExtNodeId(21), ExtNodeId(25), ExtNodeId(29)};
  std::vector<std::size_t> slots(targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) slots[i] = i;
  std::vector<ExtNodeId> sources = {
      ExtNodeId(0), ExtNodeId(2), ExtNodeId(4), ExtNodeId(6)};
  auto sink = [](std::size_t, const double*) {};

  // THRASH: a 1-byte budget refuses every write-back (all misses +
  // evictions), so the feedback autotuner doubles the budget.
  BackwardWalkerBatch batch(g);
  BackwardBatchStates starving(targets.size(), 1);
  for (int l : {1, 2, 4}) {
    batch.AdvanceChunked(p, l, targets, slots, sources, starving, sink);
  }
  EXPECT_GT(starving.evictions(), 0);
  EXPECT_GT(starving.misses(), starving.hits());
  EXPECT_EQ(starving.Retune(1, 1024), 2u);
  EXPECT_EQ(starving.budget_grows(), 1);

  // IDLE: a huge budget with every walk resuming and nothing evicted —
  // the autotuner halves it (never below resident bytes or `lo`).
  BackwardBatchStates idle(targets.size(), std::size_t{64} << 20);
  for (int l : {1, 2, 4, 8}) {
    batch.AdvanceChunked(p, l, targets, slots, sources, idle, sink);
  }
  EXPECT_EQ(idle.evictions(), 0);
  EXPECT_GT(idle.hits(), 0);
  const std::size_t before = idle.max_bytes();
  EXPECT_EQ(idle.Retune(1, std::size_t{1} << 30), before / 2);
  EXPECT_EQ(idle.budget_shrinks(), 1);

  // The forward pool shares the same budget base; spot-check thrash.
  ForwardWalkerBatch fbatch(g);
  ForwardBatchStates fstarving(1);
  std::vector<std::size_t> fslots(sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) fslots[i] = i;
  for (int l : {1, 2, 4}) {
    fbatch.AdvancePairs(p, l, sources, fslots, targets[0], fstarving,
                        [](std::size_t, double) {});
  }
  EXPECT_GT(fstarving.evictions(), 0);
  EXPECT_EQ(fstarving.Retune(1, 1024), 2u);
  EXPECT_EQ(fstarving.budget_grows(), 1);
}

// ------------------------------------------- joins: resume ≡ restart

TEST(ResumeTest, BIdjResumeIsByteIdenticalWithFewerSteps) {
  Graph g = RandomGraph(60, 200, 51, true, true);
  DhtParams p = DhtParams::Lambda(0.2);
  NodeSet P = Range("P", 0, 20);
  NodeSet Q = Range("Q", 25, 55);
  for (auto bound : {UpperBoundKind::kX, UpperBoundKind::kY}) {
    BIdjJoin resumed(BIdjJoin::Options{.bound = bound, .resume = true});
    BIdjJoin restarted(BIdjJoin::Options{.bound = bound, .resume = false});
    auto a = resumed.Run(g, p, 8, P, Q, 10);
    auto b = restarted.Run(g, p, 8, P, Q, 10);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->size(), b->size());
    for (std::size_t i = 0; i < a->size(); ++i) {
      // operator== compares scores exactly: byte-identical output.
      EXPECT_EQ((*a)[i], (*b)[i]) << "rank " << i;
    }
    EXPECT_LT(resumed.stats().walk_steps, restarted.stats().walk_steps);
    EXPECT_LE(resumed.stats().walks_started, restarted.stats().walks_started);
  }
}

TEST(ResumeTest, FIdjResumeIsByteIdenticalWithFewerSteps) {
  Graph g = RandomGraph(50, 170, 52, true, true);
  DhtParams p = DhtParams::Lambda(0.2);
  NodeSet P = Range("P", 0, 15);
  NodeSet Q = Range("Q", 20, 40);
  FIdjJoin resumed(FIdjJoin::Options{.resume = true});
  FIdjJoin restarted(FIdjJoin::Options{.resume = false});
  auto a = resumed.Run(g, p, 8, P, Q, 10);
  auto b = restarted.Run(g, p, 8, P, Q, 10);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (std::size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i], (*b)[i]) << "rank " << i;
  }
  EXPECT_LT(resumed.stats().walk_steps, restarted.stats().walk_steps);
}

}  // namespace
}  // namespace dhtjoin
