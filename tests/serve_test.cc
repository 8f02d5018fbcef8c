/// \file tests/serve_test.cc
/// \brief Serving layer: cross-query ScoreCache, DhtJoinService, and
/// workload generation.
///
/// The load-bearing claims under test (DESIGN.md §6): a warm query is
/// BIT-identical to a cold one — across cached hits, evicted-then-
/// refetched states, and a budget-0 cache — because the walk engines
/// are bit-deterministic and keys are exact; every served two-way
/// answer equals the brute-force join of tests/testing/reference.h bit
/// for bit; and a service executing concurrent sessions returns
/// deterministic per-query answers.

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "core/nl_join.h"
#include "core/partial_join.h"
#include "dht/batch_core.h"
#include "dht/forward_batch.h"
#include "join2/b_idj.h"
#include "join2/incremental.h"
#include "rankjoin/aggregate.h"
#include "serve/score_cache.h"
#include "serve/session.h"
#include "serve/warm_state.h"
#include "serve/workload.h"
#include "testing/reference.h"

namespace dhtjoin {
namespace {

using serve::CacheKey;
using serve::CachePayload;
using serve::CacheStats;
using serve::CachedTable;
using serve::DhtJoinService;
using serve::DigestNodes;
using serve::GraphFingerprint;
using serve::NodeList;
using serve::ScoreCache;
using testing::ExpectSamePairs;
using testing::RandomGraph;
using testing::Range;
using testing::TwoCommunityGraph;

// ------------------------------------------------------------- cache

TEST(ScoreCacheTest, GraphFingerprintSeparatesGraphs) {
  Graph a = RandomGraph(30, 90, 7);
  Graph a2 = RandomGraph(30, 90, 7);
  Graph b = RandomGraph(30, 90, 8);
  Graph c = RandomGraph(30, 91, 7);
  EXPECT_EQ(GraphFingerprint(a), GraphFingerprint(a2));
  EXPECT_NE(GraphFingerprint(a), GraphFingerprint(b));
  EXPECT_NE(GraphFingerprint(a), GraphFingerprint(c));
}

TEST(ScoreCacheTest, DigestNodesIsContentBased) {
  std::vector<ExtNodeId> x = {ExtNodeId(1), ExtNodeId(2), ExtNodeId(3)};
  std::vector<ExtNodeId> y = {ExtNodeId(1), ExtNodeId(2), ExtNodeId(3)};
  std::vector<ExtNodeId> z = {ExtNodeId(1), ExtNodeId(2), ExtNodeId(4)};
  std::vector<ExtNodeId> w = {ExtNodeId(1), ExtNodeId(2)};
  EXPECT_EQ(DigestNodes(x), DigestNodes(y));
  EXPECT_NE(DigestNodes(x), DigestNodes(z));
  EXPECT_NE(DigestNodes(x), DigestNodes(w));
}

CacheKey TableKey(uint64_t graph_fp, std::vector<NodeId> left,
                  std::vector<NodeId> right) {
  CacheKey key;
  key.graph_fp = graph_fp;
  key.kind = CachePayload::kEdgeTable;
  key.d = 8;
  key.set_a = std::make_shared<const std::vector<ExtNodeId>>(WrapExtIds(left));
  key.set_b =
      std::make_shared<const std::vector<ExtNodeId>>(WrapExtIds(right));
  key.digest_a = DigestNodes(*key.set_a);
  key.digest_b = DigestNodes(*key.set_b);
  return key;
}

std::shared_ptr<CachedTable> MakeTable(std::size_t doubles) {
  return std::make_shared<CachedTable>(
      std::make_shared<const std::vector<double>>(doubles, 1.0));
}

TEST(ScoreCacheTest, PutGetAndContentEquality) {
  ScoreCache cache({.max_bytes = 1 << 20, .num_shards = 4});
  CacheKey key = TableKey(11, {1, 2, 3}, {4, 5});
  EXPECT_EQ(cache.GetAs<CachedTable>(key), nullptr);
  cache.Put(key, MakeTable(6));

  // Same contents through DIFFERENT shared_ptrs: must hit.
  CacheKey same = TableKey(11, {1, 2, 3}, {4, 5});
  auto hit = cache.GetAs<CachedTable>(same);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->table->size(), 6u);

  // Any differing component: must miss.
  EXPECT_EQ(cache.GetAs<CachedTable>(TableKey(12, {1, 2, 3}, {4, 5})),
            nullptr);
  EXPECT_EQ(cache.GetAs<CachedTable>(TableKey(11, {1, 2}, {4, 5})), nullptr);
  EXPECT_EQ(cache.GetAs<CachedTable>(TableKey(11, {1, 2, 3}, {4, 6})),
            nullptr);
  CacheKey other_params = TableKey(11, {1, 2, 3}, {4, 5});
  other_params.params.lambda = 0.5;
  EXPECT_EQ(cache.GetAs<CachedTable>(other_params), nullptr);
  CacheKey other_d = TableKey(11, {1, 2, 3}, {4, 5});
  other_d.d = 4;
  EXPECT_EQ(cache.GetAs<CachedTable>(other_d), nullptr);

  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 6);
  EXPECT_EQ(stats.insertions, 1);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.resident_bytes, 0u);
}

TEST(ScoreCacheTest, EvictsLruUnderByteBudget) {
  // One shard so the LRU order is global and deterministic.
  ScoreCache cache({.max_bytes = 4096, .num_shards = 1});
  const std::size_t entry_doubles = 64;  // ~512B payload per entry
  for (NodeId i = 0; i < 20; ++i) {
    cache.Put(TableKey(1, {i}, {i + 100}), MakeTable(entry_doubles));
  }
  CacheStats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0);
  EXPECT_LE(stats.resident_bytes, 4096u);
  EXPECT_LT(stats.entries, 20u);
  // The most recent entry survived; the oldest was evicted.
  EXPECT_NE(cache.GetAs<CachedTable>(TableKey(1, {19}, {119})), nullptr);
  EXPECT_EQ(cache.GetAs<CachedTable>(TableKey(1, {0}, {100})), nullptr);
}

TEST(ScoreCacheTest, AdmissionFirstTouchBypassForSmallPayloads) {
  ScoreCache cache({.max_bytes = 1 << 20,
                    .num_shards = 2,
                    .admission_bypass_bytes = 4096});
  // Tiny payload: the first offer is turned away (one-shot queries
  // never enter the LRU), the second — a repeated key — is admitted.
  CacheKey tiny = TableKey(7, {1}, {2});
  cache.Put(tiny, MakeTable(8));
  EXPECT_EQ(cache.GetAs<CachedTable>(tiny), nullptr);
  EXPECT_EQ(cache.stats().admission_rejects, 1);
  EXPECT_EQ(cache.stats().entries, 0u);
  cache.Put(tiny, MakeTable(8));
  EXPECT_NE(cache.GetAs<CachedTable>(tiny), nullptr);

  // A payload at/above the floor is admitted on first touch.
  CacheKey big = TableKey(7, {3}, {4});
  cache.Put(big, MakeTable(1024));  // 8 KB payload >= 4 KB floor
  EXPECT_NE(cache.GetAs<CachedTable>(big), nullptr);
  EXPECT_EQ(cache.stats().admission_rejects, 1);

  // Default options admit everything (no behaviour change).
  ScoreCache open(ScoreCache::Options{.max_bytes = 1 << 20});
  open.Put(tiny, MakeTable(8));
  EXPECT_NE(open.GetAs<CachedTable>(tiny), nullptr);
  EXPECT_EQ(open.stats().admission_rejects, 0);
}

TEST(ScoreCacheTest, ZeroBudgetHoldsNothing) {
  ScoreCache cache({.max_bytes = 0, .num_shards = 2});
  CacheKey key = TableKey(3, {1}, {2});
  cache.Put(key, MakeTable(4));
  EXPECT_EQ(cache.GetAs<CachedTable>(key), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_GT(cache.stats().evictions, 0);
}

TEST(ScoreCacheTest, OversizedPutKeepsShardResident) {
  // One shard: the three small tables share the slice that the 8 KB
  // table could never fit in. Refusing it must not flush them first.
  ScoreCache cache({.max_bytes = 4096, .num_shards = 1});
  for (NodeId i = 0; i < 3; ++i) {
    cache.Put(TableKey(1, {i}, {i + 100}), MakeTable(64));
  }
  ASSERT_EQ(cache.stats().entries, 3u);
  ASSERT_EQ(cache.stats().evictions, 0);
  const std::size_t resident = cache.stats().resident_bytes;

  cache.Put(TableKey(1, {50}, {150}), MakeTable(1024));
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.resident_bytes, resident);
  EXPECT_EQ(stats.evictions, 1);  // the refused entry, nothing else
  EXPECT_EQ(cache.GetAs<CachedTable>(TableKey(1, {50}, {150})), nullptr);
  for (NodeId i = 0; i < 3; ++i) {
    EXPECT_NE(cache.GetAs<CachedTable>(TableKey(1, {i}, {i + 100})), nullptr)
        << "table " << i;
  }

  // An oversized replacement leaves the resident entry under its key.
  cache.Put(TableKey(1, {0}, {100}), MakeTable(1024));
  auto kept = cache.GetAs<CachedTable>(TableKey(1, {0}, {100}));
  ASSERT_NE(kept, nullptr);
  EXPECT_EQ(kept->table->size(), 64u);
  EXPECT_EQ(cache.stats().entries, 3u);
}

/// A table entry that bills `doubles` cells while touching none of
/// them: reserved capacity only, so large budgets cost no memory.
std::shared_ptr<CachedTable> ReservedTable(std::size_t doubles) {
  auto cells = std::make_shared<std::vector<double>>();
  cells->reserve(doubles);
  return std::make_shared<CachedTable>(std::move(cells));
}

TEST(ScoreCacheTest, GetManyIsGetBatched) {
  for (const std::size_t budget :
       {std::size_t{4096}, AutotuneStateBudgetBytes(1000)}) {
    SCOPED_TRACE("budget " + std::to_string(budget));
    const ScoreCache::Options options{.max_bytes = budget, .num_shards = 4};
    ScoreCache batched(options);
    ScoreCache sequential(options);
    // About five entries per shard's slice: the 30 inserts evict some.
    const std::size_t doubles = budget / 4 / 5 / sizeof(double);
    auto put = [&](NodeId i) {
      const CacheKey key = TableKey(1, {i}, {i + 100});
      const auto entry = ReservedTable(doubles);
      batched.Put(key, entry);
      sequential.Put(key, entry);
    };
    for (NodeId i = 0; i < 30; ++i) put(i);
    ASSERT_GT(batched.stats().evictions, 0);

    // Hits and misses, a repeat, across every shard.
    std::vector<CacheKey> keys;
    for (NodeId i : {29, 3, 40, 17, 3, 0, 28, 55, 12, 26, 21, 9, 1, 27}) {
      keys.push_back(TableKey(1, {i}, {i + 100}));
    }
    std::vector<std::shared_ptr<const serve::CacheEntry>> got(keys.size());
    batched.GetMany(keys, got);
    int hits = 0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const std::shared_ptr<const serve::CacheEntry> want =
          sequential.Get(keys[i]);
      EXPECT_EQ(got[i], want) << "key " << i;
      hits += want != nullptr ? 1 : 0;
    }
    EXPECT_GT(hits, 0);
    EXPECT_LT(hits, static_cast<int>(keys.size()));

    auto expect_same_caches = [&](const std::string& when) {
      const CacheStats a = batched.stats();
      const CacheStats b = sequential.stats();
      EXPECT_EQ(a.hits, b.hits) << when;
      EXPECT_EQ(a.misses, b.misses) << when;
      EXPECT_EQ(a.insertions, b.insertions) << when;
      EXPECT_EQ(a.evictions, b.evictions) << when;
      EXPECT_EQ(a.resident_bytes, b.resident_bytes) << when;
      EXPECT_EQ(a.entries, b.entries) << when;
      const auto x = batched.Export();
      const auto y = sequential.Export();
      ASSERT_EQ(x.size(), y.size()) << when;
      for (std::size_t i = 0; i < x.size(); ++i) {
        EXPECT_TRUE(x[i].key == y[i].key) << when << " entry " << i;
        EXPECT_EQ(x[i].entry, y[i].entry) << when << " entry " << i;
      }
    };
    expect_same_caches("after the lookups");
    // Over-budget puts evict each shard's least recent entries, so the
    // recency the lookups left decides which go.
    const int64_t evictions = batched.stats().evictions;
    for (NodeId i = 60; i < 68; ++i) put(i);
    EXPECT_GT(batched.stats().evictions, evictions);
    expect_same_caches("after the puts");
  }
}

TEST(ScoreCacheTest, InternSharesOneVectorPerDistinctSet) {
  ScoreCache cache({.max_bytes = 1 << 20, .num_shards = 4});
  const NodeSet a = Range("A", 0, 5);
  const NodeSet also_a = Range("also A", 0, 5);
  const NodeSet b = Range("B", 1, 6);
  const uint64_t digest_a = DigestNodes(a.nodes());

  // Equal contents from different NodeSets: one vector.
  NodeList x = cache.Intern(a.nodes(), digest_a);
  NodeList y = cache.Intern(also_a.nodes(), DigestNodes(also_a.nodes()));
  EXPECT_EQ(x, y);
  EXPECT_EQ(*x, a.nodes());
  EXPECT_EQ(cache.interned_sets(), 1u);

  // Different contents under one digest (a forced collision): a vector
  // each, each found again by its own contents.
  NodeList z = cache.Intern(b.nodes(), digest_a);
  EXPECT_NE(z, x);
  EXPECT_EQ(*z, b.nodes());
  EXPECT_EQ(cache.Intern(b.nodes(), digest_a), z);
  EXPECT_EQ(cache.Intern(a.nodes(), digest_a), x);
  EXPECT_EQ(cache.interned_sets(), 2u);

  // Keys over the colliding sets stay apart in the cache.
  CacheKey key_a = TableKey(5, {0, 1, 2, 3, 4}, {9});
  CacheKey key_b = TableKey(5, {1, 2, 3, 4, 5}, {9});
  key_a.digest_a = digest_a;
  key_b.digest_a = digest_a;
  cache.Put(key_a, MakeTable(2));
  cache.Put(key_b, MakeTable(3));
  ASSERT_NE(cache.GetAs<CachedTable>(key_a), nullptr);
  ASSERT_NE(cache.GetAs<CachedTable>(key_b), nullptr);
  EXPECT_EQ(cache.GetAs<CachedTable>(key_a)->table->size(), 2u);
  EXPECT_EQ(cache.GetAs<CachedTable>(key_b)->table->size(), 3u);

  // A stored key holds the interned vector, not the one it came with.
  for (const ScoreCache::ExportedEntry& e : cache.Export()) {
    EXPECT_EQ(e.key.set_a, *e.key.set_a == a.nodes() ? x : z);
    EXPECT_NE(e.key.set_a, key_a.set_a);
    EXPECT_NE(e.key.set_a, key_b.set_a);
  }

  // An expired set leaves the table: once the cache and every holder
  // let go of A, only B and the right-hand set {9} remain.
  EXPECT_EQ(cache.interned_sets(), 3u);
  cache.Erase(key_a);
  x.reset();
  y.reset();
  EXPECT_EQ(cache.interned_sets(), 2u);
  cache.Clear();
  z.reset();
  EXPECT_EQ(cache.interned_sets(), 0u);
}

// ------------------------------------------- warm/cold equivalence

struct TwoWayFixture {
  Graph g = RandomGraph(70, 260, 91, true, true);
  DhtParams p = DhtParams::Lambda(0.2);
  int d = 8;
  NodeSet P = Range("P", 0, 25);
  NodeSet Q = Range("Q", 30, 65);
  std::size_t k = 15;

  std::vector<ScoredPair> Reference() {
    BIdjJoin join;
    auto r = join.Run(g, p, d, P, Q, k);
    EXPECT_TRUE(r.ok());
    return *r;
  }
};

TEST(DhtJoinServiceTest, ColdAndWarmMatchFreshRunBitIdentical) {
  TwoWayFixture f;
  std::vector<ScoredPair> reference = f.Reference();

  DhtJoinService service(f.g, f.p, f.d, {.num_threads = 1});
  serve::QueryStats cold_stats, warm_stats;
  auto cold = service.TwoWay(f.P, f.Q, f.k, &cold_stats);
  ASSERT_TRUE(cold.ok());
  ExpectSamePairs(*cold, reference, "cold vs fresh B-IDJ");
  EXPECT_EQ(cold_stats.warm_targets, 0);
  EXPECT_FALSE(cold_stats.ybound_cached);

  auto warm = service.TwoWay(f.P, f.Q, f.k, &warm_stats);
  ASSERT_TRUE(warm.ok());
  ExpectSamePairs(*warm, reference, "warm vs fresh B-IDJ");
  EXPECT_GT(warm_stats.warm_targets, 0);
  EXPECT_TRUE(warm_stats.ybound_cached);
  // The whole point: a warm repeat does strictly less walk work.
  EXPECT_LT(warm_stats.join.walk_steps, cold_stats.join.walk_steps);
}

TEST(DhtJoinServiceTest, ZipfianStreamWarmEqualsColdAndRepeatsWalkLess) {
  // A Zipfian stream of interleaved templates over shared sets: every
  // answer of a warm service equals the same request's answer on a
  // budget-0 (always cold) service and a fresh B-IDJ run of its
  // template, byte for byte; and every repeat of a template walks
  // strictly fewer steps warm than the same request does cold.
  Graph g = RandomGraph(90, 320, 29, /*undirected=*/true, /*weighted=*/true);
  const DhtParams p = DhtParams::Lambda(0.2);
  const int d = 8;
  const std::vector<NodeSet> sets = {Range("A", 0, 22), Range("B", 22, 45),
                                     Range("C", 45, 68), Range("D", 68, 90)};
  serve::WorkloadOptions wopts;
  wopts.num_requests = 40;
  wopts.num_templates = 6;
  wopts.set_size = 16;
  wopts.k = 12;
  wopts.seed = 29;
  auto workload = serve::GenerateZipfianTwoWayWorkload(g, sets, wopts);
  ASSERT_TRUE(workload.ok());

  DhtJoinService cold(g, p, d, {.cache_budget_bytes = 0, .num_threads = 1});
  DhtJoinService warm(g, p, d, {.num_threads = 1});
  std::vector<char> seen(workload->num_templates, 0);
  int repeats = 0;
  for (const serve::TwoWayRequest& req : workload->requests) {
    const std::string label = "template " + std::to_string(req.template_id);
    serve::QueryStats cold_stats, warm_stats;
    auto cold_answer = cold.TwoWay(req.P, req.Q, req.k, &cold_stats);
    auto warm_answer = warm.TwoWay(req.P, req.Q, req.k, &warm_stats);
    ASSERT_TRUE(cold_answer.ok());
    ASSERT_TRUE(warm_answer.ok());
    BIdjJoin fresh;
    auto reference = fresh.Run(g, p, d, req.P, req.Q, req.k);
    ASSERT_TRUE(reference.ok());
    ExpectSamePairs(*cold_answer, *reference, label + " cold");
    ExpectSamePairs(*warm_answer, *reference, label + " warm");
    if (seen[req.template_id]) {
      ++repeats;
      EXPECT_LT(warm_stats.join.walk_steps, cold_stats.join.walk_steps)
          << label;
    }
    seen[req.template_id] = 1;
  }
  EXPECT_GT(repeats, 0);
  EXPECT_GT(warm.cache_stats().hits, 0);
}

TEST(DhtJoinServiceTest, ZeroBudgetCacheIsBitIdenticalToFresh) {
  TwoWayFixture f;
  std::vector<ScoredPair> reference = f.Reference();
  DhtJoinService service(f.g, f.p, f.d,
                         {.cache_budget_bytes = 0, .num_threads = 1});
  for (int round = 0; round < 2; ++round) {
    serve::QueryStats stats;
    auto result = service.TwoWay(f.P, f.Q, f.k, &stats);
    ASSERT_TRUE(result.ok());
    ExpectSamePairs(*result, reference, "budget-0 round");
    EXPECT_EQ(stats.warm_targets, 0);  // nothing is ever retained
  }
  EXPECT_EQ(service.cache_stats().entries, 0u);
}

TEST(DhtJoinServiceTest, EvictedThenRefetchedIsBitIdentical) {
  TwoWayFixture f;
  std::vector<ScoredPair> reference = f.Reference();
  // A budget big enough to hold SOME batch states but far too small for
  // all of them (|Q| = 35 targets, each with a 25-double row), so every
  // round mixes cached hits with evicted-then-recomputed targets.
  DhtJoinService service(
      f.g, f.p, f.d,
      {.cache_budget_bytes = 4096, .cache_shards = 1, .num_threads = 1});
  for (int round = 0; round < 3; ++round) {
    auto result = service.TwoWay(f.P, f.Q, f.k);
    ASSERT_TRUE(result.ok());
    ExpectSamePairs(*result, reference, "evicting round");
  }
  EXPECT_GT(service.cache_stats().evictions, 0);
}

TEST(DhtJoinServiceTest, XBoundServiceMatchesXBoundJoin) {
  TwoWayFixture f;
  BIdjJoin join(BIdjJoin::Options{.bound = UpperBoundKind::kX});
  auto reference = join.Run(f.g, f.p, f.d, f.P, f.Q, f.k);
  ASSERT_TRUE(reference.ok());
  DhtJoinService service(f.g, f.p, f.d,
                         {.num_threads = 1, .bound = UpperBoundKind::kX});
  auto cold = service.TwoWay(f.P, f.Q, f.k);
  auto warm = service.TwoWay(f.P, f.Q, f.k);
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(warm.ok());
  ExpectSamePairs(*cold, *reference, "X-bound cold");
  ExpectSamePairs(*warm, *reference, "X-bound warm");
}

TEST(DhtJoinServiceTest, OverlappingQueriesShareTargetStates) {
  // Q2 shares targets with Q1 under the SAME P: those targets' batch
  // states must warm the second query even though the query differs.
  TwoWayFixture f;
  NodeSet Q2 = Range("Q2", 30, 50);  // subset of f.Q
  DhtJoinService service(f.g, f.p, f.d, {.num_threads = 1});
  ASSERT_TRUE(service.TwoWay(f.P, f.Q, f.k).ok());
  BIdjJoin join;
  auto reference = join.Run(f.g, f.p, f.d, f.P, Q2, f.k);
  ASSERT_TRUE(reference.ok());
  serve::QueryStats stats;
  auto result = service.TwoWay(f.P, Q2, f.k, &stats);
  ASSERT_TRUE(result.ok());
  ExpectSamePairs(*result, *reference, "overlapping-Q warm");
  EXPECT_GT(stats.warm_targets, 0);
}

// ------------------------------------------- independent oracle

// The byte-identity tests above compare the service with BIdjJoin::Run,
// which runs the same Algorithm-2 schedule (join2/b_idj.h). These two
// compare it with the brute-force plain-loop join, which shares none
// of it nor of the walk engine: every answer must match it bit for bit, and every degraded
// answer must bracket its exact scores within the reported eps_bound.
struct OracleFixture {
  DhtParams p = DhtParams::Lambda(0.2);
  int d = 8;
  NodeSet P = Range("P", 0, 30);
  NodeSet Q = Range("Q", 20, 60);  // overlaps P in 20..29
  std::vector<Graph> graphs;

  OracleFixture() {
    graphs.push_back(RandomGraph(70, 260, 91, /*undirected=*/true,
                                 /*weighted=*/true));
    graphs.push_back(RandomGraph(70, 300, 17, /*undirected=*/false,
                                 /*weighted=*/true));
  }

  /// Every valid pair of (P, Q) with its exact h_d, in result order.
  std::vector<ScoredPair> AllPairs(const Graph& g) const {
    return testing::RefTwoWayJoin(g, p, d, P, Q,
                                  std::numeric_limits<std::size_t>::max());
  }

  /// The level of the (q, P) walk state `service` holds for each q in
  /// Q; 0 where it holds none.
  std::vector<int> CachedLevels(DhtJoinService& service) const {
    std::vector<int> levels(Q.size(), 0);
    for (const ScoreCache::ExportedEntry& e : service.cache().Export()) {
      if (e.key.kind != CachePayload::kBatchState ||
          *e.key.set_a != P.nodes()) {
        continue;
      }
      for (std::size_t qi = 0; qi < Q.size(); ++qi) {
        if (Q[qi] == e.key.seed) levels[qi] = e.entry->WalkLevel();
      }
    }
    return levels;
  }
};

std::string BoundName(UpperBoundKind bound) {
  return bound == UpperBoundKind::kY ? "Y" : "X";
}

TEST(DhtJoinServiceTest, ColdWarmAndEvictedMatchBruteForceOracle) {
  OracleFixture f;
  int compared = 0;
  int pruning_checked = 0;
  for (std::size_t gi = 0; gi < f.graphs.size(); ++gi) {
    const Graph& g = f.graphs[gi];
    const std::vector<ScoredPair> all = f.AllPairs(g);
    auto top = [&all](std::size_t k) {
      return std::vector<ScoredPair>(
          all.begin(),
          all.begin() + static_cast<std::ptrdiff_t>(std::min(k, all.size())));
    };
    for (UpperBoundKind bound : {UpperBoundKind::kY, UpperBoundKind::kX}) {
      for (std::size_t budget : {DhtJoinService::kAutotuneBudget,
                                 std::size_t{4096}, std::size_t{0}}) {
        const DhtJoinService::Options options{.cache_budget_bytes = budget,
                                              .cache_shards = 1,
                                              .num_threads = 1,
                                              .bound = bound};
        const std::string config = "graph " + std::to_string(gi) +
                                   " bound " + BoundName(bound) + " budget " +
                                   std::to_string(budget);
        for (std::size_t k : {1u, 15u, 400u}) {
          DhtJoinService service(g, f.p, f.d, options);
          for (int round = 0; round < 3; ++round) {  // cold, then warm
            const std::string label = config + " k " + std::to_string(k) +
                                      " round " + std::to_string(round);
            serve::QueryStats qs;
            auto got = service.TwoWay(f.P, f.Q, k, &qs);
            ASSERT_TRUE(got.ok()) << got.status().ToString();
            ExpectSamePairs(*got, top(k), label);
            if (round > 0 && budget == DhtJoinService::kAutotuneBudget) {
              EXPECT_EQ(qs.cold_targets, 0) << label;  // fully warm
            }
            ++compared;
          }
          // The 4 KiB cache holds only some states; the 0-byte one none.
          if (budget != DhtJoinService::kAutotuneBudget) {
            EXPECT_GT(service.cache_stats().evictions, 0);
          }
        }
        // One service serves k = 1, 15 and 400 in turn. Each later query
        // walks on from the states an earlier one pruned below d, and
        // scores that query's survivors from the rows they were written
        // back with at d. Another serves them in reverse, so a query
        // with a smaller k prunes targets whose rows sit at d, offered
        // once before its first round. Both prune exactly as a
        // plain-loop Algorithm 2 started from the levels the cache held.
        const YBoundTable ytable(g, f.p, f.d, f.P, f.Q);
        for (const bool ascending : {true, false}) {
          DhtJoinService service(g, f.p, f.d, options);
          const std::vector<std::size_t> ks =
              ascending ? std::vector<std::size_t>{1, 15, 400}
                        : std::vector<std::size_t>{400, 15, 1};
          for (std::size_t turn = 0; turn < ks.size(); ++turn) {
            const std::size_t k = ks[turn];
            const std::string label = config + " k " + std::to_string(k) +
                                      (ascending ? " served in turn"
                                                 : " served in reverse");
            const std::vector<int> imported = f.CachedLevels(service);
            const auto at_d =
                std::count(imported.begin(), imported.end(), f.d);
            serve::QueryStats qs;
            auto got = service.TwoWay(f.P, f.Q, k, &qs);
            ASSERT_TRUE(got.ok()) << got.status().ToString();
            ExpectSamePairs(*got, top(k), label);
            // The query imports everything the export lists, the 4 KiB
            // cache included: it imports before it inserts anything.
            EXPECT_EQ(qs.warm_targets,
                      std::count_if(imported.begin(), imported.end(),
                                    [](int l) { return l > 0; }))
                << label;
            EXPECT_EQ(qs.join.live_per_iteration,
                      testing::RefBIdjLive(
                          g, f.p, f.d, f.P, f.Q, k, imported,
                          bound == UpperBoundKind::kY ? &ytable : nullptr))
                << label;
            ++pruning_checked;
            if (turn > 0 && budget == DhtJoinService::kAutotuneBudget) {
              EXPECT_EQ(qs.cold_targets, 0) << label;  // all imported...
              if (ascending) {
                EXPECT_GT(qs.join.walk_steps, 0) << label;  // ...some walk on
                // ...from a mix of final rows and masses below d.
                EXPECT_GT(at_d, 0) << label;
                EXPECT_LT(at_d, static_cast<std::ptrdiff_t>(f.Q.size()))
                    << label;
              } else {
                // ...and some of those at d are pruned.
                EXPECT_LT(qs.join.live_per_iteration.back(), at_d) << label;
              }
            }
            ++compared;
          }
        }
      }
    }
  }
  EXPECT_EQ(compared, 2 * 2 * 3 * (3 * 3 + 2 * 3));
  EXPECT_EQ(pruning_checked, 2 * 2 * 3 * 2 * 3);
}

TEST(DhtJoinServiceTest, SoftStoppedWarmAnswersBracketBruteForceOracle) {
  OracleFixture f;
  int64_t bracketed = 0;
  for (std::size_t gi = 0; gi < f.graphs.size(); ++gi) {
    const Graph& g = f.graphs[gi];
    std::map<std::pair<NodeId, NodeId>, double> exact;
    for (const ScoredPair& sp : f.AllPairs(g)) exact[{sp.p, sp.q}] = sp.score;
    for (UpperBoundKind bound : {UpperBoundKind::kY, UpperBoundKind::kX}) {
      for (std::size_t budget :
           {DhtJoinService::kAutotuneBudget, std::size_t{4096}}) {
        for (std::size_t k : {1u, 15u, 400u}) {
          for (int cut : {1, 2, 4}) {
            const std::string label =
                "graph " + std::to_string(gi) + " bound " +
                BoundName(bound) + " budget " + std::to_string(budget) +
                " k " + std::to_string(k) + " cut " + std::to_string(cut);
            DhtJoinService service(g, f.p, f.d,
                                   {.cache_budget_bytes = budget,
                                    .cache_shards = 1,
                                    .num_threads = 1,
                                    .bound = bound});
            ASSERT_TRUE(service.TwoWay(f.P, f.Q, k).ok());  // warm up
            ExecContext exec;
            exec.on_level = [&exec, cut](int level) {
              if (level >= cut) exec.RequestSoftStop();
            };
            serve::QueryStats qs;
            auto got = service.TwoWay(f.P, f.Q, k, &qs, &exec);
            ASSERT_TRUE(got.ok()) << label;
            ASSERT_TRUE(qs.join.partial.degraded) << label;
            EXPECT_EQ(qs.join.partial.level_reached, cut) << label;
            const double eps = qs.join.partial.eps_bound;
            for (const ScoredPair& sp : *got) {
              auto it = exact.find({sp.p, sp.q});
              ASSERT_NE(it, exact.end()) << label << " pair (" << sp.p
                                         << ", " << sp.q << ")";
              EXPECT_LE(sp.score, it->second) << label;
              EXPECT_LE(it->second, sp.score + eps) << label;
              ++bracketed;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(bracketed, 0);
}

/// The index of the first cell of `row` that holds the largest value
/// among the cells whose source is not `q`; -1 when every source is q.
int32_t PlainBestCell(const std::vector<double>& row,
                      const std::vector<ExtNodeId>& P, ExtNodeId q) {
  double top = -std::numeric_limits<double>::infinity();
  bool any = false;
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (P[i] != q) {
      top = any ? std::max(top, row[i]) : row[i];
      any = true;
    }
  }
  for (std::size_t i = 0; any && i < row.size(); ++i) {
    if (P[i] != q && row[i] == top) return static_cast<int32_t>(i);
  }
  return -1;
}

TEST(DhtJoinServiceTest, SnapshotBestCellIsPlainLoopArgmax) {
  // best_cell lives in the padding after `level`: the snapshot's size,
  // and so every bill, is that of a snapshot without it.
  EXPECT_EQ(sizeof(BackwardBatchSnapshot), 88u);
  OracleFixture f;
  // Decodes `snap` as the warm-state loader would, from a record keyed
  // by its target q and source set P.
  auto decoded = [&f](const Graph& g, const NodeSet& P, ExtNodeId q,
                      std::shared_ptr<const BackwardBatchSnapshot> snap) {
    CacheKey key;
    key.kind = CachePayload::kBatchState;
    key.seed = q;
    key.set_a = std::make_shared<const std::vector<ExtNodeId>>(P.nodes());
    key.digest_a = DigestNodes(*key.set_a);
    const std::vector<uint8_t> bytes = serve::EncodeCacheRecord(
        key, serve::CachedBatchState(std::move(snap)));
    auto record = serve::DecodeCacheRecord(
        serve::SectionKindFor(CachePayload::kBatchState), bytes,
        GraphFingerprint(g), f.p, g.num_nodes(), f.d);
    EXPECT_TRUE(record.ok()) << record.status().ToString();
    return serve::PayloadAs<serve::CachedBatchState>(record->entry)->snap;
  };
  int checked = 0;
  int all_zero = 0;
  int self_only = 0;
  // Saves every target of Q over P at `level` on a W-lane engine, then
  // checks each saved and each decoded snapshot against the plain loop.
  auto check = [&](const Graph& g, const NodeSet& P, const NodeSet& Q,
                   auto& engine, int level, SaveStates save,
                   const std::string& label) {
    BackwardBatchStates states(Q.size());
    std::vector<std::size_t> slots(Q.size());
    for (std::size_t qi = 0; qi < Q.size(); ++qi) slots[qi] = qi;
    engine.AdvanceChunked(f.p, level, Q.nodes(), slots, P.nodes(), states,
                          [](std::size_t, const double*) {}, save);
    for (std::size_t qi = 0; qi < Q.size(); ++qi) {
      std::shared_ptr<const BackwardBatchSnapshot> snap = states.Take(qi);
      ASSERT_NE(snap, nullptr) << label;
      const int32_t want = PlainBestCell(snap->row, P.nodes(), Q[qi]);
      EXPECT_EQ(snap->best_cell, want) << label << " target " << Q[qi].value();
      EXPECT_EQ(decoded(g, P, Q[qi], snap)->best_cell, want)
          << label << " decoded, target " << Q[qi].value();
      all_zero += want >= 0 && snap->row[static_cast<std::size_t>(want)] == 0.0;
      self_only += want < 0;
      ++checked;
    }
  };
  for (const Graph& layout : testing::AllLayouts(f.graphs[0])) {
    BackwardWalkerBatchT<8> wide(layout, {.num_threads = 1});
    BackwardWalkerBatchT<1> narrow(layout, {.num_threads = 1});
    // P and Q overlap in 20..29, so ten rows skip their own cell.
    check(layout, f.P, f.Q, wide, 2, SaveStates::kResumable, "W = 8 at 2");
    check(layout, f.P, f.Q, wide, f.d, SaveStates::kRowOnly, "W = 8 at d");
    check(layout, f.P, f.Q, narrow, 2, SaveStates::kResumable, "W = 1 at 2");
    check(layout, f.P, f.Q, narrow, f.d, SaveStates::kRowOnly, "W = 1 at d");
    // P = {q}: no cell but the target's own.
    check(layout, Range("q", 25, 26), Range("q", 25, 26), wide, f.d,
          SaveStates::kRowOnly, "P = {q}");
  }
  // On a directed path no walk reaches node 0 from anywhere: its row
  // over P is all zeros, and its best cell is the first one not its own.
  const Graph path = testing::PathGraph(8);
  BackwardWalkerBatchT<8> engine(path, {.num_threads = 1});
  check(path, Range("P", 0, 4), Range("Q", 0, 2), engine, f.d,
        SaveStates::kRowOnly, "all-zero row");
  EXPECT_EQ(checked, 3 * (4 * 40 + 1) + 2);
  EXPECT_EQ(self_only, 3);
  EXPECT_GT(all_zero, 0);
}

TEST(DhtJoinServiceTest, RestoredKeysHoldInternedSets) {
  OracleFixture f;
  const Graph& g = f.graphs[0];
  DhtJoinService source(g, f.p, f.d, {.num_threads = 1});
  ASSERT_TRUE(source.TwoWay(f.P, f.Q, 15).ok());
  const std::string path =
      ::testing::TempDir() + "serve_test_restored_keys.snap";
  ASSERT_TRUE(source.SaveWarmState(path).ok());

  DhtJoinService restored(g, f.p, f.d, {.num_threads = 1});
  Result<int64_t> loaded = restored.LoadWarmState(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(*loaded,
            static_cast<int64_t>(source.cache().Export().size()));
  // Every record decoded its own copy of P (and Q); the cache keeps one.
  const NodeList P =
      restored.cache().Intern(f.P.nodes(), DigestNodes(f.P.nodes()));
  const NodeList Q =
      restored.cache().Intern(f.Q.nodes(), DigestNodes(f.Q.nodes()));
  int states = 0;
  for (const ScoreCache::ExportedEntry& e : restored.cache().Export()) {
    EXPECT_EQ(e.key.set_a, P);
    if (e.key.kind == CachePayload::kBatchState) {
      ++states;
    } else {
      EXPECT_EQ(e.key.set_b, Q);
    }
  }
  EXPECT_EQ(states, *loaded - 1);  // and one Y-bound table
  EXPECT_EQ(restored.cache().interned_sets(), 2u);
}

// ------------------------------------------------- n-way through cache

TEST(DhtJoinServiceTest, NestedLoopTablesWarmAndMatch) {
  Graph g = TwoCommunityGraph();
  DhtParams p = DhtParams::Lambda(0.2);
  QueryGraph query;
  query.AddNodeSet(Range("A", 0, 5));
  query.AddNodeSet(Range("B", 5, 10));
  ASSERT_TRUE(query.AddBidirectionalEdge(0, 1).ok());
  MinAggregate f;

  NestedLoopJoin reference_join;
  auto reference = reference_join.Run(g, p, 6, query, f, 8);
  ASSERT_TRUE(reference.ok());

  DhtJoinService service(g, p, 6, {.num_threads = 1});
  serve::QueryStats cold_stats, warm_stats;
  auto cold = service.Nway(query, f, 8, DhtJoinService::NwayAlgo::kNestedLoop,
                           &cold_stats);
  auto warm = service.Nway(query, f, 8, DhtJoinService::NwayAlgo::kNestedLoop,
                           &warm_stats);
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(cold_stats.table_hits, 0);
  EXPECT_EQ(warm_stats.table_hits, 2);  // both directed edges cached

  ASSERT_EQ(reference->size(), cold->size());
  ASSERT_EQ(reference->size(), warm->size());
  for (std::size_t i = 0; i < reference->size(); ++i) {
    EXPECT_EQ((*reference)[i].nodes, (*cold)[i].nodes);
    EXPECT_EQ((*reference)[i].nodes, (*warm)[i].nodes);
    EXPECT_EQ((*reference)[i].f, (*cold)[i].f);
    EXPECT_EQ((*reference)[i].f, (*warm)[i].f);
  }
}

TEST(DhtJoinServiceTest, PartialJoinIncrementalThroughSnapshotCache) {
  Graph g = RandomGraph(50, 180, 23, true, true);
  DhtParams p = DhtParams::Lambda(0.2);
  QueryGraph query;
  query.AddNodeSet(Range("A", 0, 12));
  query.AddNodeSet(Range("B", 15, 30));
  ASSERT_TRUE(query.AddEdge(0, 1).ok());
  SumAggregate f;

  PartialJoin reference_join(PartialJoin::Options{.incremental = true});
  auto reference = reference_join.Run(g, p, 8, query, f, 10);
  ASSERT_TRUE(reference.ok());

  DhtJoinService service(g, p, 8, {.num_threads = 1});
  serve::QueryStats round_stats[2];
  for (int round = 0; round < 2; ++round) {
    auto result = service.Nway(
        query, f, 10, DhtJoinService::NwayAlgo::kPartialJoinIncremental,
        &round_stats[round]);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(reference->size(), result->size());
    for (std::size_t i = 0; i < reference->size(); ++i) {
      EXPECT_EQ((*reference)[i].nodes, (*result)[i].nodes);
      EXPECT_EQ((*reference)[i].f, (*result)[i].f);
    }
  }
  // The cold round walked every target it touched and swept the Y
  // bound; the warm round reused the walks it left behind — scoring
  // targets from them — and the cached table, so it walked strictly less.
  const serve::QueryStats& cold = round_stats[0];
  const serve::QueryStats& warm = round_stats[1];
  EXPECT_EQ(cold.warm_targets, 0);
  EXPECT_GT(cold.cold_targets, 0);
  EXPECT_FALSE(cold.ybound_cached);
  EXPECT_GT(cold.join.walk_steps, 0);
  EXPECT_GT(warm.warm_targets, 0);
  EXPECT_EQ(warm.cold_targets, 0);
  EXPECT_EQ(warm.join.walks_started, 0);  // no target restarted
  EXPECT_EQ(warm.join.state_misses, 0);
  EXPECT_TRUE(warm.ybound_cached);
  EXPECT_LT(warm.join.walk_steps, cold.join.walk_steps);
}

TEST(DhtJoinServiceTest, TwoWayAndPjiEdgeOverSameSetsWarmEachOther) {
  // A two-way query over (P, Q) and a PJ-i query edge over (P, Q) keep
  // the same (target, P) batch states: whichever runs first leaves every
  // target of Q warm for the other, which then walks less than it does
  // cold and answers byte-identically to the cold library.
  Graph g = RandomGraph(60, 220, 29, /*undirected=*/true, /*weighted=*/true);
  DhtParams p = DhtParams::Lambda(0.2);
  const int d = 8;
  const std::size_t k = 10;
  NodeSet P = Range("P", 0, 20);
  NodeSet Q = Range("Q", 15, 50);
  QueryGraph query;
  query.AddNodeSet(P);
  query.AddNodeSet(Q);
  ASSERT_TRUE(query.AddEdge(0, 1).ok());
  SumAggregate f;
  const auto pji = DhtJoinService::NwayAlgo::kPartialJoinIncremental;

  PartialJoin pji_join(PartialJoin::Options{.incremental = true});
  auto pji_want = pji_join.Run(g, p, d, query, f, k);
  ASSERT_TRUE(pji_want.ok());
  BIdjJoin two_join;
  auto two_want = two_join.Run(g, p, d, P, Q, k);
  ASSERT_TRUE(two_want.ok());
  serve::QueryStats pji_cold, two_cold;
  {
    DhtJoinService service(g, p, d, {.num_threads = 1});
    ASSERT_TRUE(service.Nway(query, f, k, pji, &pji_cold).ok());
  }
  {
    DhtJoinService service(g, p, d, {.num_threads = 1});
    ASSERT_TRUE(service.TwoWay(P, Q, k, &two_cold).ok());
  }
  const auto targets = static_cast<int64_t>(Q.size());

  {
    DhtJoinService service(g, p, d, {.num_threads = 1});
    ASSERT_TRUE(service.TwoWay(P, Q, k).ok());
    serve::QueryStats qs;
    auto got = service.Nway(query, f, k, pji, &qs);
    ASSERT_TRUE(got.ok());
    testing::ExpectSameTuples(*got, *pji_want, "PJ-i after two-way");
    EXPECT_EQ(qs.warm_targets, targets);
    EXPECT_EQ(qs.cold_targets, 0);
    EXPECT_LT(qs.join.walk_steps, pji_cold.join.walk_steps);
  }
  {
    DhtJoinService service(g, p, d, {.num_threads = 1});
    ASSERT_TRUE(service.Nway(query, f, k, pji).ok());
    serve::QueryStats qs;
    auto got = service.TwoWay(P, Q, k, &qs);
    ASSERT_TRUE(got.ok());
    ExpectSamePairs(*got, *two_want, "two-way after PJ-i");
    EXPECT_EQ(qs.warm_targets, targets);
    EXPECT_EQ(qs.cold_targets, 0);
    EXPECT_LT(qs.join.walk_steps, two_cold.join.walk_steps);
  }
}

TEST(DhtJoinServiceTest, CacheBillsBatchStatesExactly) {
  // A cached batch state bills its entry header, 12 bytes per saved
  // mass entry (a 4-byte node id and an 8-byte mass) and 8 per row
  // cell: no growth slack, no pair padding. Two-way queries write back
  // states with mass (targets pruned below d) and row-only states (at
  // d); the PJ-i query writes back its query edges' states.
  Graph g = RandomGraph(60, 200, 7);
  DhtParams p = DhtParams::Lambda(0.2);
  const int d = 6;
  NodeSet A = Range("A", 0, 20);
  NodeSet B = Range("B", 25, 55);
  NodeSet C = Range("C", 40, 60);
  DhtJoinService service(
      g, p, d,
      {.cache_budget_bytes = std::size_t{1} << 40, .num_threads = 1});
  ASSERT_TRUE(service.TwoWay(A, B, 15).ok());
  ASSERT_TRUE(service.TwoWay(B, C, 10).ok());
  QueryGraph query;
  query.AddNodeSet(A);
  query.AddNodeSet(B);
  query.AddNodeSet(C);
  ASSERT_TRUE(query.AddEdge(0, 1).ok());
  ASSERT_TRUE(query.AddEdge(1, 2).ok());
  ASSERT_TRUE(service
                  .Nway(query, SumAggregate(), 10,
                        DhtJoinService::NwayAlgo::kPartialJoinIncremental)
                  .ok());

  std::size_t want = 0;
  int64_t mass_entries = 0;
  int64_t states = 0;
  for (const ScoreCache::ExportedEntry& e : service.cache().Export()) {
    if (e.key.kind != CachePayload::kBatchState) {
      want += e.entry->ApproxBytes();
      continue;
    }
    const BackwardBatchSnapshot& snap =
        *static_cast<const serve::CachedBatchState&>(*e.entry).snap;
    want += sizeof(serve::CacheEntry) + sizeof(BackwardBatchSnapshot) +
            12 * snap.mass.size() + 8 * snap.row.size();
    mass_entries += static_cast<int64_t>(snap.mass.size());
    ++states;
  }
  EXPECT_GT(states, 0);
  EXPECT_GT(mass_entries, 0);
  EXPECT_EQ(service.cache_stats().evictions, 0);
  EXPECT_EQ(service.cache_stats().resident_bytes, want);
}

TEST(DhtJoinServiceTest, DeepeningImportedStatesLeavesCachedSnapshotsIntact) {
  // A query at a larger k walks on from the states a k = 1 query pruned
  // below d. It imports the cache's own snapshots, shared, not copied:
  // every advance must commit a new snapshot and leave the cached one,
  // which other queries may be reading, bit-equal.
  TwoWayFixture f;
  DhtJoinService service(f.g, f.p, f.d, {.num_threads = 1});
  ASSERT_TRUE(service.TwoWay(f.P, f.Q, 1).ok());
  std::map<NodeId, std::shared_ptr<const BackwardBatchSnapshot>> held;
  std::map<NodeId, BackwardBatchSnapshot> before;
  for (const ScoreCache::ExportedEntry& e : service.cache().Export()) {
    if (e.key.kind != CachePayload::kBatchState) continue;
    const auto& snap =
        static_cast<const serve::CachedBatchState&>(*e.entry).snap;
    held[e.key.seed.value()] = snap;
    before[e.key.seed.value()] = *snap;
  }
  ASSERT_EQ(held.size(), f.Q.size());

  serve::QueryStats qs;
  auto got = service.TwoWay(f.P, f.Q, 400, &qs);
  ASSERT_TRUE(got.ok());
  BIdjJoin join;
  auto want = join.Run(f.g, f.p, f.d, f.P, f.Q, 400);
  ASSERT_TRUE(want.ok());
  ExpectSamePairs(*got, *want, "k 400 after k 1");
  EXPECT_GT(qs.join.state_hits, 0);  // imported states walked on

  int replaced = 0;
  for (const ScoreCache::ExportedEntry& e : service.cache().Export()) {
    if (e.key.kind != CachePayload::kBatchState) continue;
    const NodeId q = e.key.seed.value();
    const auto& now =
        static_cast<const serve::CachedBatchState&>(*e.entry).snap;
    if (now != held[q]) {
      ++replaced;
      EXPECT_GT(now->level, held[q]->level) << "target " << q;
    }
  }
  EXPECT_GT(replaced, 0);
  for (const auto& [q, snap] : held) {
    testing::ExpectSameSnapshot(*snap, before[q],
                                "target " + std::to_string(q));
  }
}

/// Exact equality of two n-way answers (nodes, edge scores, aggregate);
/// returns a description of the first difference, empty when equal.
std::string TupleDiff(const std::vector<TupleAnswer>& want,
                      const std::vector<TupleAnswer>& got) {
  if (want.size() != got.size()) {
    return "size " + std::to_string(want.size()) + " vs " +
           std::to_string(got.size());
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (want[i].nodes != got[i].nodes ||
        want[i].edge_scores != got[i].edge_scores || want[i].f != got[i].f) {
      return "rank " + std::to_string(i);
    }
  }
  return "";
}

TEST(DhtJoinServiceTest, PartialJoinIncrementalTieHeavyByteIdentity) {
  // PJ-i through the service must answer exactly as a cold library
  // PartialJoin::Run — cold, warm, and after the same query at another
  // k and a two-way query over its first edge left states at other
  // levels and the shared Y-bound table — on graphs whose pair scores
  // tie heavily (canonical emission order, DESIGN.md §2, §6).
  struct Case {
    std::string name;
    Graph g;
  };
  std::vector<Case> graphs;
  graphs.push_back({"complete14", testing::CompleteGraph(14)});
  graphs.push_back({"star30", testing::StarGraph(30)});
  graphs.push_back({"cycle40", testing::CycleGraph(40)});
  for (uint64_t seed : {601, 602, 603, 604, 605, 606, 607}) {
    graphs.push_back({"random" + std::to_string(seed),
                      RandomGraph(36, 90, seed, /*undirected=*/true)});
  }
  enum Shape { kChain, kStar, kTriangle };
  const int d = 8;
  MinAggregate min_f;
  SumAggregate sum_f;
  int64_t cases = 0;
  std::vector<std::string> mismatches;
  for (const Case& c : graphs) {
    const NodeId n = c.g.num_nodes();
    std::vector<NodeSet> sets = {Range("A", 0, n / 2),
                                 Range("B", n / 4, n * 3 / 4),
                                 Range("C", n / 2, n)};
    for (double lambda : {0.2, 0.6}) {
      DhtParams p = DhtParams::Lambda(lambda);
      // One service per measure; clearing its cache makes it cold again.
      DhtJoinService service(c.g, p, d, {.num_threads = 1});
      for (Shape shape : {kChain, kStar, kTriangle}) {
        QueryGraph query;
        for (const NodeSet& set : sets) query.AddNodeSet(set);
        if (shape == kChain) {
          ASSERT_TRUE(query.AddEdge(0, 1).ok());
          ASSERT_TRUE(query.AddEdge(1, 2).ok());
        } else if (shape == kStar) {  // both edges into A: shared targets
          ASSERT_TRUE(query.AddEdge(1, 0).ok());
          ASSERT_TRUE(query.AddEdge(2, 0).ok());
        } else {
          ASSERT_TRUE(query.AddBidirectionalEdge(0, 1).ok());
          ASSERT_TRUE(query.AddBidirectionalEdge(1, 2).ok());
          ASSERT_TRUE(query.AddBidirectionalEdge(2, 0).ok());
        }
        const JoinEdge first = query.edges()[0];
        for (const Aggregate* f : {static_cast<const Aggregate*>(&min_f),
                                   static_cast<const Aggregate*>(&sum_f)}) {
          for (std::size_t k : {std::size_t{1}, std::size_t{5},
                                std::size_t{20}}) {
            const std::string label =
                c.name + " lambda=" + std::to_string(lambda) +
                " shape=" + std::to_string(shape) +
                (f == &min_f ? " min" : " sum") + " k=" + std::to_string(k);
            PartialJoin reference_join(
                PartialJoin::Options{.incremental = true});
            auto want = reference_join.Run(c.g, p, d, query, *f, k);
            ASSERT_TRUE(want.ok()) << label;
            auto check = [&](const char* phase,
                             const Result<std::vector<TupleAnswer>>& got) {
              ++cases;
              ASSERT_TRUE(got.ok()) << label << " " << phase;
              std::string diff = TupleDiff(*want, *got);
              if (!diff.empty()) {
                mismatches.push_back(label + " " + phase + ": " + diff);
              }
            };
            service.cache().Clear();
            check("cold", service.Nway(query, *f, k));
            check("warm", service.Nway(query, *f, k));
            // Pre-warm the same edges to other levels: the query at
            // another k, then a two-way query over its first edge.
            service.cache().Clear();
            ASSERT_TRUE(service.Nway(query, *f, 7).ok());
            ASSERT_TRUE(service
                            .TwoWay(query.set(first.left),
                                    query.set(first.right), k)
                            .ok());
            check("prewarmed", service.Nway(query, *f, k));
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 10 * 2 * 3 * 2 * 3 * 3);
  EXPECT_TRUE(mismatches.empty())
      << mismatches.size() << " mismatches, first: " << mismatches.front();
}

// ------------------------------------------------- concurrent sessions

TEST(DhtJoinServiceTest, ConcurrentSessionsAreDeterministic) {
  Graph g = RandomGraph(80, 300, 31, true, true);
  DhtParams p = DhtParams::Lambda(0.2);
  const int d = 8;
  struct Template {
    NodeSet P, Q;
  };
  std::vector<Template> templates = {
      {Range("P0", 0, 20), Range("Q0", 30, 60)},
      {Range("P1", 5, 25), Range("Q1", 40, 70)},
      {Range("P2", 0, 20), Range("Q2", 40, 70)},
      {Range("P3", 10, 30), Range("Q3", 30, 60)},
  };
  // Each template is served at three k at once. A larger k deepens
  // states a smaller one pruned, so write-backs of new snapshots race
  // imports of the shared ones they replace.
  const std::vector<std::size_t> ks = {1, 12, 40};

  std::vector<std::vector<std::vector<ScoredPair>>> expected;
  for (const Template& t : templates) {
    expected.emplace_back();
    for (std::size_t k : ks) {
      BIdjJoin join;
      auto r = join.Run(g, p, d, t.P, t.Q, k);
      ASSERT_TRUE(r.ok());
      expected.back().push_back(*r);
    }
  }

  DhtJoinService service(g, p, d, {.num_threads = 4});
  for (int round = 0; round < 3; ++round) {
    std::vector<std::future<Result<std::vector<ScoredPair>>>> futures;
    std::vector<std::pair<std::size_t, std::size_t>> which;
    for (std::size_t rep = 0; rep < ks.size(); ++rep) {
      for (std::size_t t = 0; t < templates.size(); ++t) {
        futures.push_back(
            service.SubmitTwoWay(templates[t].P, templates[t].Q, ks[rep]));
        which.emplace_back(t, rep);
      }
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      auto result = futures[i].get();
      ASSERT_TRUE(result.ok());
      const auto [t, rep] = which[i];
      ExpectSamePairs(*result, expected[t][rep],
                      "concurrent session k " + std::to_string(ks[rep]));
    }
  }
  EXPECT_GT(service.cache_stats().hits, 0);
}

TEST(DhtJoinServiceTest, ConcurrentPartialJoinIncrementalSessions) {
  // PJ-i sessions racing on shared targets, (P, Q) edges and Y-bound
  // tables (the TSan CI job runs this suite): every answer must equal a
  // cold library run, round after round as the cache warms.
  Graph g = RandomGraph(80, 300, 37, true, true);
  DhtParams p = DhtParams::Lambda(0.2);
  const int d = 8;
  NodeSet A = Range("A", 0, 30);
  NodeSet B = Range("B", 20, 50);
  NodeSet C = Range("C", 40, 70);
  NodeSet D = Range("D", 10, 45);
  auto make = [](std::vector<NodeSet> sets,
                 std::vector<std::pair<int, int>> edges) {
    QueryGraph q;
    for (NodeSet& s : sets) q.AddNodeSet(std::move(s));
    for (auto [a, b] : edges) DHTJOIN_CHECK(q.AddEdge(a, b).ok());
    return q;
  };
  // A->B is shared by three templates; B and C are targets of several.
  std::vector<QueryGraph> templates = {
      make({A, B, C}, {{0, 1}, {1, 2}}),
      make({A, B, D}, {{0, 1}, {2, 1}}),
      make({A, B}, {{0, 1}, {1, 0}}),
      make({D, C, B}, {{0, 1}, {0, 2}}),
  };
  MinAggregate f;
  const std::size_t k = 10;
  std::vector<std::vector<TupleAnswer>> expected;
  for (const QueryGraph& q : templates) {
    PartialJoin join(PartialJoin::Options{.incremental = true});
    auto r = join.Run(g, p, d, q, f, k);
    ASSERT_TRUE(r.ok());
    expected.push_back(*r);
  }

  DhtJoinService service(g, p, d, {.num_threads = 4});
  for (int round = 0; round < 3; ++round) {
    std::vector<std::future<Result<std::vector<TupleAnswer>>>> futures;
    std::vector<std::size_t> which;
    for (int rep = 0; rep < 3; ++rep) {
      for (std::size_t t = 0; t < templates.size(); ++t) {
        futures.push_back(service.SubmitNway(templates[t], f, k));
        which.push_back(t);
      }
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      auto result = futures[i].get();
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(TupleDiff(expected[which[i]], *result), "")
          << "round " << round << " template " << which[i];
    }
  }
  EXPECT_GT(service.cache_stats().hits, 0);
}

// --------------------------------------------- sparse forward states

TEST(ForwardBatchStatesTest, SparseSlotsSupportHugeVirtualGrids) {
  Graph g = RandomGraph(40, 130, 53, false, true);
  DhtParams p = DhtParams::Lambda(0.3);
  std::vector<ExtNodeId> sources = {ExtNodeId(0), ExtNodeId(2),
                                    ExtNodeId(4), ExtNodeId(6),
                                    ExtNodeId(8), ExtNodeId(10)};
  ExtNodeId target(33);
  ForwardWalkerBatch batch(g);
  std::vector<ExtNodeId> target_vec = {target};
  std::vector<double> scratch = batch.Run(p, 8, sources, target_vec);

  // Slot ids from a virtual 10^9 x 10^9 pair grid: the dense slot
  // vector this replaces could never be allocated.
  ForwardBatchStates states;
  std::vector<std::size_t> slots;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    slots.push_back(i * 1'000'000'000ULL + 777'777'777ULL);
  }
  std::vector<double> resumed(sources.size());
  for (int l : {1, 2, 4, 8}) {
    batch.AdvancePairs(p, l, sources, slots, target, states,
                       [&](std::size_t i, double s) { resumed[i] = s; });
  }
  for (std::size_t i = 0; i < sources.size(); ++i) {
    EXPECT_EQ(resumed[i], scratch[i]) << "i=" << i;
  }
  // Only the live pairs occupy the map — the virtual grid costs nothing.
  EXPECT_EQ(states.size(), sources.size());
}

TEST(ForwardBatchStatesTest, DropAndBytesTrackResidentStates) {
  Graph g = RandomGraph(40, 130, 54, false, true);
  DhtParams p = DhtParams::Lambda(0.3);
  std::vector<ExtNodeId> sources = {ExtNodeId(1), ExtNodeId(3),
                                    ExtNodeId(5)};
  std::vector<std::size_t> slots = {900'000'000'000ULL, 7ULL,
                                    123'456'789'012ULL};
  ForwardWalkerBatch batch(g);
  ForwardBatchStates states;
  batch.AdvancePairs(p, 4, sources, slots, ExtNodeId(20), states,
                     [](std::size_t, double) {});
  EXPECT_EQ(states.size(), 3u);
  EXPECT_GT(states.bytes(), 0u);
  EXPECT_EQ(states.level(slots[0]), 4);
  EXPECT_EQ(states.level(1234567ULL), 0);  // absent slot reads level 0
  states.Drop(slots[0]);
  EXPECT_EQ(states.size(), 2u);
  EXPECT_EQ(states.level(slots[0]), 0);
  states.Drop(slots[0]);  // double-drop is a no-op
  EXPECT_EQ(states.size(), 2u);
}

// ------------------------------------------------------ stats & tuning

TEST(StatsTest, BIdjSurfacesStateCounters) {
  Graph g = RandomGraph(60, 200, 55, true, true);
  DhtParams p = DhtParams::Lambda(0.2);
  NodeSet P = Range("P", 0, 20);
  NodeSet Q = Range("Q", 25, 55);
  BIdjJoin resumed(BIdjJoin::Options{.resume = true});
  BIdjJoin restarted(BIdjJoin::Options{.resume = false});
  ASSERT_TRUE(resumed.Run(g, p, 8, P, Q, 10).ok());
  ASSERT_TRUE(restarted.Run(g, p, 8, P, Q, 10).ok());
  EXPECT_GT(resumed.stats().state_hits, 0);
  EXPECT_GT(resumed.stats().state_misses, 0);
  EXPECT_GT(resumed.stats().state_resident_bytes, 0);
  EXPECT_EQ(restarted.stats().state_hits, 0);
  EXPECT_EQ(restarted.stats().state_misses, 0);
  EXPECT_EQ(restarted.stats().state_resident_bytes, 0);
}

TEST(StatsTest, IncrementalJoinSurfacesPoolCounters) {
  Graph g = RandomGraph(50, 170, 56, true, true);
  DhtParams p = DhtParams::Lambda(0.2);
  NodeSet P = Range("P", 0, 15);
  NodeSet Q = Range("Q", 20, 45);
  auto join = IncrementalTwoWayJoin::Create(g, p, 8, P, Q, 10);
  ASSERT_TRUE(join.ok());
  for (int i = 0; i < 20; ++i) {
    if (!(*join)->Next().has_value()) break;
  }
  const TwoWayJoinStats& stats = (*join)->stats();
  EXPECT_GT(stats.state_hits, 0);
  EXPECT_GT(stats.state_misses, 0);
}

TEST(StatsTest, AutotuneBudgetScalesWithGraphAndClamps) {
  const std::size_t tiny = AutotuneStateBudgetBytes(10);
  const std::size_t mid = AutotuneStateBudgetBytes(200'000);
  const std::size_t huge = AutotuneStateBudgetBytes(1'000'000'000);
  EXPECT_EQ(tiny, std::size_t{64} << 20);  // floor
  EXPECT_GT(mid, tiny);
  EXPECT_EQ(huge, std::size_t{1} << 30);  // ceiling
  EXPECT_LE(mid, huge);
}

// ------------------------------------------------------------ workload

TEST(WorkloadTest, ZipfianWorkloadIsDeterministicAndSkewed) {
  Graph g = RandomGraph(60, 200, 57);
  std::vector<NodeSet> sets = {Range("A", 0, 15), Range("B", 15, 30),
                               Range("C", 30, 45), Range("D", 45, 60)};
  serve::WorkloadOptions opts;
  opts.num_requests = 400;
  opts.num_templates = 8;
  opts.zipf_s = 1.2;
  opts.set_size = 10;
  opts.seed = 99;
  auto a = serve::GenerateZipfianTwoWayWorkload(g, sets, opts);
  auto b = serve::GenerateZipfianTwoWayWorkload(g, sets, opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->requests.size(), 400u);
  EXPECT_EQ(a->num_templates, 8u);
  for (std::size_t i = 0; i < a->requests.size(); ++i) {
    EXPECT_EQ(a->requests[i].template_id, b->requests[i].template_id);
    EXPECT_EQ(a->requests[i].P.nodes(), b->requests[i].P.nodes());
  }
  // Zipf skew: rank 0 must dominate the tail ranks.
  EXPECT_GT(a->frequency[0], a->frequency[a->frequency.size() - 1]);
  int64_t total = 0;
  for (int64_t f : a->frequency) total += f;
  EXPECT_EQ(total, 400);
  for (const auto& req : a->requests) {
    EXPECT_LE(req.P.size(), 10u);
    EXPECT_FALSE(req.P.empty());
  }
}

TEST(WorkloadTest, RejectsDegenerateInputs) {
  Graph g = RandomGraph(20, 60, 58);
  std::vector<NodeSet> one = {Range("A", 0, 10)};
  std::vector<NodeSet> two = {Range("A", 0, 10), Range("B", 10, 20)};
  EXPECT_FALSE(
      serve::GenerateZipfianTwoWayWorkload(g, one, {}).ok());
  serve::WorkloadOptions zero_requests;
  zero_requests.num_requests = 0;
  EXPECT_FALSE(
      serve::GenerateZipfianTwoWayWorkload(g, two, zero_requests).ok());
}

}  // namespace
}  // namespace dhtjoin
