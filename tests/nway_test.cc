/// \file tests/nway_test.cc
/// \brief The four n-way join algorithms (NL, AP, PJ, PJ-i) must agree
/// with each other and with brute-force enumeration, across query-graph
/// shapes, aggregates, and DHT variants.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/ap_join.h"
#include "core/nl_join.h"
#include "core/partial_join.h"
#include "core/query_graph.h"
#include "datasets/yeast_like.h"
#include "testing/reference.h"
#include "util/rng.h"

namespace dhtjoin {
namespace {

using testing::RandomGraph;
using testing::Range;
using testing::RefNwayJoin;

enum class Shape { kChain2, kChain3, kTriangle, kTriangleBidir, kStar4 };

struct NwayCase {
  uint64_t seed;
  Shape shape;
  bool use_min;
  double lambda;  // 0 = DHTe
  std::size_t k;
  std::size_t m;
};

QueryGraph MakeQuery(Shape shape, const Graph& g) {
  // Node sets carved out of node-id ranges; sizes kept small so NL and
  // the brute-force oracle stay fast.
  QueryGraph q;
  switch (shape) {
    case Shape::kChain2: {
      int a = q.AddNodeSet(Range("A", 0, 8));
      int b = q.AddNodeSet(Range("B", 10, 18));
      DHTJOIN_CHECK(q.AddEdge(a, b).ok());
      break;
    }
    case Shape::kChain3: {
      int a = q.AddNodeSet(Range("A", 0, 6));
      int b = q.AddNodeSet(Range("B", 8, 14));
      int c = q.AddNodeSet(Range("C", 16, 22));
      DHTJOIN_CHECK(q.AddEdge(a, b).ok());
      DHTJOIN_CHECK(q.AddEdge(b, c).ok());
      break;
    }
    case Shape::kTriangle: {
      int a = q.AddNodeSet(Range("A", 0, 6));
      int b = q.AddNodeSet(Range("B", 8, 14));
      int c = q.AddNodeSet(Range("C", 16, 22));
      DHTJOIN_CHECK(q.AddEdge(a, b).ok());
      DHTJOIN_CHECK(q.AddEdge(b, c).ok());
      DHTJOIN_CHECK(q.AddEdge(a, c).ok());
      break;
    }
    case Shape::kTriangleBidir: {
      int a = q.AddNodeSet(Range("A", 0, 5));
      int b = q.AddNodeSet(Range("B", 8, 13));
      int c = q.AddNodeSet(Range("C", 16, 21));
      DHTJOIN_CHECK(q.AddBidirectionalEdge(a, b).ok());
      DHTJOIN_CHECK(q.AddBidirectionalEdge(b, c).ok());
      DHTJOIN_CHECK(q.AddBidirectionalEdge(a, c).ok());
      break;
    }
    case Shape::kStar4: {
      int hub = q.AddNodeSet(Range("HUB", 0, 5));
      int s1 = q.AddNodeSet(Range("S1", 8, 13));
      int s2 = q.AddNodeSet(Range("S2", 16, 21));
      int s3 = q.AddNodeSet(Range("S3", 24, 29));
      DHTJOIN_CHECK(q.AddEdge(hub, s1).ok());
      DHTJOIN_CHECK(q.AddEdge(hub, s2).ok());
      DHTJOIN_CHECK(q.AddEdge(hub, s3).ok());
      break;
    }
  }
  DHTJOIN_CHECK(q.Validate(g).ok());
  return q;
}

class NwayAgreement : public ::testing::TestWithParam<NwayCase> {};

TEST_P(NwayAgreement, AllAlgorithmsMatchBruteForce) {
  const auto& c = GetParam();
  Graph g = RandomGraph(32, 110, c.seed, /*undirected=*/true,
                        /*weighted=*/(c.seed % 2) == 0);
  DhtParams p =
      c.lambda > 0 ? DhtParams::Lambda(c.lambda) : DhtParams::Exponential();
  const int d = 8;
  QueryGraph query = MakeQuery(c.shape, g);
  SumAggregate sum;
  MinAggregate min;
  const Aggregate& f = c.use_min ? static_cast<const Aggregate&>(min)
                                 : static_cast<const Aggregate&>(sum);

  auto want = RefNwayJoin(g, p, d, query.sets(), query.edges(), f, c.k);

  std::vector<std::unique_ptr<NwayJoin>> algos;
  algos.push_back(std::make_unique<NestedLoopJoin>());
  algos.push_back(std::make_unique<AllPairsJoin>());
  algos.push_back(std::make_unique<PartialJoin>(
      PartialJoin::Options{.m = c.m, .incremental = false}));
  algos.push_back(std::make_unique<PartialJoin>(
      PartialJoin::Options{.m = c.m, .incremental = true}));

  for (auto& algo : algos) {
    auto got = algo->Run(g, p, d, query, f, c.k);
    ASSERT_TRUE(got.ok()) << algo->Name() << ": "
                          << got.status().ToString();
    ASSERT_EQ(got->size(), want.size()) << algo->Name();
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_NEAR((*got)[i].f, want[i].f, 1e-9)
          << algo->Name() << " rank " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NwayAgreement,
    ::testing::Values(
        NwayCase{301, Shape::kChain2, true, 0.2, 10, 5},
        NwayCase{302, Shape::kChain3, true, 0.2, 10, 5},
        NwayCase{303, Shape::kChain3, false, 0.2, 5, 3},
        NwayCase{304, Shape::kTriangle, true, 0.5, 8, 4},
        NwayCase{305, Shape::kTriangleBidir, true, 0.2, 6, 4},
        NwayCase{306, Shape::kStar4, true, 0.2, 10, 6},
        NwayCase{307, Shape::kStar4, false, 0.6, 5, 2},
        NwayCase{308, Shape::kChain3, true, 0.0, 10, 5},   // DHTe
        NwayCase{309, Shape::kTriangle, false, 0.0, 12, 8},
        NwayCase{310, Shape::kChain3, true, 0.2, 500, 5},  // k > tuples
        NwayCase{311, Shape::kChain2, false, 0.8, 20, 1},  // tiny m
        NwayCase{312, Shape::kTriangleBidir, false, 0.4, 15, 50}));

TEST(NwayJoinTest, EdgeScoresAreConsistent) {
  Graph g = RandomGraph(30, 100, 320);
  DhtParams p = DhtParams::Lambda(0.2);
  QueryGraph query = MakeQuery(Shape::kChain3, g);
  MinAggregate f;
  PartialJoin pji(PartialJoin::Options{.m = 10, .incremental = true});
  auto got = pji.Run(g, p, 8, query, f, 10);
  ASSERT_TRUE(got.ok());
  for (const TupleAnswer& t : *got) {
    double lo = std::numeric_limits<double>::infinity();
    for (std::size_t e = 0; e < query.edges().size(); ++e) {
      NodeId u = t.nodes[static_cast<std::size_t>(query.edges()[e].left)];
      NodeId v = t.nodes[static_cast<std::size_t>(query.edges()[e].right)];
      const std::vector<double> h =
          testing::RefBackwardSweep(g, p, 8, ExtNodeId(v));
      EXPECT_NEAR(t.edge_scores[e], h[static_cast<std::size_t>(u)], 1e-9);
      lo = std::min(lo, t.edge_scores[e]);
    }
    EXPECT_NEAR(t.f, lo, 1e-12);
  }
}

TEST(NwayJoinTest, NlRespectsTimeBudget) {
  Graph g = RandomGraph(32, 110, 321);
  DhtParams p = DhtParams::Lambda(0.2);
  QueryGraph query = MakeQuery(Shape::kStar4, g);
  MinAggregate f;
  NestedLoopJoin nl(NestedLoopJoin::Options{.time_budget_seconds = 0.0});
  auto got = nl.Run(g, p, 8, query, f, 5);
  EXPECT_EQ(got.status().code(), StatusCode::kOutOfRange);
  EXPECT_FALSE(nl.stats().completed);
}

/// Serves hand-made per-edge tables keyed by set names, as the serving
/// cache would; counts (and drops) every table NL offers back.
class FixedTables final : public EdgeScoreTableProvider {
 public:
  void Put(const NodeSet& L, const NodeSet& R, std::vector<double> table) {
    tables_[{L.name(), R.name()}] =
        std::make_shared<const std::vector<double>>(std::move(table));
  }
  std::shared_ptr<const std::vector<double>> Fetch(
      const NodeSet& L, const NodeSet& R) override {
    auto it = tables_.find({L.name(), R.name()});
    return it == tables_.end() ? nullptr : it->second;
  }
  void Store(const NodeSet&, const NodeSet&,
             std::shared_ptr<const std::vector<double>>) override {
    ++stores;
  }
  int stores = 0;

 private:
  std::map<std::pair<std::string, std::string>,
           std::shared_ptr<const std::vector<double>>>
      tables_;
};

/// Exhaustive n-way join over served tables with NL's validity rule
/// (u != v and h_d > beta on every edge): every tuple of
/// R_1 x ... x R_n, sorted by TupleAnswerGreater, cut at k.
std::vector<TupleAnswer> BruteForceOverTables(
    const QueryGraph& query, EdgeScoreTableProvider& tables,
    const DhtParams& p, const Aggregate& f, std::size_t k) {
  const auto n = static_cast<std::size_t>(query.num_sets());
  const auto& edges = query.edges();
  std::vector<TupleAnswer> all;
  std::vector<std::size_t> index(n, 0);
  while (true) {
    TupleAnswer t;
    for (std::size_t a = 0; a < n; ++a) {
      t.nodes.push_back(query.set(static_cast<int>(a))[index[a]].value());
    }
    bool valid = true;
    for (const JoinEdge& e : edges) {
      const auto l = static_cast<std::size_t>(e.left);
      const auto r = static_cast<std::size_t>(e.right);
      const double score =
          (*tables.Fetch(query.set(e.left), query.set(e.right)))
              [index[l] * query.set(e.right).size() + index[r]];
      valid = valid && t.nodes[l] != t.nodes[r] && score > p.beta;
      t.edge_scores.push_back(score);
    }
    if (valid) {
      t.f = f.Apply(t.edge_scores);
      all.push_back(std::move(t));
    }
    // Odometer step over the set positions, last attribute fastest.
    std::size_t a = n;
    while (a > 0 &&
           ++index[a - 1] == query.set(static_cast<int>(a - 1)).size()) {
      index[--a] = 0;
    }
    if (a == 0) break;
  }
  std::sort(all.begin(), all.end(), TupleAnswerGreater);
  if (all.size() > k) all.resize(k);
  return all;
}

TEST(NwayJoinTest, NlOverServedTablesMatchesBruteForceBitForBit) {
  // Hand-made tables with five score values, two of them at or below the
  // floor beta, over sets that share members (u == v occurs): the k-th
  // boundary is a large tie and whole prefixes are invalid, so NL's
  // per-level scoring, block skips and build-only-kept path all run.
  Graph g = RandomGraph(32, 110, 330);
  const DhtParams p = DhtParams::Lambda(0.2);  // beta = -1.25
  const double kScores[] = {-1.0, -1.125, -1.1875, p.beta, p.beta - 0.5};
  const NodeSet A = Range("A", 0, 6);
  const NodeSet B = Range("B", 3, 9);
  const NodeSet C = Range("C", 6, 12);
  const NodeSet D = Range("D", 2, 7);

  QueryGraph chain;
  chain.AddNodeSet(A);
  chain.AddNodeSet(B);
  chain.AddNodeSet(C);
  ASSERT_TRUE(chain.AddEdge(0, 1).ok());
  ASSERT_TRUE(chain.AddEdge(1, 2).ok());
  QueryGraph star;
  star.AddNodeSet(A);
  star.AddNodeSet(B);
  star.AddNodeSet(C);
  star.AddNodeSet(D);
  ASSERT_TRUE(star.AddEdge(0, 1).ok());
  ASSERT_TRUE(star.AddEdge(0, 2).ok());
  ASSERT_TRUE(star.AddEdge(0, 3).ok());
  QueryGraph triangle;
  triangle.AddNodeSet(A);
  triangle.AddNodeSet(B);
  triangle.AddNodeSet(C);
  ASSERT_TRUE(triangle.AddBidirectionalEdge(0, 1).ok());
  ASSERT_TRUE(triangle.AddBidirectionalEdge(1, 2).ok());
  ASSERT_TRUE(triangle.AddBidirectionalEdge(0, 2).ok());

  SumAggregate sum;
  MinAggregate min;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    for (const auto& [name, query] :
         {std::pair<const char*, const QueryGraph*>{"chain3", &chain},
          {"star4", &star},
          {"bidir-triangle", &triangle}}) {
      Rng rng(seed);
      FixedTables tables;
      for (const JoinEdge& e : query->edges()) {
        const NodeSet& L = query->set(e.left);
        const NodeSet& R = query->set(e.right);
        std::vector<double> table(L.size() * R.size());
        for (double& x : table) x = kScores[rng.Below(5)];
        tables.Put(L, R, std::move(table));
      }
      for (const Aggregate* f : {static_cast<const Aggregate*>(&min),
                                 static_cast<const Aggregate*>(&sum)}) {
        for (std::size_t k : {std::size_t{1}, std::size_t{7},
                              std::size_t{50}}) {
          const std::string label = std::string(name) + " seed " +
                                    std::to_string(seed) + " " + f->Name() +
                                    " k " + std::to_string(k);
          NestedLoopJoin nl(NestedLoopJoin::Options{.tables = &tables});
          auto got = nl.Run(g, p, 8, *query, *f, k);
          ASSERT_TRUE(got.ok()) << label;
          testing::ExpectSameTuples(
              *got, BruteForceOverTables(*query, tables, p, *f, k), label);
          EXPECT_DOUBLE_EQ(static_cast<double>(nl.stats().tuples_enumerated),
                           query->CandidateSpace())
              << label;
          EXPECT_EQ(nl.stats().table_hits,
                    static_cast<int64_t>(query->edges().size()))
              << label;
          EXPECT_EQ(nl.stats().dht_computations, 0) << label;

          // A finite budget takes the timed branch; it must not change a
          // byte.
          NestedLoopJoin timed(NestedLoopJoin::Options{
              .time_budget_seconds = 3600.0, .tables = &tables});
          auto again = timed.Run(g, p, 8, *query, *f, k);
          ASSERT_TRUE(again.ok()) << label;
          testing::ExpectSameTuples(*again, *got, label + " timed");
          EXPECT_EQ(timed.stats().tuples_enumerated,
                    nl.stats().tuples_enumerated)
              << label;
        }
      }
      EXPECT_EQ(tables.stores, 0) << name;
    }
  }
}

TEST(NwayJoinTest, ApBackwardEngineAgreesWithForward) {
  Graph g = RandomGraph(30, 100, 322);
  DhtParams p = DhtParams::Lambda(0.2);
  QueryGraph query = MakeQuery(Shape::kChain3, g);
  MinAggregate f;
  AllPairsJoin fwd(AllPairsJoin::Options{AllPairsJoin::Engine::kForward});
  AllPairsJoin bwd(AllPairsJoin::Options{AllPairsJoin::Engine::kBackward});
  auto a = fwd.Run(g, p, 8, query, f, 10);
  auto b = bwd.Run(g, p, 8, query, f, 10);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (std::size_t i = 0; i < a->size(); ++i) {
    EXPECT_NEAR((*a)[i].f, (*b)[i].f, 1e-9);
  }
}

TEST(NwayJoinTest, PartialJoinStatsShowFractionUsed) {
  // The paper's observation: only a small fraction of the 2-way pair
  // space is consumed by the rank join.
  Graph g = RandomGraph(60, 200, 323);
  DhtParams p = DhtParams::Lambda(0.2);
  QueryGraph q;
  int a = q.AddNodeSet(Range("A", 0, 25));
  int b = q.AddNodeSet(Range("B", 30, 55));
  ASSERT_TRUE(q.AddEdge(a, b).ok());
  MinAggregate f;
  PartialJoin pji(PartialJoin::Options{.m = 10, .incremental = true});
  auto got = pji.Run(g, p, 8, q, f, 5);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(pji.stats().pulls_per_edge.size(), 1u);
  EXPECT_LT(pji.stats().pulls_per_edge[0],
            static_cast<int64_t>(25 * 25));  // far less than all pairs
}

/// One of nway_mix's PJ-i shapes, with its rank join's work pinned.
struct ServedShape {
  const char* name;
  bool sum;
  int num_sets;
  std::vector<JoinEdge> edges;
  std::vector<int64_t> pulls_per_edge;
  std::vector<int64_t> beyond_m_per_edge;
  int64_t tuples_generated;
  int64_t candidates_scored;
};

TEST(NwayJoinTest, RankJoinWorkIsPinnedOnServedShapes) {
  // nway_mix's five PJ-i shapes, cold, on a smaller Yeast-like graph.
  // Pulls, getNextNodePair traffic and candidates formed follow from the
  // streams and the corner bound alone: how the buffer finds a candidate,
  // and where a final scan stops, must not change which candidates are
  // formed or offered. candidates_scored pins where those scans stop.
  auto ds = datasets::GenerateYeastLike(datasets::YeastLikeConfig{
      .num_nodes = 1200, .num_edges = 3600, .seed = 13});
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  const Graph& g = ds->graph;
  std::vector<NodeSet> sets;
  for (std::size_t i = 0; i < 4; ++i) {
    sets.push_back(ds->partitions[i].TopByDegree(g, 40));
  }
  const DhtParams p = DhtParams::Lambda(0.2);
  const std::vector<ServedShape> shapes = {
      {"3-chain min", false, 3, {{0, 1}, {1, 2}}, {51, 51}, {1, 1}, 52, 52},
      {"3-chain sum",
       true,
       3,
       {{0, 1}, {1, 2}},
       {1568, 1567},
       {1518, 1517},
       61411,
       3171},  // scored < formed: the final scans stop early
      {"3-star",
       false,
       4,
       {{0, 1}, {0, 2}, {0, 3}},
       {77, 76, 76},
       {27, 26, 26},
       318,
       170},
      {"bidirectional triangle",
       false,
       3,
       {{0, 1}, {1, 0}, {1, 2}, {2, 1}, {0, 2}, {2, 0}},
       {141, 141, 141, 140, 140, 140},
       {91, 91, 91, 90, 90, 90},
       88,
       88},
      {"4-chain",
       false,
       4,
       {{0, 1}, {1, 2}, {2, 3}},
       {57, 57, 57},
       {7, 7, 7},
       65,
       64},
  };
  SumAggregate sum;
  MinAggregate min;
  for (const ServedShape& shape : shapes) {
    QueryGraph query;
    for (int i = 0; i < shape.num_sets; ++i) {
      query.AddNodeSet(sets[static_cast<std::size_t>(i)]);
    }
    for (const JoinEdge& e : shape.edges) {
      ASSERT_TRUE(query.AddEdge(e.left, e.right).ok()) << shape.name;
    }
    const Aggregate& f = shape.sum ? static_cast<const Aggregate&>(sum)
                                   : static_cast<const Aggregate&>(min);
    PartialJoin pji(PartialJoin::Options{.m = 50, .incremental = true});
    auto got = pji.Run(g, p, 8, query, f, 50);
    ASSERT_TRUE(got.ok()) << shape.name << ": " << got.status().ToString();
    testing::ExpectSameTuples(
        *got, RefNwayJoin(g, p, 8, query.sets(), query.edges(), f, 50),
        shape.name);
    const PartialJoin::Stats& st = pji.stats();
    EXPECT_EQ(st.pulls_per_edge, shape.pulls_per_edge) << shape.name;
    EXPECT_EQ(st.beyond_m_per_edge, shape.beyond_m_per_edge) << shape.name;
    EXPECT_EQ(st.rank_join.tuples_generated, shape.tuples_generated)
        << shape.name;
    EXPECT_EQ(st.rank_join.candidates_scored, shape.candidates_scored)
        << shape.name;
    EXPECT_LE(st.rank_join.candidates_scored, st.rank_join.tuples_generated)
        << shape.name;
  }
}

TEST(QueryGraphTest, ValidationErrors) {
  Graph g = RandomGraph(20, 50, 324);
  QueryGraph q;
  EXPECT_FALSE(q.Validate(g).ok());  // no sets
  int a = q.AddNodeSet(Range("A", 0, 4));
  EXPECT_FALSE(q.Validate(g).ok());  // one set, no edges
  int b = q.AddNodeSet(Range("B", 5, 9));
  EXPECT_FALSE(q.Validate(g).ok());  // still no edges
  EXPECT_FALSE(q.AddEdge(a, a).ok());         // self edge
  EXPECT_FALSE(q.AddEdge(a, 7).ok());         // unknown set
  EXPECT_TRUE(q.AddEdge(a, b).ok());
  EXPECT_EQ(q.AddEdge(a, b).code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(q.AddEdge(b, a).ok());  // opposite direction is distinct
  EXPECT_TRUE(q.Validate(g).ok());
  EXPECT_DOUBLE_EQ(q.CandidateSpace(), 16.0);
}

TEST(QueryGraphTest, EmptyNodeSetFailsValidation) {
  Graph g = RandomGraph(20, 50, 325);
  QueryGraph q;
  int a = q.AddNodeSet(Range("A", 0, 4));
  int b = q.AddNodeSet(NodeSet("B", std::vector<NodeId>{}));
  ASSERT_TRUE(q.AddEdge(a, b).ok());
  EXPECT_FALSE(q.Validate(g).ok());
}

TEST(NwayJoinTest, RunsAreDeterministic) {
  // No hidden iteration-order nondeterminism anywhere in the stack:
  // repeated runs return bit-identical tuples and scores.
  Graph g = RandomGraph(40, 140, 327, true, true);
  DhtParams p = DhtParams::Lambda(0.2);
  QueryGraph query = MakeQuery(Shape::kTriangle, g);
  MinAggregate f;
  PartialJoin pji(PartialJoin::Options{.m = 10, .incremental = true});
  auto first = pji.Run(g, p, 8, query, f, 10);
  ASSERT_TRUE(first.ok());
  for (int run = 0; run < 3; ++run) {
    auto again = pji.Run(g, p, 8, query, f, 10);
    ASSERT_TRUE(again.ok());
    ASSERT_EQ(again->size(), first->size());
    for (std::size_t i = 0; i < first->size(); ++i) {
      EXPECT_EQ((*again)[i].nodes, (*first)[i].nodes) << "rank " << i;
      EXPECT_EQ((*again)[i].f, (*first)[i].f) << "rank " << i;
    }
  }
}

TEST(NwayJoinTest, AdaptivePullingMatchesRoundRobinEndToEnd) {
  Graph g = RandomGraph(36, 120, 328);
  DhtParams p = DhtParams::Lambda(0.2);
  QueryGraph query = MakeQuery(Shape::kChain3, g);
  MinAggregate f;
  PartialJoin rr(PartialJoin::Options{.m = 10, .incremental = true});
  PartialJoin ad(PartialJoin::Options{
      .m = 10,
      .incremental = true,
      .pull_strategy = PullStrategy::kAdaptive});
  auto a = rr.Run(g, p, 8, query, f, 15);
  auto b = ad.Run(g, p, 8, query, f, 15);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (std::size_t i = 0; i < a->size(); ++i) {
    EXPECT_NEAR((*a)[i].f, (*b)[i].f, 1e-12);
  }
}

TEST(NwayJoinTest, KZeroRejectedEverywhere) {
  Graph g = RandomGraph(30, 90, 326);
  DhtParams p = DhtParams::Lambda(0.2);
  QueryGraph query = MakeQuery(Shape::kChain2, g);
  MinAggregate f;
  EXPECT_FALSE(NestedLoopJoin().Run(g, p, 8, query, f, 0).ok());
  EXPECT_FALSE(AllPairsJoin().Run(g, p, 8, query, f, 0).ok());
  EXPECT_FALSE(PartialJoin().Run(g, p, 8, query, f, 0).ok());
}

TEST(NwayJoinTest, DisconnectedSetsYieldEmptyResult) {
  // Two components; sets on different components can never join.
  GraphBuilder builder(8, true);
  ASSERT_TRUE(builder.AddEdge(0, 1).ok());
  ASSERT_TRUE(builder.AddEdge(1, 2).ok());
  ASSERT_TRUE(builder.AddEdge(4, 5).ok());
  ASSERT_TRUE(builder.AddEdge(5, 6).ok());
  Graph g = std::move(builder.Build()).value();
  DhtParams p = DhtParams::Lambda(0.2);
  QueryGraph q;
  int a = q.AddNodeSet(NodeSet("A", {0, 1, 2}));
  int b = q.AddNodeSet(NodeSet("B", {4, 5, 6}));
  ASSERT_TRUE(q.AddEdge(a, b).ok());
  MinAggregate f;
  for (auto* algo : std::initializer_list<NwayJoin*>{}) {
    (void)algo;
  }
  NestedLoopJoin nl;
  PartialJoin pj(PartialJoin::Options{.m = 5, .incremental = false});
  PartialJoin pji(PartialJoin::Options{.m = 5, .incremental = true});
  for (NwayJoin* algo : {static_cast<NwayJoin*>(&nl),
                         static_cast<NwayJoin*>(&pj),
                         static_cast<NwayJoin*>(&pji)}) {
    auto got = algo->Run(g, p, 8, q, f, 5);
    ASSERT_TRUE(got.ok()) << algo->Name();
    EXPECT_TRUE(got->empty()) << algo->Name();
  }
}

}  // namespace
}  // namespace dhtjoin
