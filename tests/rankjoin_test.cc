/// \file tests/rankjoin_test.cc
/// \brief Aggregates, candidate buffers, and the PBRJ rank-join engine
/// (tested against exhaustive enumeration over the same input lists).

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <memory>

#include "core/pair_streams.h"
#include "graph/graph_builder.h"
#include "rankjoin/aggregate.h"
#include "rankjoin/candidate_buffer.h"
#include "rankjoin/pbrj.h"
#include "testing/reference.h"
#include "util/rng.h"

namespace dhtjoin {
namespace {

// -------------------------------------------------------------- Aggregate

TEST(AggregateTest, SumAndMin) {
  SumAggregate sum;
  MinAggregate min;
  std::vector<double> xs = {-0.5, -1.0, -0.25};
  EXPECT_DOUBLE_EQ(sum.Apply(xs), -1.75);
  EXPECT_DOUBLE_EQ(min.Apply(xs), -1.0);
  EXPECT_EQ(sum.Name(), "SUM");
  EXPECT_EQ(min.Name(), "MIN");
}

TEST(AggregateTest, HandleInfinity) {
  SumAggregate sum;
  MinAggregate min;
  double inf = std::numeric_limits<double>::infinity();
  std::vector<double> xs = {1.0, -inf};
  EXPECT_EQ(sum.Apply(xs), -inf);
  EXPECT_EQ(min.Apply(xs), -inf);
}

// -------------------------------------------------------- CandidateBuffer

TEST(CandidateBufferTest, InsertAndLookup) {
  CandidateBuffer buf;
  EXPECT_TRUE(buf.Insert(1, 2, -0.5));
  EXPECT_TRUE(buf.Insert(1, 3, -0.6));
  EXPECT_TRUE(buf.Insert(4, 2, -0.7));
  EXPECT_FALSE(buf.Insert(1, 3, -0.8));  // already buffered: ignored
  EXPECT_EQ(buf.size(), 3u);
  ASSERT_TRUE(buf.Lookup(1, 2).has_value());
  EXPECT_DOUBLE_EQ(*buf.Lookup(1, 2), -0.5);
  EXPECT_DOUBLE_EQ(*buf.Lookup(1, 3), -0.6);
  EXPECT_FALSE(buf.Lookup(2, 1).has_value());
  EXPECT_EQ(buf.ByLeft(1).size(), 2u);
  EXPECT_EQ(buf.ByRight(2).size(), 2u);
  EXPECT_EQ(buf.ByLeft(99).size(), 0u);
  EXPECT_FALSE(buf.ByLeft(99).begin() != buf.ByLeft(99).end());
  EXPECT_EQ(buf.All().size(), 3u);
}

TEST(CandidateBufferTest, ChainsKeepPullOrderAcrossGrowth) {
  // Enough pairs to grow every index several times; each id's chain
  // must list exactly its pairs, in insertion order.
  CandidateBuffer buf;
  std::vector<ScoredPair> inserted;
  for (NodeId i = 0; i < 600; ++i) {
    const ScoredPair sp{(i * 7) % 23, 1000 + (i * 11) % 37, -0.001 * i};
    ASSERT_TRUE(buf.Insert(sp.p, sp.q, sp.score)) << i;
    inserted.push_back(sp);
  }
  for (NodeId id = 0; id < 1100; ++id) {
    std::vector<ScoredPair> by_left, by_right;
    for (const ScoredPair& sp : inserted) {
      if (sp.p == id) by_left.push_back(sp);
      if (sp.q == id) by_right.push_back(sp);
    }
    std::vector<ScoredPair> got_left, got_right;
    for (const ScoredPair& sp : buf.ByLeft(id)) got_left.push_back(sp);
    for (const ScoredPair& sp : buf.ByRight(id)) got_right.push_back(sp);
    EXPECT_EQ(got_left, by_left) << id;
    EXPECT_EQ(got_right, by_right) << id;
    EXPECT_EQ(buf.ByLeft(id).size(), by_left.size()) << id;
    EXPECT_EQ(buf.ByRight(id).size(), by_right.size()) << id;
  }
  for (const ScoredPair& sp : inserted) {
    ASSERT_TRUE(buf.Lookup(sp.p, sp.q).has_value());
    EXPECT_EQ(*buf.Lookup(sp.p, sp.q), sp.score);
    EXPECT_FALSE(buf.Insert(sp.p, sp.q, sp.score));
  }
  EXPECT_FALSE(buf.Lookup(0, 0).has_value());
  EXPECT_EQ(buf.size(), inserted.size());
}

// ------------------------------------------------------------------ PBRJ

/// Exhaustive join over full lists: the PBRJ ground truth.
std::vector<TupleAnswer> BruteForceJoin(
    int num_attrs, const std::vector<JoinEdge>& edges,
    const std::vector<std::vector<ScoredPair>>& lists, const Aggregate& f,
    std::size_t k) {
  std::vector<TupleAnswer> all;
  std::vector<NodeId> tuple(static_cast<std::size_t>(num_attrs),
                            kInvalidNode);
  auto rec = [&](auto&& self, std::size_t e,
                 std::vector<double>& scores) -> void {
    if (e == edges.size()) {
      TupleAnswer a;
      a.nodes = tuple;
      a.edge_scores = scores;
      a.f = f.Apply(scores);
      all.push_back(a);
      return;
    }
    auto la = static_cast<std::size_t>(edges[e].left);
    auto ra = static_cast<std::size_t>(edges[e].right);
    for (const ScoredPair& sp : lists[e]) {
      bool ok_l = tuple[la] == kInvalidNode || tuple[la] == sp.p;
      bool ok_r = tuple[ra] == kInvalidNode || tuple[ra] == sp.q;
      if (!ok_l || !ok_r) continue;
      NodeId saved_l = tuple[la], saved_r = tuple[ra];
      tuple[la] = sp.p;
      tuple[ra] = sp.q;
      scores[e] = sp.score;
      self(self, e + 1, scores);
      tuple[la] = saved_l;
      tuple[ra] = saved_r;
    }
  };
  std::vector<double> scores(edges.size());
  rec(rec, 0, scores);
  std::sort(all.begin(), all.end(), TupleAnswerGreater);
  if (all.size() > k) all.resize(k);
  return all;
}

/// A sorted stream over [left_base, +lefts) x [right_base, +rights).
/// Scores are uniform in (-1, 0], or with `levels` > 0 one of the
/// `levels` values -1/levels, ..., -1, so equal aggregates are the rule.
std::vector<ScoredPair> RandomList(Rng& rng, NodeId left_base,
                                   NodeId right_base, int lefts, int rights,
                                   double keep, int levels = 0) {
  std::vector<ScoredPair> list;
  for (NodeId p = left_base; p < left_base + lefts; ++p) {
    for (NodeId q = right_base; q < right_base + rights; ++q) {
      if (!rng.Chance(keep)) continue;
      const double score =
          levels > 0 ? -static_cast<double>(
                           rng.Below(static_cast<uint64_t>(levels)) + 1) /
                           levels
                     : -rng.NextDouble();
      list.push_back(ScoredPair{p, q, score});
    }
  }
  std::sort(list.begin(), list.end(), ScoredPairGreater);
  return list;
}

/// A rank-join input: the query graph and one sorted list per edge.
struct JoinInput {
  std::string label;
  int num_attrs;
  std::vector<JoinEdge> edges;
  std::vector<std::vector<ScoredPair>> lists;
};

/// The pulled prefixes: the first `pulled[e]` pairs of each list.
std::vector<std::vector<ScoredPair>> Prefixes(
    const JoinInput& in, const std::vector<int64_t>& pulled) {
  std::vector<std::vector<ScoredPair>> out;
  for (std::size_t e = 0; e < in.lists.size(); ++e) {
    out.emplace_back(in.lists[e].begin(),
                     in.lists[e].begin() + static_cast<std::ptrdiff_t>(
                                               pulled[e]));
  }
  return out;
}

/// Runs round-robin PBRJ over VectorPairStreams of `in`'s lists.
Result<std::vector<TupleAnswer>> RunPbrj(const JoinInput& in,
                                         const Aggregate& f, std::size_t k,
                                         PbrjStats* stats) {
  std::vector<VectorPairStream> streams;
  for (const auto& list : in.lists) streams.emplace_back(list);
  std::vector<PairStream*> ptrs;
  for (auto& s : streams) ptrs.push_back(&s);
  Pbrj pbrj(in.num_attrs, in.edges, &f, k);
  auto got = pbrj.Run(ptrs);
  *stats = pbrj.stats();
  return got;
}

/// Pulls per edge at which round-robin PBRJ must stop, by brute force.
/// Replays the engine's pull schedule (each stream once, then cycling
/// over the streams not yet exhausted; a pull past a list's end only
/// marks it exhausted) and after every pull joins the pulled prefixes
/// in full. The answer is the first prefix at which k tuples exist and
/// the k-th f reaches the HRJN corner bound over the streams with pairs
/// left, or at which every stream is exhausted.
std::vector<int64_t> RoundRobinStop(const JoinInput& in, const Aggregate& f,
                                    std::size_t k) {
  const std::size_t n = in.edges.size();
  std::vector<int64_t> pulled(n, 0);
  std::vector<bool> exhausted(n, false);
  auto pull = [&](std::size_t e) {
    if (pulled[e] == static_cast<int64_t>(in.lists[e].size())) {
      exhausted[e] = true;
    } else {
      ++pulled[e];
    }
  };
  for (std::size_t e = 0; e < n; ++e) pull(e);
  for (std::size_t e = 0; e < n; ++e) {
    if (exhausted[e]) return pulled;  // an empty list: no tuple exists
  }
  std::size_t rr = 0;
  while (true) {
    double tau = -std::numeric_limits<double>::infinity();
    bool open = false;
    for (std::size_t e = 0; e < n; ++e) {
      if (exhausted[e]) continue;
      std::vector<double> corner(n);
      for (std::size_t i = 0; i < n; ++i) {
        // Edge e at its latest pulled pair, every other edge at its top.
        const std::size_t at =
            i == e ? static_cast<std::size_t>(pulled[i] - 1) : 0;
        corner[i] = in.lists[i][at].score;
      }
      tau = std::max(tau, f.Apply(corner));
      open = true;
    }
    const auto tuples =
        BruteForceJoin(in.num_attrs, in.edges, Prefixes(in, pulled), f, k);
    if (tuples.size() >= k && tuples[k - 1].f >= tau) return pulled;
    if (!open) return pulled;
    while (exhausted[rr]) rr = (rr + 1) % n;
    pull(rr);
    rr = (rr + 1) % n;
  }
}

struct PbrjCase {
  uint64_t seed;
  std::size_t k;
  bool use_min;
  double keep;  // list density
};

const PbrjCase kSweepCases[] = {
    {1, 1, true, 0.8},    {2, 5, true, 0.5},    {3, 10, false, 0.8},
    {4, 50, false, 0.3},  {5, 1000, true, 0.6}, {6, 3, true, 1.0},
};

/// Attributes 0-1-2 chained by 2 edges; node ranges disjoint per attr.
JoinInput ChainInput(const PbrjCase& c) {
  Rng rng(c.seed);
  return {"chain",
          3,
          {{0, 1}, {1, 2}},
          {RandomList(rng, 0, 100, 6, 6, c.keep),
           RandomList(rng, 100, 200, 6, 6, c.keep)}};
}

JoinInput TriangleInput(const PbrjCase& c) {
  Rng rng(c.seed ^ 0xabcdef);
  return {"triangle",
          3,
          {{0, 1}, {1, 2}, {0, 2}},
          {RandomList(rng, 0, 100, 5, 5, c.keep),
           RandomList(rng, 100, 200, 5, 5, c.keep),
           RandomList(rng, 0, 200, 5, 5, c.keep)}};
}

class PbrjSweep : public ::testing::TestWithParam<PbrjCase> {};

TEST_P(PbrjSweep, ChainQueryMatchesBruteForce) {
  const auto& c = GetParam();
  const JoinInput in = ChainInput(c);
  SumAggregate sum;
  MinAggregate min;
  const Aggregate& f = c.use_min ? static_cast<const Aggregate&>(min)
                                 : static_cast<const Aggregate&>(sum);
  auto want = BruteForceJoin(3, in.edges, in.lists, f, c.k);
  PbrjStats stats;
  auto got = RunPbrj(in, f, c.k, &stats);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR((*got)[i].f, want[i].f, 1e-12) << "rank " << i;
  }
}

TEST_P(PbrjSweep, TriangleQueryMatchesBruteForce) {
  const auto& c = GetParam();
  const JoinInput in = TriangleInput(c);
  MinAggregate f;
  auto want = BruteForceJoin(3, in.edges, in.lists, f, c.k);
  PbrjStats stats;
  auto got = RunPbrj(in, f, c.k, &stats);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR((*got)[i].f, want[i].f, 1e-12) << "rank " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PbrjSweep, ::testing::ValuesIn(kSweepCases));

TEST(PbrjTest, BidirectionalEdgesBetweenSameSets) {
  // Two opposite edges between attrs 0 and 1 (paper footnote 2); a tuple
  // needs BOTH pairs present.
  std::vector<JoinEdge> edges = {{0, 1}, {1, 0}};
  std::vector<ScoredPair> fwd = {{1, 10, -0.2}, {2, 11, -0.5}};
  std::vector<ScoredPair> bwd = {{10, 1, -0.3}};  // only (10,1) back pair
  MinAggregate f;
  VectorPairStream s0(fwd), s1(bwd);
  Pbrj pbrj(2, edges, &f, 10);
  auto got = pbrj.Run({&s0, &s1});
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), 1u);  // (2, 11) has no reverse pair
  EXPECT_EQ((*got)[0].nodes, (std::vector<NodeId>{1, 10}));
  EXPECT_DOUBLE_EQ((*got)[0].f, -0.3);
}

TEST(PbrjTest, EmptyStreamMeansNoTuples) {
  std::vector<JoinEdge> edges = {{0, 1}, {1, 2}};
  std::vector<ScoredPair> nonempty = {{1, 10, -0.2}};
  MinAggregate f;
  VectorPairStream s0(nonempty), s1({});
  Pbrj pbrj(3, edges, &f, 5);
  auto got = pbrj.Run({&s0, &s1});
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->empty());
}

TEST(PbrjTest, DisconnectedQueryGraphIsCartesian) {
  // Edges (0,1) and (2,3): no shared attribute. Tuples are the cross
  // product of the two lists.
  std::vector<JoinEdge> edges = {{0, 1}, {2, 3}};
  std::vector<ScoredPair> l0 = {{1, 10, -0.1}, {2, 11, -0.4}};
  std::vector<ScoredPair> l1 = {{20, 30, -0.2}, {21, 31, -0.3}};
  SumAggregate f;
  VectorPairStream s0(l0), s1(l1);
  Pbrj pbrj(4, edges, &f, 10);
  auto got = pbrj.Run({&s0, &s1});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->size(), 4u);
  EXPECT_NEAR((*got)[0].f, -0.3, 1e-12);  // best + best
}

TEST(PbrjTest, WrongStreamCountRejected) {
  std::vector<JoinEdge> edges = {{0, 1}};
  MinAggregate f;
  Pbrj pbrj(2, edges, &f, 5);
  EXPECT_FALSE(pbrj.Run({}).ok());
  VectorPairStream s({});
  EXPECT_FALSE(pbrj.Run({&s, &s}).ok());
  EXPECT_FALSE(pbrj.Run({nullptr}).ok());
}

TEST(PbrjTest, EarlyTerminationPullsLessThanEverything) {
  // With k=1 and clearly separated scores the corner bound should stop
  // the join long before both lists are drained.
  std::vector<JoinEdge> edges = {{0, 1}, {1, 2}};
  std::vector<ScoredPair> l0, l1;
  for (int i = 0; i < 200; ++i) {
    l0.push_back({static_cast<NodeId>(i), static_cast<NodeId>(1000 + i),
                  -0.001 * i});
    l1.push_back({static_cast<NodeId>(1000 + i), static_cast<NodeId>(2000 + i),
                  -0.001 * i});
  }
  MinAggregate f;
  VectorPairStream s0(l0), s1(l1);
  Pbrj pbrj(3, edges, &f, 1);
  auto got = pbrj.Run({&s0, &s1});
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), 1u);
  EXPECT_DOUBLE_EQ((*got)[0].f, 0.0);
  const auto& pulls = pbrj.stats().pulls_per_edge;
  EXPECT_LT(pulls[0] + pulls[1], 50);  // nowhere near 400
}

TEST(PbrjTest, AdaptivePullingAgreesWithRoundRobin) {
  // HRJN* (adaptive) must return the same top-k as plain HRJN — only
  // the pull order differs.
  Rng rng(88);
  std::vector<JoinEdge> edges = {{0, 1}, {1, 2}, {0, 2}};
  std::vector<std::vector<ScoredPair>> lists = {
      RandomList(rng, 0, 100, 6, 6, 0.6),
      RandomList(rng, 100, 200, 6, 6, 0.6),
      RandomList(rng, 0, 200, 6, 6, 0.6)};
  MinAggregate f;
  auto run = [&](PullStrategy strategy) {
    VectorPairStream s0(lists[0]), s1(lists[1]), s2(lists[2]);
    Pbrj pbrj(3, edges, &f, 10, Pbrj::Options{strategy});
    auto got = pbrj.Run({&s0, &s1, &s2});
    EXPECT_TRUE(got.ok());
    return std::move(got).value();
  };
  auto rr = run(PullStrategy::kRoundRobin);
  auto ad = run(PullStrategy::kAdaptive);
  ASSERT_EQ(rr.size(), ad.size());
  for (std::size_t i = 0; i < rr.size(); ++i) {
    EXPECT_NEAR(rr[i].f, ad[i].f, 1e-12) << "rank " << i;
  }
}

TEST(PbrjTest, AdaptivePullingNeverPullsMore) {
  // On strongly skewed streams the adaptive strategy should consume no
  // more pairs in total than round-robin (it only pulls the stream that
  // can lower tau).
  std::vector<JoinEdge> edges = {{0, 1}, {1, 2}};
  std::vector<ScoredPair> fast, slow;
  for (int i = 0; i < 300; ++i) {
    fast.push_back({static_cast<NodeId>(i), static_cast<NodeId>(1000 + i),
                    -0.0001 * i});  // scores decay slowly
    slow.push_back({static_cast<NodeId>(1000 + i),
                    static_cast<NodeId>(2000 + i), -0.1 * i});  // fast decay
  }
  MinAggregate f;
  auto total_pulls = [&](PullStrategy strategy) {
    VectorPairStream s0(fast), s1(slow);
    Pbrj pbrj(3, edges, &f, 3, Pbrj::Options{strategy});
    EXPECT_TRUE(pbrj.Run({&s0, &s1}).ok());
    return pbrj.stats().pulls_per_edge[0] + pbrj.stats().pulls_per_edge[1];
  };
  EXPECT_LE(total_pulls(PullStrategy::kAdaptive),
            total_pulls(PullStrategy::kRoundRobin));
}

TEST(PbrjTest, TupleEdgeScoresConsistentWithF) {
  Rng rng(77);
  std::vector<JoinEdge> edges = {{0, 1}, {1, 2}};
  std::vector<std::vector<ScoredPair>> lists = {
      RandomList(rng, 0, 100, 5, 5, 0.7),
      RandomList(rng, 100, 200, 5, 5, 0.7)};
  SumAggregate f;
  VectorPairStream s0(lists[0]), s1(lists[1]);
  Pbrj pbrj(3, edges, &f, 20);
  auto got = pbrj.Run({&s0, &s1});
  ASSERT_TRUE(got.ok());
  for (const TupleAnswer& t : *got) {
    EXPECT_NEAR(t.f, t.edge_scores[0] + t.edge_scores[1], 1e-12);
  }
}

// ------------------------------------------------------- PBRJ under ties

/// Four query shapes x four seeds, each list drawn from four score
/// values, so the k-th boundary is one large tie.
std::vector<JoinInput> TieHeavyInputs() {
  struct Shape {
    const char* name;
    int num_attrs;
    std::vector<JoinEdge> edges;
    int set_size;
  };
  const std::vector<Shape> shapes = {
      {"chain", 3, {{0, 1}, {1, 2}}, 6},
      {"triangle", 3, {{0, 1}, {1, 2}, {0, 2}}, 5},
      {"bidirectional", 2, {{0, 1}, {1, 0}}, 8},
      {"star4", 4, {{0, 1}, {0, 2}, {0, 3}}, 5},
  };
  std::vector<JoinInput> inputs;
  for (const Shape& shape : shapes) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      Rng rng(seed * 1009 + static_cast<uint64_t>(shape.num_attrs));
      JoinInput in{std::string(shape.name) + " seed " + std::to_string(seed),
                   shape.num_attrs, shape.edges, {}};
      for (const JoinEdge& e : shape.edges) {
        in.lists.push_back(RandomList(rng, 100 * e.left, 100 * e.right,
                                      shape.set_size, shape.set_size, 0.7,
                                      /*levels=*/4));
      }
      inputs.push_back(std::move(in));
    }
  }
  return inputs;
}

TEST(PbrjTest, TieHeavySweepMatchesBruteForce) {
  // What PBRJ promises at a tied k-th boundary, checked byte for byte:
  //  * its answer is the canonical top-k (TupleAnswerGreater) of exactly
  //    the candidates it generated, i.e. of every tuple the pulled
  //    prefixes of the streams form, and tuples_generated counts them;
  //  * f at every rank, and every tuple scoring above the k-th f, equal
  //    the exhaustive join over the full lists.
  // Which tuples fill a tie AT the k-th f is not canonical over the full
  // lists: Alg. 1 stops once the k-th f reaches tau, and an unseen tuple
  // can score exactly tau with a smaller node vector (DESIGN.md §2).
  SumAggregate sum;
  MinAggregate min;
  constexpr std::size_t kAll = std::numeric_limits<std::size_t>::max();
  int cases = 0;
  int boundary_ties = 0;
  for (const JoinInput& in : TieHeavyInputs()) {
    for (const Aggregate* f : {static_cast<const Aggregate*>(&min),
                               static_cast<const Aggregate*>(&sum)}) {
      for (std::size_t k :
           {std::size_t{1}, std::size_t{7}, std::size_t{50}}) {
        const std::string label =
            in.label + " " + f->Name() + " k " + std::to_string(k);
        PbrjStats stats;
        auto got = RunPbrj(in, *f, k, &stats);
        ASSERT_TRUE(got.ok()) << label;

        auto generated = BruteForceJoin(
            in.num_attrs, in.edges, Prefixes(in, stats.pulls_per_edge), *f,
            kAll);
        EXPECT_EQ(stats.tuples_generated,
                  static_cast<int64_t>(generated.size()))
            << label;
        EXPECT_LE(stats.candidates_scored, stats.tuples_generated) << label;
        if (generated.size() > k) generated.resize(k);
        testing::ExpectSameTuples(*got, generated,
                                  label + " (pulled prefixes)");

        auto full = BruteForceJoin(in.num_attrs, in.edges, in.lists, *f, kAll);
        const std::size_t n = std::min(k, full.size());
        ASSERT_EQ(got->size(), n) << label;
        if (full.size() > k && full[k].f == full[k - 1].f) ++boundary_ties;
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(std::bit_cast<uint64_t>((*got)[i].f),
                    std::bit_cast<uint64_t>(full[i].f))
              << label << " rank " << i;
          if (full[i].f > full[n - 1].f) {
            EXPECT_EQ((*got)[i].nodes, full[i].nodes)
                << label << " rank " << i;
            EXPECT_EQ((*got)[i].edge_scores, full[i].edge_scores)
                << label << " rank " << i;
          }
        }
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 96);
  // The data must actually put ties at the boundary for this to bite.
  EXPECT_GT(boundary_ties, cases / 2);
}

TEST(PbrjTest, StopsAtTheShortestRoundRobinPrefix) {
  // Where round-robin PBRJ stops, against RoundRobinStop's brute force,
  // on every PbrjSweep case and every tie-heavy input: a corner bound
  // that lags behind the pulls (or runs ahead of them) moves the stop.
  SumAggregate sum;
  MinAggregate min;
  int cases = 0;
  auto check = [&](const JoinInput& in, const Aggregate& f, std::size_t k) {
    const std::string label =
        in.label + " " + f.Name() + " k " + std::to_string(k);
    PbrjStats stats;
    ASSERT_TRUE(RunPbrj(in, f, k, &stats).ok()) << label;
    EXPECT_EQ(stats.pulls_per_edge, RoundRobinStop(in, f, k)) << label;
    ++cases;
  };
  for (const PbrjCase& c : kSweepCases) {
    check(ChainInput(c), c.use_min ? static_cast<const Aggregate&>(min)
                                   : static_cast<const Aggregate&>(sum),
          c.k);
    check(TriangleInput(c), min, c.k);
  }
  for (const JoinInput& in : TieHeavyInputs()) {
    for (const Aggregate* f : {static_cast<const Aggregate*>(&min),
                               static_cast<const Aggregate*>(&sum)}) {
      for (std::size_t k :
           {std::size_t{1}, std::size_t{7}, std::size_t{50}}) {
        check(in, *f, k);
      }
    }
  }
  EXPECT_EQ(cases, 12 + 96);
}

TEST(PbrjTest, RefusesAStreamThatBreaksItsContract) {
  // The corner bound and the final scan's stop assume every stream's
  // scores never rise and no pair repeats. A stream that breaks this
  // gets a typed status naming its edge, and no answer.
  Rng rng(41);
  const std::vector<JoinEdge> edges = {{0, 1}, {1, 2}};
  const std::vector<ScoredPair> left = RandomList(rng, 0, 100, 6, 6, 0.8);
  const std::vector<ScoredPair> right = RandomList(rng, 100, 200, 6, 6, 0.8);
  ASSERT_GT(right.size(), 10u);

  std::vector<std::pair<std::string, std::vector<ScoredPair>>> broken;
  {
    // Two adjacent pairs of different scores, swapped: the score rises.
    std::vector<ScoredPair> swapped = right;
    std::size_t i = 5;
    while (swapped[i].score == swapped[i + 1].score) ++i;
    std::swap(swapped[i], swapped[i + 1]);
    broken.emplace_back("swapped", std::move(swapped));
  }
  {
    std::vector<ScoredPair> repeated = right;
    repeated.insert(repeated.begin() + 6, repeated[5]);
    broken.emplace_back("repeated", std::move(repeated));
  }
  {
    std::vector<ScoredPair> nan = right;
    nan[5].score = std::numeric_limits<double>::quiet_NaN();
    broken.emplace_back("NaN", std::move(nan));
  }
  MinAggregate f;
  for (const auto& [name, list] : broken) {
    // k above the tuple count: the join reads every pair unless refused.
    const JoinInput in{name, 3, edges, {left, list}};
    PbrjStats stats;
    auto got = RunPbrj(in, f, 1000, &stats);
    ASSERT_FALSE(got.ok()) << name;
    EXPECT_EQ(got.status().code(), StatusCode::kInternal) << name;
    EXPECT_NE(got.status().message().find("edge 1 "), std::string::npos)
        << name << ": " << got.status().ToString();
  }
  // The same lists unbroken join fine.
  PbrjStats stats;
  EXPECT_TRUE(RunPbrj({"intact", 3, edges, {left, right}}, f, 1000, &stats)
                  .ok());
}

// ------------------------------------------------------------ PJ streams

TEST(RerunPairStreamTest, MatchesDirectJoinOrder) {
  Graph g;
  {
    GraphBuilder b(20, true);
    Rng rng(55);
    for (int i = 0; i < 50; ++i) {
      auto u = static_cast<NodeId>(rng.Below(20));
      auto v = static_cast<NodeId>(rng.Below(20));
      if (u != v) (void)b.AddEdge(u, v, 1.0);
    }
    g = std::move(b.Build()).value();
  }
  DhtParams p = DhtParams::Lambda(0.2);
  NodeSet P("P", {0, 1, 2, 3, 4, 5, 6, 7});
  NodeSet Q("Q", {12, 13, 14, 15, 16, 17, 18, 19});
  BIdjJoin direct;
  auto want = direct.Run(g, p, 8, P, Q, 100);
  ASSERT_TRUE(want.ok());

  RerunPairStream stream(g, p, 8, P, Q, /*m=*/3, UpperBoundKind::kY);
  ASSERT_TRUE(stream.status().ok());
  std::vector<ScoredPair> got;
  while (auto next = stream.Next()) got.push_back(*next);
  ASSERT_EQ(got.size(), want->size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].score, (*want)[i].score, 1e-9);
  }
  // Going past m = 3 required re-running joins from scratch.
  EXPECT_GT(stream.stats().reruns, 0);
}

}  // namespace
}  // namespace dhtjoin
