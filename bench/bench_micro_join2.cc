/// \file bench/bench_micro_join2.cc
/// \brief google-benchmark micro timings of the 2-way join algorithms,
/// the incremental enumerator's steady-state Next(), and the PBRJ rank
/// join alone over the pair sequences PJ-i's streams emit.

#include <benchmark/benchmark.h>

#include <map>
#include <utility>

#include "bench_common.h"
#include "core/pair_streams.h"
#include "join2/b_bj.h"
#include "join2/b_idj.h"
#include "join2/incremental.h"
#include "rankjoin/pbrj.h"

namespace dhtjoin::bench {
namespace {

struct Fixture {
  datasets::YeastLikeDataset ds;
  NodeSet P, Q;
};

const Fixture& GetFixture() {
  static const Fixture* fx = [] {
    auto r = datasets::GenerateYeastLike(
        datasets::YeastLikeConfig{.num_nodes = 1200, .num_edges = 3600});
    auto* out = new Fixture{std::move(r).value(), {}, {}};
    out->P = out->ds.partitions[0].TopByDegree(out->ds.graph, 80);
    out->Q = out->ds.partitions[1].TopByDegree(out->ds.graph, 80);
    return out;
  }();
  return *fx;
}

void BM_BBj(benchmark::State& state) {
  const auto& fx = GetFixture();
  DhtParams p = DhtParams::Lambda(0.2);
  BBjJoin join;
  for (auto _ : state) {
    auto r = join.Run(fx.ds.graph, p, 8, fx.P, fx.Q,
                      static_cast<std::size_t>(state.range(0)));
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_BBj)->Arg(10)->Arg(50);

void BM_BIdjX(benchmark::State& state) {
  const auto& fx = GetFixture();
  DhtParams p = DhtParams::Lambda(0.2);
  BIdjJoin join(BIdjJoin::Options{UpperBoundKind::kX});
  for (auto _ : state) {
    auto r = join.Run(fx.ds.graph, p, 8, fx.P, fx.Q,
                      static_cast<std::size_t>(state.range(0)));
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_BIdjX)->Arg(10)->Arg(50);

void BM_BIdjY(benchmark::State& state) {
  const auto& fx = GetFixture();
  DhtParams p = DhtParams::Lambda(0.2);
  BIdjJoin join(BIdjJoin::Options{UpperBoundKind::kY});
  for (auto _ : state) {
    auto r = join.Run(fx.ds.graph, p, 8, fx.P, fx.Q,
                      static_cast<std::size_t>(state.range(0)));
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_BIdjY)->Arg(10)->Arg(50);

void BM_IncrementalNext(benchmark::State& state) {
  // Steady-state cost of one more pair after a top-50 run; this is the
  // operation PJ-i hammers (getNextNodePair).
  const auto& fx = GetFixture();
  DhtParams p = DhtParams::Lambda(0.2);
  auto join =
      IncrementalTwoWayJoin::Create(fx.ds.graph, p, 8, fx.P, fx.Q, 50);
  for (int i = 0; i < 50; ++i) (*join)->Next();
  for (auto _ : state) {
    auto next = (*join)->Next();
    if (!next.has_value()) {
      state.PauseTiming();
      join = IncrementalTwoWayJoin::Create(fx.ds.graph, p, 8, fx.P, fx.Q,
                                           50);
      for (int i = 0; i < 50; ++i) (*join)->Next();
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(next);
  }
}
BENCHMARK(BM_IncrementalNext);

/// One of nway_mix's PJ-i shapes over the fixture graph's top-40 sets of
/// partitions 0-3, with the pairs its rank join reads from each edge.
struct ReplayShape {
  const char* name;
  bool sum;
  int num_sets;
  std::vector<JoinEdge> edges;
  std::vector<std::vector<ScoredPair>> pulled;
};

const std::vector<ReplayShape>& GetReplayShapes() {
  static const std::vector<ReplayShape>* shapes = [] {
    const auto& fx = GetFixture();
    const Graph& g = fx.ds.graph;
    const DhtParams p = DhtParams::Lambda(0.2);
    std::vector<NodeSet> sets;
    for (std::size_t i = 0; i < 4; ++i) {
      sets.push_back(fx.ds.partitions[i].TopByDegree(g, 40));
    }
    auto* out = new std::vector<ReplayShape>{
        {"3-chain min", false, 3, {{0, 1}, {1, 2}}, {}},
        {"3-chain sum", true, 3, {{0, 1}, {1, 2}}, {}},
        {"3-star", false, 4, {{0, 1}, {0, 2}, {0, 3}}, {}},
        {"bidirectional triangle",
         false,
         3,
         {{0, 1}, {1, 0}, {1, 2}, {2, 1}, {0, 2}, {2, 0}},
         {}},
        {"4-chain", false, 4, {{0, 1}, {1, 2}, {2, 3}}, {}},
    };
    // Each edge's stream drained once, as PJ-i creates it (m = 50): the
    // exact descending sequence its rank join reads.
    std::map<std::pair<int, int>, std::vector<ScoredPair>> drained;
    for (ReplayShape& shape : *out) {
      for (const JoinEdge& e : shape.edges) {
        auto [it, fresh] = drained.try_emplace({e.left, e.right});
        if (!fresh) continue;
        auto join = Unwrap(
            IncrementalTwoWayJoin::Create(
                g, p, 8, sets[static_cast<std::size_t>(e.left)],
                sets[static_cast<std::size_t>(e.right)], 50),
            "IncrementalTwoWayJoin::Create");
        while (auto next = join->Next()) it->second.push_back(*next);
      }
    }
    // Cut each stream to the pairs the rank join reads, so a timed run
    // copies no pair it never pulls.
    SumAggregate sum;
    MinAggregate min;
    for (ReplayShape& shape : *out) {
      std::vector<VectorPairStream> streams;
      for (const JoinEdge& e : shape.edges) {
        streams.emplace_back(drained.at({e.left, e.right}));
      }
      std::vector<PairStream*> ptrs;
      for (auto& s : streams) ptrs.push_back(&s);
      Pbrj pbrj(shape.num_sets, shape.edges,
                shape.sum ? static_cast<const Aggregate*>(&sum) : &min, 50);
      CheckOk(pbrj.Run(ptrs).status(), "Pbrj::Run");
      for (std::size_t e = 0; e < shape.edges.size(); ++e) {
        const auto& all = drained.at({shape.edges[e].left,
                                      shape.edges[e].right});
        shape.pulled.emplace_back(
            all.begin(), all.begin() + pbrj.stats().pulls_per_edge[e]);
      }
    }
    return out;
  }();
  return *shapes;
}

void BM_PbrjReplay(benchmark::State& state) {
  // PBRJ alone (k = 50) over the pairs PJ-i's streams emit, with no walk
  // or enumerator work: the rank join's own cost per query.
  const ReplayShape& shape =
      GetReplayShapes()[static_cast<std::size_t>(state.range(0))];
  SumAggregate sum;
  MinAggregate min;
  const Aggregate* f = shape.sum ? static_cast<const Aggregate*>(&sum) : &min;
  PbrjStats stats;
  for (auto _ : state) {
    std::vector<VectorPairStream> streams(shape.pulled.begin(),
                                          shape.pulled.end());
    std::vector<PairStream*> ptrs;
    for (auto& s : streams) ptrs.push_back(&s);
    Pbrj pbrj(shape.num_sets, shape.edges, f, 50);
    auto result = pbrj.Run(ptrs);
    benchmark::DoNotOptimize(result);
    stats = pbrj.stats();
  }
  int64_t pulls = 0;
  for (int64_t n : stats.pulls_per_edge) pulls += n;
  state.SetLabel(shape.name);
  state.counters["pulls"] = static_cast<double>(pulls);
  state.counters["formed"] = static_cast<double>(stats.tuples_generated);
  state.counters["scored"] = static_cast<double>(stats.candidates_scored);
}
BENCHMARK(BM_PbrjReplay)->DenseRange(0, 4)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace dhtjoin::bench
