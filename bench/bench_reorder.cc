/// \file bench/bench_reorder.cc
/// \brief Cache-conscious layout acceptance gates (graph/reorder.h).
///
/// Two claims are gated, both with byte-identity checks, on the
/// archipelago fixture (many mutually unreachable islands under a
/// seeded ARBITRARY node labelling — what loading a real edge list
/// gives you):
///
///  1. RESTRICTED SWEEP — a saturated-but-local d-step walk must be
///     >= 1.5x faster with the reachability-restricted dense sweep
///     than with the full all-rows sweep, bit-identically: rows
///     outside the walk's weak components contribute exactly zero and
///     are skipped.
///
///  2. DENSE GATHER x REORDER — the same restricted dense gather must
///     be a further >= 1.25x faster on the RCM-reordered layout than
///     on the input labelling, bit-identically. This is the structural
///     composition of the PR's two halves: under an arbitrary
///     labelling the walk's component is SCATTERED across the whole
///     CSR (every covered row is its own cache/TLB excursion); RCM
///     assigns each component a contiguous id range, so the restricted
///     gather streams a compact slab of rows and mass again.
///
/// The DBLP-like d=8 backward eval on the dense path is gated too (in
/// the full configuration): the single-lane dense gather — the engine
/// PJ-i deepens on, and the adaptive policy's dense fallback at W = 1 —
/// must be >= 1.25x faster under the better of the degree/RCM layouts.
/// Its 8-byte mass slots mean eight nodes share a cache line, so
/// degree-packing the hub rows that heavy-tailed gather traffic hits
/// (and RCM-packing neighbourhoods) converts scattered reads into
/// near-cache hits. The 8-lane batch gather is reported but NOT
/// speedup-gated: its mass rows are already exactly one cache line wide
/// (kLaneWidth * 8 bytes — the lanes are the locality device) and the
/// remaining traffic is the lean 16-byte arc stream, so layout moves it
/// far less by construction. (The generator emits authors hubs-first —
/// an accidentally near-optimal order real inputs don't have — so the
/// DBLP timings use the same arbitrary-relabelling baseline, with the
/// generator-native order reported for context.)
///
/// Usage: bench_reorder [authors] [--smoke]
/// No arguments = the committed acceptance configuration (60k authors,
/// 512-island archipelago; the dev-box snapshot lives at
/// bench/baselines/BENCH_reorder.json). `--smoke` (CI, laptops)
/// shrinks the archipelago and keeps every byte-identity check FATAL
/// but demotes the speedup gates to warnings — cache hierarchies vary
/// across runners, so CI instead gates the ratios recorded in the
/// committed baseline. Exits nonzero when an enforced gate fails.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "dht/backward_batch.h"
#include "graph/graph_builder.h"
#include "graph/reorder.h"
#include "util/rng.h"

using namespace dhtjoin;         // NOLINT
using namespace dhtjoin::bench;  // NOLINT

namespace {

constexpr double kDenseGatherGate = 1.25;
constexpr double kRestrictedSweepGate = 1.5;
constexpr double kSoaGatherGate = 1.03;

/// Many mutually unreachable random islands; a walk saturates its own
/// island while the full dense sweep still streams every row.
Graph Archipelago(int islands, NodeId island_nodes, int64_t island_edges,
                  uint64_t seed) {
  GraphBuilder b(islands * island_nodes, /*undirected=*/true);
  Rng rng(seed);
  for (int c = 0; c < islands; ++c) {
    const NodeId base = c * island_nodes;
    int64_t added = 0;
    int64_t guard = 0;
    while (added < island_edges && guard < 100 * island_edges) {
      ++guard;
      auto u = base + static_cast<NodeId>(
                          rng.Below(static_cast<uint64_t>(island_nodes)));
      auto v = base + static_cast<NodeId>(
                          rng.Below(static_cast<uint64_t>(island_nodes)));
      if (u == v) continue;
      if (b.AddEdge(u, v, 1.0 + static_cast<double>(rng.Below(4))).ok()) {
        ++added;
      }
    }
  }
  return Unwrap(b.Build(), "Archipelago");
}

struct GatherTiming {
  double ms_per_run = 0.0;
  std::vector<double> rows;
};

/// Times the single-lane dense gather over a d-step backward eval of
/// every target, one walk at a time on one thread, reading the
/// requested sources (the gated path). `soa` selects the gather's edge
/// stream (split arrays vs AoS).
GatherTiming TimeSingleLaneDenseGather(const Graph& g, const DhtParams& p,
                                       int d,
                                       const std::vector<ExtNodeId>& targets,
                                       const std::vector<ExtNodeId>& sources,
                                       int repeats, bool soa = true) {
  GatherTiming t;
  BackwardWalkerBatchT<1> walker(g, {.mode = PropagationMode::kDense,
                                     .num_threads = 1,
                                     .soa_gather = soa});
  t.rows = walker.Run(p, d, targets, sources);  // warm-up + result capture
  t.ms_per_run =
      TimeIt(repeats, [&] { walker.Run(p, d, targets, sources); }) * 1e3;
  return t;
}

/// Times the 8-lane batch gather (reported, not gated; see file
/// comment). `soa` streams the split (to[], prob[]) arrays instead of
/// the 16-byte AoS OutEdge stream — bit-identical by construction.
GatherTiming TimeBatchDenseGather(const Graph& g, const DhtParams& p, int d,
                                  const std::vector<ExtNodeId>& targets,
                                  const std::vector<ExtNodeId>& sources,
                                  int repeats, bool soa = true) {
  GatherTiming t;
  BackwardWalkerBatch batch(
      g, {.mode = PropagationMode::kDense, .soa_gather = soa});
  t.rows = batch.Run(p, d, targets, sources);  // warm-up + result capture
  t.ms_per_run =
      TimeIt(repeats, [&] { batch.Run(p, d, targets, sources); }) * 1e3;
  return t;
}

bool BitIdentical(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

/// Rebuilds `g` under a seeded random node labelling, as a plain
/// insertion-ordered Graph — the honest "input" baseline (real edge
/// lists carry arbitrary ids, not the generator's construction order).
Graph RelabelArbitrarily(const Graph& g, uint64_t seed) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  std::vector<NodeId> relabel(n);
  for (std::size_t i = 0; i < n; ++i) relabel[i] = static_cast<NodeId>(i);
  Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) {  // Fisher-Yates
    std::swap(relabel[i - 1], relabel[rng.Below(i)]);
  }
  GraphBuilder b(g.num_nodes(), /*undirected=*/false);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    auto row = g.OutEdges(IntNodeId(u));
    auto weights = g.OutWeights(IntNodeId(u));
    for (std::size_t i = 0; i < row.size(); ++i) {
      CheckOk(b.AddEdge(relabel[static_cast<std::size_t>(u)],
                        relabel[static_cast<std::size_t>(row[i].to)],
                        weights[i]),
              "relabel");
    }
  }
  return Unwrap(b.Build(), "relabelled build");
}

}  // namespace

int main(int argc, char** argv) {
  NodeId authors = 60000;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      smoke = true;
    } else {
      authors = static_cast<NodeId>(std::atoi(argv[i]));
    }
  }
  DhtParams p = DhtParams::Lambda(0.2);
  const int d = 8;

  // ---------------------------------------------- 1. dense gather
  auto ds = MakeDblp(authors);
  const Graph& native = ds.graph;

  Graph base = RelabelArbitrarily(native, 2024);

  Graph deg = Unwrap(ReorderGraph(base, ReorderKind::kDegree), "degree");
  Graph rcm = Unwrap(ReorderGraph(base, ReorderKind::kRcm), "rcm");
  std::printf("[setup] n=%d m=%lld, layouts: arbitrary (input), degree, "
              "rcm, generator-native\n",
              base.num_nodes(), static_cast<long long>(base.num_edges()));

  std::vector<ExtNodeId> single_targets, batch_targets, sources;
  for (std::size_t i = 0; i < 4; ++i) {
    single_targets.push_back(ExtNodeId(static_cast<NodeId>(
        (i * 131 + 17) % static_cast<std::size_t>(base.num_nodes()))));
  }
  for (std::size_t i = 0; i < 8; ++i) {
    batch_targets.push_back(ExtNodeId(static_cast<NodeId>(
        (i * 131 + 17) % static_cast<std::size_t>(base.num_nodes()))));
  }
  for (std::size_t i = 0; i < 100; ++i) {
    sources.push_back(ExtNodeId(static_cast<NodeId>(
        (i * 37 + 5) % static_cast<std::size_t>(base.num_nodes()))));
  }

  const int repeats = 5;
  GatherTiming unordered =
      TimeSingleLaneDenseGather(base, p, d, single_targets, sources, repeats);
  GatherTiming degree =
      TimeSingleLaneDenseGather(deg, p, d, single_targets, sources, repeats);
  GatherTiming rcmt =
      TimeSingleLaneDenseGather(rcm, p, d, single_targets, sources, repeats);
  // Context row: the generator's own hubs-first order (different node
  // labels, so only timed, not compared).
  GatherTiming nativet =
      TimeSingleLaneDenseGather(native, p, d, single_targets, sources, repeats);

  const bool gather_identical = BitIdentical(unordered.rows, degree.rows) &&
                                BitIdentical(unordered.rows, rcmt.rows);
  const double degree_speedup =
      unordered.ms_per_run / std::max(degree.ms_per_run, 1e-9);
  const double rcm_speedup =
      unordered.ms_per_run / std::max(rcmt.ms_per_run, 1e-9);
  const double best_speedup = std::max(degree_speedup, rcm_speedup);
  std::printf(
      "\ndense d=%d backward gather, single lane (%zu targets x %zu "
      "sources):\n"
      "  input %8.2f ms   degree %8.2f ms (%.2fx)   rcm %8.2f ms "
      "(%.2fx)   byte-identical=%s\n"
      "  (generator-native hubs-first order, for context: %8.2f ms)\n",
      d, single_targets.size(), sources.size(), unordered.ms_per_run,
      degree.ms_per_run, degree_speedup, rcmt.ms_per_run, rcm_speedup,
      gather_identical ? "yes" : "NO", nativet.ms_per_run);

  // 8-lane batch gather: reported for the trajectory, gated only on
  // byte-identity (its mass rows are already one line wide, so layout
  // moves it far less — see the file comment).
  GatherTiming bunordered =
      TimeBatchDenseGather(base, p, d, batch_targets, sources, 1);
  GatherTiming bdegree =
      TimeBatchDenseGather(deg, p, d, batch_targets, sources, 1);
  GatherTiming brcm =
      TimeBatchDenseGather(rcm, p, d, batch_targets, sources, 1);
  const bool batch_identical = BitIdentical(bunordered.rows, bdegree.rows) &&
                               BitIdentical(bunordered.rows, brcm.rows);
  const double batch_degree_speedup =
      bunordered.ms_per_run / std::max(bdegree.ms_per_run, 1e-9);
  const double batch_rcm_speedup =
      bunordered.ms_per_run / std::max(brcm.ms_per_run, 1e-9);
  std::printf(
      "dense d=%d backward gather, 8-lane batch (%zu targets x %zu "
      "sources, not gated):\n"
      "  input %8.2f ms   degree %8.2f ms (%.2fx)   rcm %8.2f ms "
      "(%.2fx)   byte-identical=%s\n",
      d, batch_targets.size(), sources.size(), bunordered.ms_per_run,
      bdegree.ms_per_run, batch_degree_speedup, brcm.ms_per_run,
      batch_rcm_speedup, batch_identical ? "yes" : "NO");

  // SoA gather stream (graph.h OutTargets/OutProbs): the dense gather
  // reads only (to, prob), so the split arrays cut the hot stream from
  // 16 padded bytes/edge to 12. The single-lane gather (one madd/edge,
  // stream-bound) is the gated beneficiary, and PJ-i's single-lane
  // engine turns SoA on; the 8-lane batch (eight madds/edge amortize
  // the stream) defaults to AoS — both A/B'd here, byte-identity fatal,
  // the committed single-lane ratio CI-gated.
  GatherTiming saos =
      TimeSingleLaneDenseGather(base, p, d, single_targets, sources, repeats,
                            /*soa=*/false);
  const bool soa_identical = BitIdentical(saos.rows, unordered.rows);
  const double soa_speedup =
      saos.ms_per_run / std::max(unordered.ms_per_run, 1e-9);
  GatherTiming baos =
      TimeBatchDenseGather(base, p, d, batch_targets, sources, 1,
                           /*soa=*/false);
  GatherTiming bsoa =
      TimeBatchDenseGather(base, p, d, batch_targets, sources, 1,
                           /*soa=*/true);
  const bool batch_soa_identical = BitIdentical(baos.rows, bsoa.rows);
  const double batch_soa_speedup =
      baos.ms_per_run / std::max(bsoa.ms_per_run, 1e-9);
  std::printf(
      "dense d=%d backward gather, AoS vs SoA edge stream (input "
      "layout):\n"
      "  W=1:    aos %8.2f ms   soa %8.2f ms (%.2fx, gated)   "
      "byte-identical=%s\n"
      "  batch:  aos %8.2f ms   soa %8.2f ms (%.2fx, reported)   "
      "byte-identical=%s\n",
      d, saos.ms_per_run, unordered.ms_per_run, soa_speedup,
      soa_identical ? "yes" : "NO", baos.ms_per_run, bsoa.ms_per_run,
      batch_soa_speedup, batch_soa_identical ? "yes" : "NO");

  // ------------------------- 2. restricted sweep + reordered layout
  // 512 islands of 2k nodes under an arbitrary labelling; the walk
  // lives on one island (~0.2% of the graph) but saturates it, so the
  // unrestricted engine keeps paying the full O(n + m) dense sweep,
  // and the restricted engine's island rows are scattered across the
  // whole CSR until RCM re-packs every component contiguously.
  const int kIslands = smoke ? 64 : 512;
  Graph arch_native = Archipelago(kIslands, /*island_nodes=*/2000,
                                  /*island_edges=*/8000, /*seed=*/23);
  Graph arch = RelabelArbitrarily(arch_native, 4096);
  Graph arch_rcm = Unwrap(ReorderGraph(arch, ReorderKind::kRcm), "arch rcm");
  std::printf("\n[setup] archipelago n=%d m=%lld (%d islands, arbitrary "
              "labels)\n",
              arch.num_nodes(), static_cast<long long>(arch.num_edges()),
              kIslands);
  arch.Reachability();      // build the lazy indexes outside the
  arch_rcm.Reachability();  // timed region

  // The sweep runs on the single-lane dense engine: its mass (saved
  // with the walk's state) and score row must match across the full
  // sweep, the restricted one and the RCM layout; the timed runs reuse
  // each engine's pooled workspace, so they time the sweep alone.
  const ExtNodeId seed_node(123);
  const int sweep_d = 16;
  auto sweep_mass = [&](const Graph& g, BackwardWalkerBatchT<1>& engine) {
    BackwardBatchStates states(1);
    const std::size_t slot = 0;
    double score = 0.0;
    engine.AdvanceChunked(p, sweep_d, {&seed_node, 1}, {&slot, 1},
                          {&seed_node, 1}, states,
                          [&](std::size_t, const double* row) {
                            score = row[0];
                          });
    // Mass by external id, then the score row's one cell.
    std::vector<double> out(static_cast<std::size_t>(g.num_nodes()), 0.0);
    const batch_core::SparseMass& mass = states.Saved(slot)->mass;
    for (std::size_t i = 0; i < mass.size(); ++i) {
      out[static_cast<std::size_t>(
          g.ToExternal(IntNodeId(mass.nodes[i])).value())] = mass.values[i];
    }
    out.push_back(score);
    return out;
  };
  BackwardWalkerBatchT<1>::Options sweep_options{
      .mode = PropagationMode::kDense, .num_threads = 1, .soa_gather = true};
  BackwardWalkerBatchT<1> restricted_engine(arch, sweep_options);
  BackwardWalkerBatchT<1> rcm_engine(arch_rcm, sweep_options);
  sweep_options.restrict_dense = false;
  BackwardWalkerBatchT<1> full_engine(arch, sweep_options);
  const std::vector<double> mass_full = sweep_mass(arch, full_engine);
  const bool sweep_identical =
      BitIdentical(mass_full, sweep_mass(arch, restricted_engine)) &&
      BitIdentical(mass_full, sweep_mass(arch_rcm, rcm_engine));
  auto time_sweep = [&](BackwardWalkerBatchT<1>& engine, int repeats) {
    return TimeIt(repeats, [&] {
             engine.Run(p, sweep_d, {&seed_node, 1}, {&seed_node, 1});
           }) *
           1e3;
  };
  const double full_ms = time_sweep(full_engine, 5);
  const double restricted_ms = time_sweep(restricted_engine, 200);
  const double rcm_restricted_ms = time_sweep(rcm_engine, 200);
  const double sweep_speedup = full_ms / std::max(restricted_ms, 1e-9);
  const double reorder_gather_speedup =
      restricted_ms / std::max(rcm_restricted_ms, 1e-9);
  std::printf(
      "saturated-but-local walk (d=%d, island of 2k nodes):\n"
      "  full sweep %10.3f ms\n"
      "  restricted %10.3f ms (%.2fx over full)\n"
      "  restricted on RCM layout %7.3f ms (%.2fx over scattered input "
      "layout)\n"
      "  byte-identical=%s\n",
      sweep_d, full_ms, restricted_ms, sweep_speedup, rcm_restricted_ms,
      reorder_gather_speedup, sweep_identical ? "yes" : "NO");

  // ---------------------------------------------------------- gates
  JsonObject doc;
  doc.Set("bench", std::string("reorder"))
      .Set("dataset", std::string("dblp_like"))
      .Set("num_nodes", static_cast<int64_t>(base.num_nodes()))
      .Set("num_edges", base.num_edges())
      .Set("d", d)
      .Set("dblp_w1_gather_input_ms", unordered.ms_per_run)
      .Set("dblp_w1_gather_degree_ms", degree.ms_per_run)
      .Set("dblp_w1_gather_rcm_ms", rcmt.ms_per_run)
      .Set("dblp_w1_gather_native_ms", nativet.ms_per_run)
      .Set("dblp_w1_gather_degree_speedup", degree_speedup)
      .Set("dblp_w1_gather_rcm_speedup", rcm_speedup)
      .Set("dblp_w1_gather_best_speedup", best_speedup)
      .Set("dblp_w1_gather_byte_identical", gather_identical ? 1 : 0)
      .Set("dblp_batch_gather_input_ms", bunordered.ms_per_run)
      .Set("dblp_batch_gather_degree_ms", bdegree.ms_per_run)
      .Set("dblp_batch_gather_rcm_ms", brcm.ms_per_run)
      .Set("dblp_batch_gather_degree_speedup", batch_degree_speedup)
      .Set("dblp_batch_gather_rcm_speedup", batch_rcm_speedup)
      .Set("dblp_batch_gather_byte_identical", batch_identical ? 1 : 0)
      .Set("dblp_w1_gather_aos_ms", saos.ms_per_run)
      .Set("soa_w1_gather_speedup", soa_speedup)
      .Set("soa_w1_gather_byte_identical", soa_identical ? 1 : 0)
      .Set("dblp_batch_gather_aos_ms", baos.ms_per_run)
      .Set("dblp_batch_gather_soa_ms", bsoa.ms_per_run)
      .Set("soa_batch_gather_speedup", batch_soa_speedup)
      .Set("soa_batch_gather_byte_identical", batch_soa_identical ? 1 : 0)
      .Set("gate_soa_w1_gather", kSoaGatherGate)
      .Set("archipelago_islands", kIslands)
      .Set("w1_restricted_sweep_full_ms", full_ms)
      .Set("w1_restricted_sweep_restricted_ms", restricted_ms)
      .Set("w1_restricted_sweep_rcm_ms", rcm_restricted_ms)
      .Set("w1_restricted_sweep_speedup", sweep_speedup)
      .Set("w1_rcm_restricted_gather_speedup", reorder_gather_speedup)
      .Set("w1_restricted_sweep_byte_identical", sweep_identical ? 1 : 0)
      .Set("gate_dense_gather_reorder", kDenseGatherGate)
      .Set("gate_restricted_sweep", kRestrictedSweepGate);
  WriteJsonFile("BENCH_reorder.json", doc.ToString());
  std::printf("\nwrote BENCH_reorder.json (restricted-sweep %.2fx, "
              "reorder-on-gather %.2fx)\n",
              sweep_speedup, reorder_gather_speedup);

  bool ok = true;
  if (!gather_identical || !sweep_identical || !batch_identical ||
      !soa_identical || !batch_soa_identical) {
    std::fprintf(stderr, "FAIL: reordered/restricted/SoA results are not "
                         "byte-identical\n");
    ok = false;  // fatal in every mode
  }
  if (soa_speedup < kSoaGatherGate) {
    std::fprintf(stderr,
                 "%s: W=1 SoA-gather speedup %.2fx below the %.2fx gate\n",
                 smoke ? "WARN (smoke)" : "FAIL", soa_speedup,
                 kSoaGatherGate);
    ok = ok && smoke;
  }
  if (best_speedup < kDenseGatherGate) {
    std::fprintf(
        stderr,
        "%s: DBLP W=1 dense-gather reorder speedup %.2fx below the "
        "%.2fx gate\n",
        smoke ? "WARN (smoke)" : "FAIL", best_speedup, kDenseGatherGate);
    ok = ok && smoke;
  }
  if (reorder_gather_speedup < kDenseGatherGate) {
    std::fprintf(
        stderr,
        "%s: reorder-on-restricted-gather speedup %.2fx below the %.2fx "
        "gate\n",
        smoke ? "WARN (smoke)" : "FAIL", reorder_gather_speedup,
        kDenseGatherGate);
    ok = ok && smoke;
  }
  if (sweep_speedup < kRestrictedSweepGate) {
    std::fprintf(stderr,
                 "%s: restricted-sweep speedup %.2fx below the %.2fx gate\n",
                 smoke ? "WARN (smoke)" : "FAIL", sweep_speedup,
                 kRestrictedSweepGate);
    ok = ok && smoke;
  }
  return ok ? 0 : 1;
}
