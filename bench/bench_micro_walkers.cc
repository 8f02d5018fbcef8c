/// \file bench/bench_micro_walkers.cc
/// \brief Micro timings of the walk engine (dht/batch_core.h) in the
/// configurations the repo runs:
///   dense    — single-lane walks forced to the dense gather every step,
///   adaptive — single-lane frontier-adaptive sparse/dense walks (the
///              engine PJ-i deepens on),
///   batched  — BackwardWalkerBatch / ForwardWalkerBatch (kLaneWidth
///              walkers per edge pass, blocks fanned across the pool).
/// The d-step backward evaluation on the DBLP-like dataset is the
/// paper-critical inner loop (B-BJ/B-IDJ bottom out in it); the forward
/// pair sweep is the slow side of Fig. 9(a) that the forward batch
/// lifts. Results are printed and also written to BENCH_walkers.json
/// for the perf trajectory (a committed dev-box baseline lives at
/// bench/baselines/BENCH_walkers.json). Scores must agree BIT for bit
/// across modes and lane widths, and the resumable deepening paths of
/// B-IDJ / F-IDJ are checked byte-identical to their restart schedules
/// with strictly fewer walk_steps — a fast-but-wrong engine fails
/// loudly here.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "dht/backward_batch.h"
#include "dht/bounds.h"
#include "dht/forward_batch.h"
#include "graph/reorder.h"
#include "join2/b_idj.h"
#include "join2/f_idj.h"

using namespace dhtjoin;         // NOLINT
using namespace dhtjoin::bench;  // NOLINT

namespace {

/// Targets/sources used for the backward comparison; big enough to
/// amortize per-walk noise, small enough that the dense engine finishes.
constexpr std::size_t kNumTargets = 64;
constexpr std::size_t kNumSources = 200;

/// True when both score vectors hold the same bits.
bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](double x, double y) {
           return std::bit_cast<uint64_t>(x) == std::bit_cast<uint64_t>(y);
         });
}

struct BackwardResult {
  double dense_sec_per_target = 0.0;
  double adaptive_sec_per_target = 0.0;
  double batched_sec_per_target = 0.0;
  bool identical = false;  // all three score matrices, bit for bit
};

BackwardResult RunBackwardComparison(const Graph& g, const DhtParams& p,
                                     int d,
                                     const std::vector<ExtNodeId>& targets,
                                     const std::vector<ExtNodeId>& sources,
                                     int repeats) {
  BackwardResult r;
  // One single-lane walk per target on one thread, configured as PJ-i's
  // deepening engine (SoA gather stream): the dense engine, then the
  // frontier-adaptive one. The engines (and their thread pools) are
  // fixtures, mirroring how joins reuse one evaluator across Run()
  // calls — thread spawn must not be charged per repeat.
  std::vector<double> dense_scores, adaptive_scores, batched_scores;
  BackwardWalkerBatchT<1> dense(g, {.mode = PropagationMode::kDense,
                                    .num_threads = 1,
                                    .soa_gather = true});
  r.dense_sec_per_target = TimeIt(repeats, [&] {
    dense_scores = dense.Run(p, d, targets, sources);
  }) / static_cast<double>(targets.size());
  BackwardWalkerBatchT<1> adaptive(g, {.mode = PropagationMode::kAdaptive,
                                       .num_threads = 1,
                                       .soa_gather = true});
  r.adaptive_sec_per_target = TimeIt(repeats, [&] {
    adaptive_scores = adaptive.Run(p, d, targets, sources);
  }) / static_cast<double>(targets.size());

  // Sparse + batched: the B-BJ/B-IDJ configuration.
  BackwardWalkerBatch batch(g);
  r.batched_sec_per_target = TimeIt(repeats, [&] {
    batched_scores = batch.Run(p, d, targets, sources);
  }) / static_cast<double>(targets.size());

  r.identical = SameBits(dense_scores, adaptive_scores) &&
                SameBits(dense_scores, batched_scores);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  // Optional argv[1]: physical layout to run the whole suite under
  // (none|degree|rcm). CI runs the smoke with reordering on AND off;
  // every agreement/parity gate below must hold in every layout
  // (results are bit-identical across layouts by DESIGN.md §7).
  ReorderKind reorder = ReorderKind::kNone;
  if (argc > 1) {
    auto parsed = ParseReorderKind(argv[1]);
    CheckOk(parsed.status(), "parse reorder kind");
    reorder = *parsed;
  }
  auto ds = MakeDblp();
  Graph reordered;
  if (reorder != ReorderKind::kNone) {
    reordered = Unwrap(ReorderGraph(ds.graph, reorder), "ReorderGraph");
  }
  const Graph& g = reorder == ReorderKind::kNone ? ds.graph : reordered;
  DhtParams p = DhtParams::Lambda(0.2);
  std::printf("[setup] n=%d m=%lld layout=%s\n", g.num_nodes(),
              static_cast<long long>(g.num_edges()),
              ReorderKindName(reorder));

  // Spread targets across the id space; sources likewise.
  std::vector<ExtNodeId> targets, sources;
  for (std::size_t i = 0; i < kNumTargets; ++i) {
    targets.push_back(ExtNodeId(static_cast<NodeId>(
        (i * 131 + 17) % static_cast<std::size_t>(g.num_nodes()))));
  }
  for (std::size_t i = 0; i < kNumSources; ++i) {
    sources.push_back(ExtNodeId(static_cast<NodeId>(
        (i * 37 + 5) % static_cast<std::size_t>(g.num_nodes()))));
  }

  std::vector<JsonObject> rows;
  double headline_speedup = 0.0;
  std::printf("\nbackward d-step evaluation, per target (DBLP-like):\n");
  std::printf("%4s %14s %14s %14s %9s %9s %10s\n", "d", "dense(ms)",
              "adaptive(ms)", "batched(ms)", "adp x", "batch x", "identical");
  for (int d : {2, 8, 16}) {
    const int repeats = d <= 8 ? 3 : 2;
    BackwardResult r =
        RunBackwardComparison(g, p, d, targets, sources, repeats);
    double adaptive_speedup = r.dense_sec_per_target /
                              std::max(r.adaptive_sec_per_target, 1e-12);
    double batched_speedup = r.dense_sec_per_target /
                             std::max(r.batched_sec_per_target, 1e-12);
    std::printf("%4d %14.3f %14.3f %14.3f %8.1fx %8.1fx %10s\n", d,
                r.dense_sec_per_target * 1e3, r.adaptive_sec_per_target * 1e3,
                r.batched_sec_per_target * 1e3, adaptive_speedup,
                batched_speedup, r.identical ? "yes" : "NO");
    if (!r.identical) {
      std::fprintf(stderr,
                   "FAIL: backward modes/widths are not bit-identical at "
                   "d=%d\n",
                   d);
      return 1;
    }
    if (d == 8) {  // the paper's default depth is the headline number
      headline_speedup = batched_speedup;
    }
    rows.push_back(JsonObject()
                       .Set("d", d)
                       .Set("dense_ms_per_target", r.dense_sec_per_target * 1e3)
                       .Set("adaptive_ms_per_target",
                            r.adaptive_sec_per_target * 1e3)
                       .Set("batched_ms_per_target",
                            r.batched_sec_per_target * 1e3)
                       .Set("adaptive_speedup", adaptive_speedup)
                       .Set("batched_speedup", batched_speedup));
  }

  // Forward single-pair micro numbers (the F-BJ inner loop).
  std::printf("\nforward pair computation (d=8):\n");
  ExtNodeId u = ds.areas[0][0];
  ExtNodeId v = ds.areas[1][0];
  double fwd_dense = 0.0, fwd_adaptive = 0.0;
  {
    ForwardWalkerBatchT<1> dense(
        g, {.mode = PropagationMode::kDense, .num_threads = 1});
    ForwardWalkerBatchT<1> adaptive(
        g, {.mode = PropagationMode::kAdaptive, .num_threads = 1});
    std::vector<double> dense_score, adaptive_score;
    fwd_dense = TimeIt(3, [&] {
      dense_score = dense.Run(p, 8, {&u, 1}, {&v, 1});
    });
    fwd_adaptive = TimeIt(3, [&] {
      adaptive_score = adaptive.Run(p, 8, {&u, 1}, {&v, 1});
    });
    if (!SameBits(dense_score, adaptive_score)) {
      std::fprintf(stderr, "FAIL: forward modes are not bit-identical\n");
      return 1;
    }
  }
  std::printf("  dense %.3f ms, adaptive %.3f ms (%.1fx)\n", fwd_dense * 1e3,
              fwd_adaptive * 1e3, fwd_dense / std::max(fwd_adaptive, 1e-12));

  // Forward batch vs a single-lane pair loop (the F-BJ/F-IDJ inner
  // sweep): the same per-pair walks, one edge pass per kLaneWidth lanes.
  constexpr std::size_t kFwdSources = 24;
  constexpr std::size_t kFwdTargets = 12;
  std::vector<ExtNodeId> fwd_sources, fwd_targets;
  for (std::size_t i = 0; i < kFwdSources; ++i) {
    fwd_sources.push_back(ExtNodeId(static_cast<NodeId>(
        (i * 211 + 3) % static_cast<std::size_t>(g.num_nodes()))));
  }
  for (std::size_t i = 0; i < kFwdTargets; ++i) {
    fwd_targets.push_back(ExtNodeId(static_cast<NodeId>(
        (i * 97 + 41) % static_cast<std::size_t>(g.num_nodes()))));
  }
  const double num_pairs =
      static_cast<double>(kFwdSources) * static_cast<double>(kFwdTargets);
  std::vector<double> fwd_single_scores;
  ForwardWalkerBatchT<1> fwd_single(g, {.num_threads = 1});
  double fwd_single_sec = TimeIt(2, [&] {
    fwd_single_scores = fwd_single.Run(p, 8, fwd_sources, fwd_targets);
  }) / num_pairs;
  std::vector<double> fwd_batch_scores;
  ForwardWalkerBatch fwd_batch(g);
  double fwd_batch_sec = TimeIt(2, [&] {
    fwd_batch_scores = fwd_batch.Run(p, 8, fwd_sources, fwd_targets);
  }) / num_pairs;
  const bool fwd_identical = SameBits(fwd_single_scores, fwd_batch_scores);
  double fwd_batch_speedup = fwd_single_sec / std::max(fwd_batch_sec, 1e-12);
  std::printf("\nforward batch, %zux%zu pairs (d=8): single-lane %.3f "
              "ms/pair, batched %.3f ms/pair (%.1fx), bit-identical=%s\n",
              kFwdSources, kFwdTargets, fwd_single_sec * 1e3,
              fwd_batch_sec * 1e3, fwd_batch_speedup,
              fwd_identical ? "yes" : "NO");
  if (!fwd_identical) {
    std::fprintf(stderr,
                 "FAIL: forward lane widths are not bit-identical\n");
    return 1;
  }

  // Resumable deepening acceptance: B-IDJ and F-IDJ must produce
  // byte-identical top-k with strictly fewer walk_steps than the
  // restart schedule, on this DBLP-like graph.
  NodeSet rp = ds.areas[0].TopByDegree(g, 100);
  NodeSet rq = ds.areas[1].TopByDegree(g, 100);
  BIdjJoin bidj_resume(BIdjJoin::Options{.resume = true});
  BIdjJoin bidj_restart(BIdjJoin::Options{.resume = false});
  auto bidj_a = bidj_resume.Run(g, p, 8, rp, rq, 50);
  auto bidj_b = bidj_restart.Run(g, p, 8, rp, rq, 50);
  CheckOk(bidj_a.status(), "B-IDJ resume");
  CheckOk(bidj_b.status(), "B-IDJ restart");
  bool bidj_identical = *bidj_a == *bidj_b;
  int64_t bidj_resume_steps = bidj_resume.stats().walk_steps;
  int64_t bidj_restart_steps = bidj_restart.stats().walk_steps;
  std::printf("\nB-IDJ-Y deepening (|P|=|Q|=100, k=50, d=8): resume %lld "
              "steps vs restart %lld steps (%.2fx fewer), byte-identical=%s\n",
              static_cast<long long>(bidj_resume_steps),
              static_cast<long long>(bidj_restart_steps),
              static_cast<double>(bidj_restart_steps) /
                  std::max<int64_t>(bidj_resume_steps, 1),
              bidj_identical ? "yes" : "NO");
  if (!bidj_identical || bidj_resume_steps >= bidj_restart_steps) {
    std::fprintf(stderr, "FAIL: B-IDJ resume parity/steps check\n");
    return 1;
  }

  NodeSet fp = ds.areas[0].TopByDegree(g, 24);
  NodeSet fq = ds.areas[1].TopByDegree(g, 24);
  FIdjJoin fidj_resume(FIdjJoin::Options{.resume = true});
  FIdjJoin fidj_restart(FIdjJoin::Options{.resume = false});
  auto fidj_a = fidj_resume.Run(g, p, 8, fp, fq, 20);
  auto fidj_b = fidj_restart.Run(g, p, 8, fp, fq, 20);
  CheckOk(fidj_a.status(), "F-IDJ resume");
  CheckOk(fidj_b.status(), "F-IDJ restart");
  bool fidj_identical = *fidj_a == *fidj_b;
  int64_t fidj_resume_steps = fidj_resume.stats().walk_steps;
  int64_t fidj_restart_steps = fidj_restart.stats().walk_steps;
  std::printf("F-IDJ deepening (|P|=|Q|=24, k=20, d=8): resume %lld steps "
              "vs restart %lld steps (%.2fx fewer), byte-identical=%s\n",
              static_cast<long long>(fidj_resume_steps),
              static_cast<long long>(fidj_restart_steps),
              static_cast<double>(fidj_restart_steps) /
                  std::max<int64_t>(fidj_resume_steps, 1),
              fidj_identical ? "yes" : "NO");
  if (!fidj_identical || fidj_resume_steps >= fidj_restart_steps) {
    std::fprintf(stderr, "FAIL: F-IDJ resume parity/steps check\n");
    return 1;
  }

  // Y-bound sweep regression canary (B-IDJ-Y and the incremental join
  // still pay this dense d-step sweep up front).
  NodeSet yp = ds.areas[0].TopByDegree(g, 100);
  NodeSet yq = ds.areas[1].TopByDegree(g, 100);
  double ybound_sec = TimeIt(3, [&] {
    YBoundTable table(g, p, 8, yp, yq);
    if (table.Bound(0, 0) < 0.0) std::abort();  // keep the table alive
  });
  std::printf("\nY-bound table construction (d=8, |P|=|Q|=100): %.3f ms\n",
              ybound_sec * 1e3);

  JsonObject doc;
  doc.Set("bench", std::string("micro_walkers"))
      .Set("dataset", std::string("dblp_like"))
      .Set("layout", std::string(ReorderKindName(reorder)))
      .Set("num_nodes", static_cast<int64_t>(g.num_nodes()))
      .Set("num_edges", g.num_edges())
      .Set("num_targets", static_cast<int64_t>(targets.size()))
      .Set("num_sources", static_cast<int64_t>(sources.size()))
      .Set("lane_width", BackwardWalkerBatch::kLaneWidth)
      .SetRaw("backward", JsonArray(rows))
      .Set("forward_pair_dense_ms", fwd_dense * 1e3)
      .Set("forward_pair_adaptive_ms", fwd_adaptive * 1e3)
      .Set("forward_single_lane_ms_per_pair", fwd_single_sec * 1e3)
      .Set("forward_batched_ms_per_pair", fwd_batch_sec * 1e3)
      .Set("forward_batched_speedup", fwd_batch_speedup)
      .Set("bidj_resume_walk_steps", bidj_resume_steps)
      .Set("bidj_restart_walk_steps", bidj_restart_steps)
      .Set("fidj_resume_walk_steps", fidj_resume_steps)
      .Set("fidj_restart_walk_steps", fidj_restart_steps)
      .Set("ybound_table_ms", ybound_sec * 1e3)
      .Set("headline_sparse_batched_speedup_d8", headline_speedup)
      .Set("bit_identical", 1);
  const std::string json_name =
      reorder == ReorderKind::kNone
          ? "BENCH_walkers.json"
          : std::string("BENCH_walkers_") + ReorderKindName(reorder) +
                ".json";
  WriteJsonFile(json_name, doc.ToString());
  std::printf("\nwrote %s (headline d=8 sparse+batched speedup: %.1fx)\n",
              json_name.c_str(), headline_speedup);
  return 0;
}
