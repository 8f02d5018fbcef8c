/// \file bench/bench_robustness.cc
/// \brief Chaos benchmark for the query-lifecycle robustness layer:
/// a Zipfian stream where every query draws a deterministic chaos plan
/// (tight deadline, effort budget, mid-run cancel, injected commit
/// faults — util/fault_injection.h), followed by an overload burst of
/// concurrent sessions against a capped admission gate.
///
/// Acceptance gates (exit nonzero on violation):
///  * ZERO CRASHES: every query resolves with OK, Cancelled, or
///    ResourceExhausted — nothing terminates, nothing wedges the pool;
///  * NO CORRUPTION: every query that COMPLETED (not degraded) returns
///    the template's reference answer byte-for-byte, whatever faults
///    were injected (commit faults restart walks bit-identically);
///  * VALID ε-BOUNDS: for 100% of degraded answers, every reported
///    score s satisfies s <= h_d <= s + eps_bound against an exact
///    d-step walk (DESIGN.md §9);
///  * BOUNDED OVERSHOOT: deadline-degraded queries in the steady
///    (synchronous) phase return within kOvershootGateMs of their
///    deadline — the cut happens one block group past expiry, never a
///    full run later (the burst phase's overshoot includes queue wait
///    and is reported, not gated).
///
/// `--smoke` (CI, laptops) shrinks the graph and the stream and
/// downgrades the wall-clock-dependent overshoot gate to a warning;
/// the full run writes the committed dev-box baseline
/// (bench/baselines/BENCH_robustness.json).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "dht/backward_batch.h"
#include "join2/b_idj.h"
#include "serve/session.h"
#include "serve/workload.h"
#include "util/deadline.h"
#include "util/fault_injection.h"
#include "util/rng.h"

using namespace dhtjoin;         // NOLINT
using namespace dhtjoin::bench;  // NOLINT

namespace {

// Steady-phase overshoot gate: a deadline-degraded query must return
// within this many ms past its deadline. One block group is sub-ms on
// the dev box; the slack absorbs scheduler noise, not extra rounds.
constexpr double kOvershootGateMs = 150.0;

/// What one query draws from the chaos plan. Buckets are disjoint so
/// counters are attributable.
struct ChaosPlan {
  int64_t deadline_ms = 0;       // 0 = unbounded
  int64_t effort_blocks = 0;     // 0 = unbounded
  int64_t cancel_at_check = 0;   // 0 = no cancel
  double commit_fail_rate = 0.0; // 0 = no commit faults
};

/// Deterministic per-query plan: same seed + index → same chaos on
/// every machine and run.
ChaosPlan DrawPlan(uint64_t seed, std::size_t query_index) {
  Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * (query_index + 1)));
  ChaosPlan plan;
  const uint64_t bucket = rng.Below(100);
  if (bucket < 50) {
    // 50%: clean unbounded query.
  } else if (bucket < 70) {
    // 20%: tight deadline, 2..9 ms — most of these degrade cold and
    // complete warm.
    plan.deadline_ms = 2 + static_cast<int64_t>(rng.Below(8));
  } else if (bucket < 80) {
    // 10%: clock-free effort budget, 4..35 block groups.
    plan.effort_blocks = 4 + static_cast<int64_t>(rng.Below(32));
  } else if (bucket < 85) {
    // 5%: hard cancel at an early block-group check.
    plan.cancel_at_check = 1 + static_cast<int64_t>(rng.Below(16));
  } else {
    // 15%: simulated state-pool allocation failure.
    plan.commit_fail_rate = 0.2;
  }
  return plan;
}

struct Tally {
  int64_t ok_full = 0;
  int64_t ok_degraded = 0;
  int64_t cancelled = 0;
  int64_t shed = 0;
  int64_t unexpected = 0;       // gate: must stay 0
  int64_t corrupted = 0;        // gate: must stay 0
  int64_t eps_pairs = 0;
  int64_t eps_violations = 0;   // gate: must stay 0
  double max_overshoot_ms = 0.0;
  int64_t deadline_degrades_timed = 0;
  int64_t commit_faults = 0;
};

/// A degraded pair queued for exact verification, grouped by target so
/// each distinct q pays one exact d-step walk.
struct EpsCheck {
  NodeId p;
  double score;
  double eps;
};

void VerifyEps(const Graph& g, const DhtParams& params, int d,
               std::map<NodeId, std::vector<EpsCheck>>& by_target,
               Tally& tally) {
  BackwardWalkerBatchT<1> walker(g);
  for (auto& [q, checks] : by_target) {
    const ExtNodeId target(q);
    std::vector<ExtNodeId> sources;
    for (const EpsCheck& c : checks) sources.push_back(ExtNodeId(c.p));
    const std::vector<double> exact_row =
        walker.Run(params, d, {&target, 1}, sources);
    for (std::size_t i = 0; i < checks.size(); ++i) {
      const EpsCheck& c = checks[i];
      ++tally.eps_pairs;
      const double exact = exact_row[i];
      if (!(c.score <= exact + 1e-12 && exact <= c.score + c.eps + 1e-12)) {
        ++tally.eps_violations;
        std::fprintf(stderr,
                     "EPS VIOLATION q=%d p=%d score=%.17g exact=%.17g "
                     "eps=%.17g\n",
                     q, c.p, c.score, exact, c.eps);
      }
    }
  }
}

bool SameAnswer(const std::vector<ScoredPair>& a,
                const std::vector<ScoredPair>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].p != b[i].p || a[i].q != b[i].q || a[i].score != b[i].score) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }

  auto ds = smoke ? MakeDblp(4000) : MakeDblp();
  const Graph& g = ds.graph;
  PaperDefaults defaults;
  const DhtParams& p = defaults.dht;
  const int d = defaults.d;
  const uint64_t kChaosSeed = 0xC0FFEEULL;

  serve::WorkloadOptions wopts;
  wopts.num_requests = smoke ? 300 : 10000;
  wopts.num_templates = smoke ? 16 : 64;
  wopts.zipf_s = 1.0;
  wopts.set_size = 100;
  wopts.k = defaults.k;
  wopts.seed = 29;
  auto workload =
      Unwrap(serve::GenerateZipfianTwoWayWorkload(g, ds.areas, wopts),
             "GenerateZipfianTwoWayWorkload");
  std::printf("[setup] chaos stream: %zu requests over %zu templates "
              "(zipf %.1f, |P|=|Q|=%zu, k=%zu, d=%d)\n",
              workload.requests.size(), workload.num_templates, wopts.zipf_s,
              wopts.set_size, wopts.k, d);

  // Reference answer per template (fresh B-IDJ): the no-corruption
  // oracle for every COMPLETED chaos query.
  std::vector<std::vector<ScoredPair>> reference(workload.num_templates);
  std::vector<char> have_reference(workload.num_templates, 0);
  for (const serve::TwoWayRequest& req : workload.requests) {
    if (have_reference[req.template_id]) continue;
    BIdjJoin join;
    reference[req.template_id] =
        Unwrap(join.Run(g, p, d, req.P, req.Q, req.k), "BIdjJoin reference");
    have_reference[req.template_id] = 1;
  }

  serve::DhtJoinService::Options sopts;
  sopts.admission.max_in_flight = 32;  // burst-phase gate; sync bypasses
  // Explicit worker count: on a 1-core machine the default pool runs
  // inline on the submitting thread, which would serialize the burst
  // and let every query finish before the next submit — no overload,
  // nothing to shed. Real workers make the burst an actual burst.
  sopts.num_threads = 4;
  serve::DhtJoinService service(g, p, d, sopts);

  Tally tally;
  std::map<NodeId, std::vector<EpsCheck>> eps_checks;
  auto account = [&](const Result<std::vector<ScoredPair>>& result,
                     const serve::QueryStats& qs) {
    switch (result.status().code()) {
      case StatusCode::kOk:
        break;
      case StatusCode::kCancelled:
        ++tally.cancelled;
        return;
      case StatusCode::kResourceExhausted:
        ++tally.shed;
        return;
      default:
        ++tally.unexpected;
        std::fprintf(stderr, "UNEXPECTED STATUS: %s\n",
                     result.status().ToString().c_str());
        return;
    }
    if (qs.join.partial.degraded) {
      ++tally.ok_degraded;
      for (const ScoredPair& sp : *result) {
        eps_checks[sp.q].push_back(
            EpsCheck{sp.p, sp.score, qs.join.partial.eps_bound});
      }
    } else {
      ++tally.ok_full;
    }
  };

  // ---------------------------------------------- steady (sync) phase
  WallTimer stream_timer;
  std::size_t burst_begin = workload.requests.size() / 2;
  std::size_t burst_end =
      std::min(workload.requests.size(),
               burst_begin + (smoke ? std::size_t{64} : std::size_t{512}));
  for (std::size_t i = 0; i < workload.requests.size(); ++i) {
    if (i >= burst_begin && i < burst_end) continue;  // burst runs below
    const serve::TwoWayRequest& req = workload.requests[i];
    ChaosPlan plan = DrawPlan(kChaosSeed, i);
    ExecContext exec;
    if (plan.deadline_ms > 0) {
      exec.deadline = Deadline::AfterMillis(plan.deadline_ms);
    }
    exec.effort_budget_blocks = plan.effort_blocks;
    FaultInjector injector(FaultPlan{.cancel_at_check = plan.cancel_at_check,
                                     .commit_fail_rate =
                                         plan.commit_fail_rate,
                                     .seed = kChaosSeed ^ i});
    injector.Arm(exec);
    serve::QueryStats qs;
    WallTimer timer;
    auto result = service.TwoWay(req.P, req.Q, req.k, &qs, &exec);
    const double elapsed_ms = timer.Seconds() * 1e3;
    tally.commit_faults += injector.commit_faults_fired();
    if (result.ok() && qs.join.partial.degraded &&
        exec.stop_code() == StatusCode::kDeadlineExceeded &&
        plan.deadline_ms > 0) {
      ++tally.deadline_degrades_timed;
      tally.max_overshoot_ms =
          std::max(tally.max_overshoot_ms,
                   elapsed_ms - static_cast<double>(plan.deadline_ms));
    }
    if (result.ok() && !qs.join.partial.degraded &&
        !SameAnswer(*result, reference[req.template_id])) {
      ++tally.corrupted;
      std::fprintf(stderr, "CORRUPTION at request %zu\n", i);
    }
    account(result, qs);
  }

  // ------------------------------------------- overload burst phase
  // The burst slice goes through SubmitTwoWay all at once: admission
  // (max_in_flight) sheds the overflow, queued queries with tight
  // deadlines expire and degrade at dequeue, the rest complete.
  {
    std::vector<std::future<Result<std::vector<ScoredPair>>>> futures;
    std::vector<std::shared_ptr<ExecContext>> execs;
    std::vector<std::unique_ptr<FaultInjector>> injectors;
    std::vector<std::unique_ptr<serve::QueryStats>> stats;
    for (std::size_t i = burst_begin; i < burst_end; ++i) {
      const serve::TwoWayRequest& req = workload.requests[i];
      ChaosPlan plan = DrawPlan(kChaosSeed, i);
      serve::QueryOptions qopts;
      qopts.exec = std::make_shared<ExecContext>();
      if (plan.deadline_ms > 0) {
        qopts.exec->deadline = Deadline::AfterMillis(plan.deadline_ms);
      }
      qopts.exec->effort_budget_blocks = plan.effort_blocks;
      injectors.push_back(std::make_unique<FaultInjector>(
          FaultPlan{.cancel_at_check = plan.cancel_at_check,
                    .commit_fail_rate = plan.commit_fail_rate,
                    .seed = kChaosSeed ^ i}));
      injectors.back()->Arm(*qopts.exec);
      stats.push_back(std::make_unique<serve::QueryStats>());
      qopts.stats = stats.back().get();
      execs.push_back(qopts.exec);
      futures.push_back(
          service.SubmitTwoWay(req.P, req.Q, req.k, std::move(qopts)));
    }
    for (std::size_t j = 0; j < futures.size(); ++j) {
      auto result = futures[j].get();
      const serve::TwoWayRequest& req = workload.requests[burst_begin + j];
      tally.commit_faults += injectors[j]->commit_faults_fired();
      if (result.ok() && !stats[j]->join.partial.degraded &&
          !SameAnswer(*result, reference[req.template_id])) {
        ++tally.corrupted;
        std::fprintf(stderr, "CORRUPTION at burst request %zu\n",
                     burst_begin + j);
      }
      account(result, *stats[j]);
    }
  }
  const double stream_seconds = stream_timer.Seconds();

  // ------------------------------------------------- eps validation
  VerifyEps(g, p, d, eps_checks, tally);

  serve::ServiceStats ss = service.service_stats();
  const int64_t total = static_cast<int64_t>(workload.requests.size());
  std::printf("\nchaos stream (%s): %lld queries in %.2f s\n",
              smoke ? "smoke" : "full", static_cast<long long>(total),
              stream_seconds);
  std::printf("  completed full:    %lld\n",
              static_cast<long long>(tally.ok_full));
  std::printf("  degraded (eps ok): %lld  (deadline %lld, effort %lld)\n",
              static_cast<long long>(tally.ok_degraded),
              static_cast<long long>(ss.deadline_exceeded),
              static_cast<long long>(ss.effort_exhausted));
  std::printf("  cancelled:         %lld\n",
              static_cast<long long>(tally.cancelled));
  std::printf("  shed (admission):  %lld  (capacity %lld, expired in "
              "queue %lld)\n",
              static_cast<long long>(tally.shed),
              static_cast<long long>(ss.admission.shed_capacity),
              static_cast<long long>(ss.admission.shed_expired));
  std::printf("  commit faults injected: %lld (results unchanged)\n",
              static_cast<long long>(tally.commit_faults));
  std::printf("  eps-bound pairs checked: %lld, violations: %lld\n",
              static_cast<long long>(tally.eps_pairs),
              static_cast<long long>(tally.eps_violations));
  std::printf("  steady-phase deadline overshoot: max %.2f ms over %lld "
              "timed degrades (gate %.0f ms)\n",
              tally.max_overshoot_ms,
              static_cast<long long>(tally.deadline_degrades_timed),
              kOvershootGateMs);

  bool ok = true;
  auto gate = [&](bool pass, const char* what) {
    std::printf("  [%s] %s\n", pass ? "PASS" : "FAIL", what);
    ok = ok && pass;
  };
  gate(tally.unexpected == 0, "zero crashes / unexpected statuses");
  gate(tally.corrupted == 0, "completed answers byte-identical to reference");
  gate(tally.eps_violations == 0, "100% of eps-bounds contain exact scores");
  gate(tally.ok_degraded > 0 && tally.cancelled > 0 && tally.shed > 0 &&
           tally.commit_faults > 0,
       "chaos coverage: degrades, cancels, sheds, commit faults all fired");
  const bool overshoot_ok = tally.deadline_degrades_timed == 0 ||
                            tally.max_overshoot_ms <= kOvershootGateMs;
  if (smoke) {
    std::printf("  [%s] deadline overshoot within gate (smoke: warn only)\n",
                overshoot_ok ? "PASS" : "WARN");
  } else {
    gate(overshoot_ok, "deadline overshoot within gate");
  }

  JsonObject doc;
  doc.Set("bench", std::string("robustness"))
      .Set("mode", std::string(smoke ? "smoke" : "full"))
      .Set("dataset", std::string("dblp_like"))
      .Set("num_nodes", static_cast<int64_t>(g.num_nodes()))
      .Set("num_edges", g.num_edges())
      .Set("num_requests", total)
      .Set("num_templates", static_cast<int64_t>(workload.num_templates))
      .Set("stream_seconds", stream_seconds)
      .Set("completed_full", tally.ok_full)
      .Set("degraded", tally.ok_degraded)
      .Set("degraded_deadline", ss.deadline_exceeded)
      .Set("degraded_effort", ss.effort_exhausted)
      .Set("cancelled", tally.cancelled)
      .Set("shed", tally.shed)
      .Set("shed_capacity", ss.admission.shed_capacity)
      .Set("shed_expired", ss.admission.shed_expired)
      .Set("commit_faults", tally.commit_faults)
      .Set("eps_pairs_checked", tally.eps_pairs)
      .Set("eps_violations", tally.eps_violations)
      .Set("max_overshoot_ms", tally.max_overshoot_ms)
      .Set("overshoot_gate_ms", kOvershootGateMs)
      .Set("unexpected_statuses", tally.unexpected)
      .Set("corrupted_answers", tally.corrupted)
      .Set("zero_crashes", static_cast<int64_t>(tally.unexpected == 0))
      .Set("byte_identical_completed",
           static_cast<int64_t>(tally.corrupted == 0))
      .Set("eps_bounds_valid",
           static_cast<int64_t>(tally.eps_violations == 0));
  WriteJsonFile("BENCH_robustness.json", doc.ToString());
  std::printf("\nwrote BENCH_robustness.json\n");

  if (!ok) {
    std::fprintf(stderr, "\nROBUSTNESS GATES FAILED\n");
    return 1;
  }
  std::printf("all robustness gates passed\n");
  return 0;
}
