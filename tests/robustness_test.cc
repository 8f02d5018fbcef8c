/// \file tests/robustness_test.cc
/// \brief Query-lifecycle robustness: deadlines, cooperative
/// cancellation, anytime ε-bounded degradation, admission control, and
/// the deterministic fault-injection harness (DESIGN.md §9).
///
/// The load-bearing claims under test:
///  * a degraded answer is DETERMINISTIC: the same query cut at the
///    same deepening level is bit-identical across the resume and
///    restart schedules, across physical graph layouts, and between
///    the cold serving executor and the plain engine;
///  * every reported eps_bound is VALID: each degraded score s
///    satisfies s <= h_d <= s + eps_bound against the unbounded run;
///  * faults never corrupt: injected commit failures change step
///    counts, never results; worker-task exceptions surface as
///    Status{kInternal} and leave the pool serving.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/reorder.h"
#include "join2/b_idj.h"
#include "join2/f_idj.h"
#include "serve/admission.h"
#include "serve/session.h"
#include "testing/reference.h"
#include "util/deadline.h"
#include "util/fault_injection.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace dhtjoin {
namespace {

using serve::DhtJoinService;
using serve::QueryOptions;
using serve::QueryStats;
using serve::ServiceStats;
using testing::RandomGraph;
using testing::Range;
using testing::TwoCommunityGraph;

// ------------------------------------------------------ status codes

TEST(RobustnessStatusTest, NewCodesRoundTrip) {
  EXPECT_STREQ("DeadlineExceeded",
               StatusCodeToString(StatusCode::kDeadlineExceeded));
  EXPECT_STREQ("Cancelled", StatusCodeToString(StatusCode::kCancelled));
  EXPECT_STREQ("ResourceExhausted",
               StatusCodeToString(StatusCode::kResourceExhausted));
  EXPECT_EQ(Status::DeadlineExceeded("x").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(Status::Cancelled("x").code(), StatusCode::kCancelled);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
}

// ------------------------------------------------- deadline/context

TEST(DeadlineTest, InfiniteNeverExpires) {
  Deadline d;
  EXPECT_TRUE(d.is_infinite());
  EXPECT_FALSE(d.Expired());
  EXPECT_TRUE(d.RemainingSeconds() > 1e18);
}

TEST(DeadlineTest, PastDeadlineExpired) {
  Deadline d = Deadline::At(Deadline::Clock::now() -
                            std::chrono::milliseconds(5));
  EXPECT_TRUE(d.Expired());
  EXPECT_LT(d.RemainingSeconds(), 0.0);
  EXPECT_FALSE(Deadline::AfterSeconds(60.0).Expired());
}

TEST(ExecContextTest, CancelIsStickyAndHard) {
  ExecContext ctx;
  ctx.token = std::make_shared<CancelToken>();
  EXPECT_EQ(ctx.Check(), StatusCode::kOk);
  ctx.token->Cancel();
  EXPECT_EQ(ctx.Check(), StatusCode::kCancelled);
  EXPECT_EQ(ctx.stop_code(), StatusCode::kCancelled);
  EXPECT_TRUE(ctx.stopped());
  // Sticky: the first verdict wins even at later block checks.
  EXPECT_EQ(ctx.CheckBlockGroup(), StatusCode::kCancelled);
}

TEST(ExecContextTest, EffortBudgetIsDeterministic) {
  ExecContext ctx;
  ctx.effort_budget_blocks = 3;
  EXPECT_EQ(ctx.CheckBlockGroup(), StatusCode::kOk);
  EXPECT_EQ(ctx.CheckBlockGroup(), StatusCode::kOk);
  EXPECT_EQ(ctx.CheckBlockGroup(), StatusCode::kOk);
  EXPECT_EQ(ctx.CheckBlockGroup(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ctx.blocks_checked(), 4);
  // Executor-level polls see the sticky soft stop.
  EXPECT_EQ(ctx.Check(), StatusCode::kResourceExhausted);
}

TEST(ExecContextTest, SoftStopRequestDegradesNotCancels) {
  ExecContext ctx;
  ctx.RequestSoftStop();
  EXPECT_EQ(ctx.Check(), StatusCode::kDeadlineExceeded);
}

// ------------------------------------------------------- thread pool

TEST(ThreadPoolRobustnessTest, ParallelForRethrowsAndPoolSurvives) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(100,
                       [&](int64_t i) {
                         if (i == 37) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The pool must still work: a failed ParallelFor may not leak
  // pending counts or wedge workers.
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(100, [&](int64_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 100 * 99 / 2);
}

// --------------------------------------------- degraded determinism

std::vector<ScoredPair> RunCutAt(const Graph& g, const DhtParams& params,
                                 int d, const NodeSet& P, const NodeSet& Q,
                                 std::size_t k, int cut_after_level,
                                 bool resume, TwoWayJoinStats* stats = nullptr,
                                 UpperBoundKind bound = UpperBoundKind::kY) {
  ExecContext exec;
  exec.on_level = [&exec, cut_after_level](int level) {
    if (level >= cut_after_level) exec.RequestSoftStop();
  };
  BIdjJoin join(BIdjJoin::Options{.bound = bound, .resume = resume,
                                  .exec = &exec});
  auto result = join.Run(g, params, d, P, Q, k);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(join.stats().partial.degraded);
  EXPECT_EQ(join.stats().partial.level_reached, cut_after_level);
  if (stats != nullptr) *stats = join.stats();
  return std::move(result).value();
}

TEST(DegradedAnswerTest, BitIdenticalAcrossSchedulesAndLayouts) {
  Graph g = RandomGraph(120, 480, 11);
  DhtParams params = DhtParams::Lambda(0.2);
  const int d = 8;
  NodeSet P = Range("P", 0, 40);
  NodeSet Q = Range("Q", 40, 100);

  for (int cut : {1, 2, 4}) {
    std::vector<ScoredPair> base =
        RunCutAt(g, params, d, P, Q, 12, cut, /*resume=*/true);
    std::vector<ScoredPair> restart =
        RunCutAt(g, params, d, P, Q, 12, cut, /*resume=*/false);
    ASSERT_EQ(base.size(), restart.size()) << "cut=" << cut;
    for (std::size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(base[i].p, restart[i].p);
      EXPECT_EQ(base[i].q, restart[i].q);
      EXPECT_EQ(base[i].score, restart[i].score);  // bit-identical
    }
    for (ReorderKind kind : {ReorderKind::kDegree, ReorderKind::kRcm}) {
      auto rg = ReorderGraph(g, kind);
      ASSERT_TRUE(rg.ok());
      std::vector<ScoredPair> relaid =
          RunCutAt(*rg, params, d, P, Q, 12, cut, /*resume=*/true);
      ASSERT_EQ(base.size(), relaid.size());
      for (std::size_t i = 0; i < base.size(); ++i) {
        EXPECT_EQ(base[i].p, relaid[i].p);
        EXPECT_EQ(base[i].q, relaid[i].q);
        EXPECT_EQ(base[i].score, relaid[i].score);
      }
    }
  }
}

TEST(DegradedAnswerTest, ColdServiceMatchesEngineAtSameCut) {
  Graph g = RandomGraph(100, 380, 23);
  DhtParams params = DhtParams::Lambda(0.2);
  const int d = 8;
  NodeSet P = Range("P", 0, 30);
  NodeSet Q = Range("Q", 30, 90);
  const int cut = 2;

  std::vector<ScoredPair> engine =
      RunCutAt(g, params, d, P, Q, 10, cut, /*resume=*/true);

  // cache_budget_bytes = 0 (explicit) disables retention: the service
  // runs the query cold, so its degraded answer at the same forced cut
  // must be bit-identical to the engine's (warm resumes score rows at
  // DEEPER levels — still ε-valid, but not comparable bit-for-bit).
  DhtJoinService::Options sopts;
  sopts.cache_budget_bytes = 0;
  sopts.num_threads = 1;
  DhtJoinService service(g, params, d, sopts);
  ExecContext exec;
  exec.on_level = [&exec](int level) {
    if (level >= 2) exec.RequestSoftStop();
  };
  QueryStats qs;
  auto result = service.TwoWay(P, Q, 10, &qs, &exec);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(qs.join.partial.degraded);
  EXPECT_EQ(qs.join.partial.level_reached, cut);
  ASSERT_EQ(engine.size(), result->size());
  for (std::size_t i = 0; i < engine.size(); ++i) {
    EXPECT_EQ(engine[i].p, (*result)[i].p);
    EXPECT_EQ(engine[i].q, (*result)[i].q);
    EXPECT_EQ(engine[i].score, (*result)[i].score);
  }
  EXPECT_EQ(service.service_stats().degraded, 1);
}

// ----------------------------------------------------- eps validity

void CheckEpsBounds(const Graph& g, const DhtParams& params, int d,
                    const std::vector<ScoredPair>& degraded,
                    double eps_bound) {
  ASSERT_GE(eps_bound, 0.0);
  for (const ScoredPair& sp : degraded) {
    // The exact h_d from the plain-loop sweep: no engine code.
    const double exact = testing::RefBackwardSweep(
        g, params, d, ExtNodeId(sp.q))[static_cast<std::size_t>(sp.p)];
    EXPECT_LE(sp.score, exact + 1e-12)
        << "pair (" << sp.p << ", " << sp.q << ")";
    EXPECT_LE(exact, sp.score + eps_bound + 1e-12)
        << "pair (" << sp.p << ", " << sp.q << ")";
  }
}

TEST(EpsBoundTest, DegradedScoresBracketExactOverRandomGraphs) {
  DhtParams params = DhtParams::Lambda(0.2);
  const int d = 8;
  for (uint64_t seed : {3u, 9u, 41u}) {
    Graph g = RandomGraph(80, 300, seed);
    NodeSet P = Range("P", 0, 25);
    NodeSet Q = Range("Q", 25, 75);
    for (int cut : {1, 2, 4}) {
      for (UpperBoundKind bound :
           {UpperBoundKind::kY, UpperBoundKind::kX}) {
        TwoWayJoinStats st;
        std::vector<ScoredPair> degraded =
            RunCutAt(g, params, d, P, Q, 15, cut, /*resume=*/true, &st,
                     bound);
        CheckEpsBounds(g, params, d, degraded, st.partial.eps_bound);
      }
    }
  }
}

TEST(EpsBoundTest, EffortBudgetDegradeIsValidAndReproducible) {
  Graph g = RandomGraph(90, 360, 5);
  DhtParams params = DhtParams::Lambda(0.2);
  const int d = 8;
  NodeSet P = Range("P", 0, 30);
  NodeSet Q = Range("Q", 30, 80);

  auto run = [&]() {
    ExecContext exec;
    exec.effort_budget_blocks = 10;  // trips after the early rounds
    BIdjJoin join(BIdjJoin::Options{.exec = &exec});
    auto result = join.Run(g, params, d, P, Q, 10);
    EXPECT_TRUE(result.ok());
    EXPECT_TRUE(join.stats().partial.degraded);
    EXPECT_GT(join.stats().lifecycle_checks, 0);
    CheckEpsBounds(g, params, d, *result, join.stats().partial.eps_bound);
    return std::make_pair(std::move(result).value(), join.stats().partial);
  };
  auto [a, pa] = run();
  auto [b, pb] = run();
  // The effort counter advances identically at round boundaries, so
  // the cut — and therefore the whole degraded answer — reproduces.
  EXPECT_EQ(pa.level_reached, pb.level_reached);
  EXPECT_EQ(pa.eps_bound, pb.eps_bound);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].score, b[i].score);
  }
}

TEST(EpsBoundTest, FIdjDegradesWithValidXBound) {
  Graph g = TwoCommunityGraph();
  DhtParams params = DhtParams::Lambda(0.2);
  const int d = 8;
  NodeSet P = Range("P", 0, 5);
  NodeSet Q = Range("Q", 5, 10);

  ExecContext exec;
  exec.on_level = [&exec](int level) {
    if (level >= 2) exec.RequestSoftStop();
  };
  FIdjJoin join(FIdjJoin::Options{.exec = &exec});
  auto result = join.Run(g, params, d, P, Q, 10);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(join.stats().partial.degraded);
  EXPECT_EQ(join.stats().partial.level_reached, 2);
  EXPECT_EQ(join.stats().partial.eps_bound, params.XBound(2));
  CheckEpsBounds(g, params, d, *result, join.stats().partial.eps_bound);
}

TEST(EpsBoundTest, FullRunReportsNoDegradation) {
  Graph g = TwoCommunityGraph();
  DhtParams params = DhtParams::Lambda(0.2);
  ExecContext exec;  // infinite deadline, no faults
  BIdjJoin join(BIdjJoin::Options{.exec = &exec});
  auto result = join.Run(g, params, 8, Range("P", 0, 5), Range("Q", 5, 10), 5);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(join.stats().partial.degraded);
  EXPECT_EQ(join.stats().partial.level_reached, 8);
  EXPECT_EQ(join.stats().partial.eps_bound, 0.0);
}

// ------------------------------------------------------ cancellation

TEST(CancellationTest, PreCancelledQueryReturnsCancelled) {
  Graph g = TwoCommunityGraph();
  DhtParams params = DhtParams::Lambda(0.2);
  ExecContext exec;
  exec.token = std::make_shared<CancelToken>();
  exec.token->Cancel();
  BIdjJoin join(BIdjJoin::Options{.exec = &exec});
  auto result = join.Run(g, params, 8, Range("P", 0, 5), Range("Q", 5, 10), 5);
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST(CancellationTest, MidRunCancelViaFaultPlanStopsQuery) {
  Graph g = RandomGraph(120, 480, 77);
  DhtParams params = DhtParams::Lambda(0.2);
  ExecContext exec;
  FaultInjector injector(FaultPlan{.cancel_at_check = 2});
  injector.Arm(exec);
  ASSERT_NE(exec.token, nullptr);  // Arm creates the token
  BIdjJoin join(BIdjJoin::Options{.exec = &exec});
  auto result =
      join.Run(g, params, 8, Range("P", 0, 40), Range("Q", 40, 110), 10);
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(injector.cancels_fired(), 1);
}

TEST(CancellationTest, ServiceCountsCancelled) {
  Graph g = TwoCommunityGraph();
  DhtParams params = DhtParams::Lambda(0.2);
  DhtJoinService service(g, params, 8);
  ExecContext exec;
  exec.token = std::make_shared<CancelToken>();
  exec.token->Cancel();
  auto result = service.TwoWay(Range("P", 0, 5), Range("Q", 5, 10), 5,
                               nullptr, &exec);
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(service.service_stats().cancelled, 1);
}

// -------------------------------------------------- fault injection

TEST(FaultInjectionTest, CommitFaultDrawsAreDeterministic) {
  FaultInjector a(FaultPlan{.commit_fail_rate = 0.3, .seed = 99});
  FaultInjector b(FaultPlan{.commit_fail_rate = 0.3, .seed = 99});
  int fails = 0;
  for (uint64_t n = 1; n <= 2000; ++n) {
    EXPECT_EQ(a.ShouldFailCommit(n), b.ShouldFailCommit(n));
    fails += a.ShouldFailCommit(n) ? 1 : 0;
  }
  // Roughly Bernoulli(0.3): wide tolerance, deterministic anyway.
  EXPECT_GT(fails, 2000 * 0.2);
  EXPECT_LT(fails, 2000 * 0.4);
  FaultInjector never(FaultPlan{.commit_fail_rate = 0.0, .seed = 99});
  FaultInjector always(FaultPlan{.commit_fail_rate = 1.0, .seed = 99});
  for (uint64_t n = 1; n <= 50; ++n) {
    EXPECT_FALSE(never.ShouldFailCommit(n));
    EXPECT_TRUE(always.ShouldFailCommit(n));
  }
}

TEST(FaultInjectionTest, CommitFaultsForceEvictionsNotWrongAnswers) {
  Graph g = RandomGraph(100, 400, 31);
  DhtParams params = DhtParams::Lambda(0.2);
  const int d = 8;
  NodeSet P = Range("P", 0, 30);
  NodeSet Q = Range("Q", 30, 90);

  BIdjJoin clean;
  auto want = clean.Run(g, params, d, P, Q, 10);
  ASSERT_TRUE(want.ok());

  ExecContext exec;
  FaultInjector injector(FaultPlan{.commit_fail_rate = 0.5, .seed = 7});
  injector.Arm(exec);
  BIdjJoin faulty(BIdjJoin::Options{.exec = &exec});
  auto got = faulty.Run(g, params, d, P, Q, 10);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(faulty.stats().partial.degraded);

  EXPECT_GT(injector.commit_faults_fired(), 0);
  EXPECT_GE(faulty.stats().state_evictions, injector.commit_faults_fired());
  ASSERT_EQ(want->size(), got->size());
  for (std::size_t i = 0; i < want->size(); ++i) {
    EXPECT_EQ((*want)[i].p, (*got)[i].p);
    EXPECT_EQ((*want)[i].q, (*got)[i].q);
    EXPECT_EQ((*want)[i].score, (*got)[i].score);  // bit-identical
  }
}

TEST(FaultInjectionTest, InjectedDelayFires) {
  Graph g = RandomGraph(80, 300, 13);
  DhtParams params = DhtParams::Lambda(0.2);
  ExecContext exec;
  FaultInjector injector(
      FaultPlan{.delay_at_check = 1, .delay_micros = 100});
  injector.Arm(exec);
  BIdjJoin join(BIdjJoin::Options{.exec = &exec});
  auto result =
      join.Run(g, params, 8, Range("P", 0, 20), Range("Q", 20, 70), 5);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(injector.delays_fired(), 1);
  EXPECT_FALSE(join.stats().partial.degraded);
}

// ------------------------------------------ exception containment

TEST(ExceptionContainmentTest, WorkerThrowSurfacesAsInternal) {
  Graph g = RandomGraph(100, 400, 19);
  DhtParams params = DhtParams::Lambda(0.2);
  DhtJoinService::Options sopts;
  sopts.num_threads = 2;
  DhtJoinService service(g, params, 8, sopts);

  QueryOptions qopts;
  qopts.exec = std::make_shared<ExecContext>();
  FaultInjector injector(FaultPlan{.throw_at_check = 1});
  injector.Arm(*qopts.exec);

  auto future = service.SubmitTwoWay(Range("P", 0, 30), Range("Q", 30, 90),
                                     10, std::move(qopts));
  auto result = future.get();
  EXPECT_EQ(result.status().code(), StatusCode::kInternal)
      << result.status().ToString();
  EXPECT_EQ(injector.throws_fired(), 1);
  EXPECT_EQ(service.service_stats().exceptions, 1);

  // Regression: the pool must keep serving after a contained throw
  // (historically the escaped exception terminated a worker).
  auto ok = service.SubmitTwoWay(Range("P", 0, 30), Range("Q", 30, 90), 10)
                .get();
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

// --------------------------------------------------------- admission

TEST(AdmissionTest, InFlightCapRejectsWithRetryAfter) {
  AdmissionController ctl(AdmissionOptions{.max_in_flight = 2});
  EXPECT_TRUE(ctl.Admit(0).ok());
  EXPECT_TRUE(ctl.Admit(0).ok());
  Status third = ctl.Admit(0);
  EXPECT_EQ(third.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(third.message().find("retry_after_micros="), std::string::npos);
  EXPECT_EQ(ctl.in_flight(), 2);
  ctl.Finish(1000);
  EXPECT_TRUE(ctl.Admit(0).ok());
  AdmissionStats stats = ctl.stats();
  EXPECT_EQ(stats.admitted, 3);
  EXPECT_EQ(stats.shed_capacity, 1);
  EXPECT_GE(ctl.RetryAfterMicros(), 1000);
}

TEST(AdmissionTest, CostGateShedsExpensiveQueries) {
  AdmissionController ctl(AdmissionOptions{.max_estimated_cost = 100});
  EXPECT_TRUE(ctl.Admit(100).ok());
  Status shed = ctl.Admit(101);
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ctl.stats().shed_cost, 1);
  // The cost gate does not consume in-flight slots on rejection.
  EXPECT_EQ(ctl.in_flight(), 1);
}

TEST(AdmissionTest, CostEstimateIsDeterministicAndScales) {
  Graph g = RandomGraph(200, 1000, 3);
  NodeSet small = Range("S", 0, 10);
  NodeSet big = Range("B", 0, 150);
  int64_t a = EstimateTwoWayCost(g, small, big, 8, 16);
  int64_t b = EstimateTwoWayCost(g, small, big, 8, 16);
  EXPECT_EQ(a, b);
  EXPECT_GT(a, 0);
  // More targets and more depth mean more estimated work.
  EXPECT_LT(EstimateTwoWayCost(g, small, small, 8, 16), a);
  EXPECT_LT(EstimateTwoWayCost(g, small, big, 4, 16), a);
  EXPECT_EQ(EstimateTwoWayCost(g, small, NodeSet("E", std::vector<NodeId>{}),
                               8, 16),
            0);
}

TEST(AdmissionTest, ServiceShedsOverCapacitySubmits) {
  Graph g = RandomGraph(150, 700, 29);
  DhtParams params = DhtParams::Lambda(0.2);
  DhtJoinService::Options sopts;
  sopts.num_threads = 2;
  sopts.admission.max_in_flight = 1;
  DhtJoinService service(g, params, 8, sopts);

  NodeSet P = Range("P", 0, 40);
  NodeSet Q = Range("Q", 40, 140);
  std::vector<std::future<Result<std::vector<ScoredPair>>>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(service.SubmitTwoWay(P, Q, 10));
  }
  int64_t ok = 0, shed = 0;
  for (auto& f : futures) {
    Status s = f.get().status();
    if (s.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(s.code(), StatusCode::kResourceExhausted) << s.ToString();
      ++shed;
    }
  }
  EXPECT_GE(ok, 1);  // at least the first admitted query completes
  EXPECT_EQ(ok + shed, 8);
  ServiceStats ss = service.service_stats();
  EXPECT_EQ(ss.admission.admitted, ok);
  EXPECT_EQ(ss.admission.shed_capacity, shed);
}

TEST(AdmissionTest, ExpiredWhileQueuedIsShedAndDegradesAtLevelZero) {
  Graph g = RandomGraph(100, 400, 59);
  DhtParams params = DhtParams::Lambda(0.2);
  DhtJoinService::Options sopts;
  sopts.num_threads = 2;
  DhtJoinService service(g, params, 8, sopts);

  QueryOptions qopts;
  qopts.exec = std::make_shared<ExecContext>();
  qopts.exec->deadline =
      Deadline::At(Deadline::Clock::now() - std::chrono::seconds(1));
  QueryStats qs;
  qopts.stats = &qs;
  auto result = service.SubmitTwoWay(Range("P", 0, 30), Range("Q", 30, 90),
                                     10, std::move(qopts))
                    .get();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(qs.join.partial.degraded);
  EXPECT_EQ(qs.join.partial.level_reached, 0);
  EXPECT_GT(qs.join.partial.eps_bound, 0.0);
  EXPECT_TRUE(result->empty());  // nothing computed at level 0
  ServiceStats ss = service.service_stats();
  EXPECT_EQ(ss.admission.shed_expired, 1);
  EXPECT_EQ(ss.degraded, 1);
  EXPECT_EQ(ss.deadline_exceeded, 1);
}

TEST(AdmissionTest, DegradedRunNeverPoisonsTheCache) {
  Graph g = RandomGraph(100, 400, 67);
  DhtParams params = DhtParams::Lambda(0.2);
  const int d = 8;
  NodeSet P = Range("P", 0, 30);
  NodeSet Q = Range("Q", 30, 90);
  DhtJoinService::Options sopts;
  sopts.num_threads = 1;
  DhtJoinService service(g, params, d, sopts);

  // First query dies instantly: incomplete Y sweep, level-0 cut.
  ExecContext dead;
  dead.deadline = Deadline::At(Deadline::Clock::now() -
                               std::chrono::seconds(1));
  QueryStats qs;
  auto degraded = service.TwoWay(P, Q, 10, &qs, &dead);
  ASSERT_TRUE(degraded.ok());
  EXPECT_TRUE(qs.join.partial.degraded);

  // Second, unbounded run of the SAME query must produce the full
  // answer — i.e. the aborted sweep was not cached as if complete.
  auto warm = service.TwoWay(P, Q, 10);
  ASSERT_TRUE(warm.ok());
  BIdjJoin reference;
  auto want = reference.Run(g, params, d, P, Q, 10);
  ASSERT_TRUE(want.ok());
  ASSERT_EQ(want->size(), warm->size());
  for (std::size_t i = 0; i < want->size(); ++i) {
    EXPECT_EQ((*want)[i].p, (*warm)[i].p);
    EXPECT_EQ((*want)[i].q, (*warm)[i].q);
    EXPECT_EQ((*want)[i].score, (*warm)[i].score);
  }
}

}  // namespace
}  // namespace dhtjoin
