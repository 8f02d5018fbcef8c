/// \file tests/trace_test.cc
/// \brief Trace span trees (DESIGN.md §11): stack-based nesting,
/// fake-clock durations, JSON/text rendering, the ExecContext ride,
/// and the two load-bearing service claims — tracing NEVER changes
/// answers (byte-identity on/off) and slow queries are captured with
/// their full span trees at a deterministic fake-clock threshold.
///
/// Span-structure assertions are guarded on obs::kEnabled so this
/// suite also compiles and passes under -DDHT_OBS_OFF, where the whole
/// span API is a no-op; the byte-identity tests run in BOTH builds.

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "join2/b_idj.h"
#include "obs/clock.h"
#include "obs/config.h"
#include "obs/trace.h"
#include "serve/session.h"
#include "testing/reference.h"
#include "util/deadline.h"

namespace dhtjoin {
namespace {

using serve::DhtJoinService;
using testing::ExpectSamePairs;
using testing::RandomGraph;
using testing::Range;

// ------------------------------------------------------ span basics

TEST(TraceTest, SpansNestViaTheOpenSpanStack) {
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  obs::FakeClock clock(100);
  obs::Trace trace(&clock);

  const auto a = trace.Begin("a");
  clock.AdvanceNanos(10);
  const auto b = trace.Begin("b");  // parents under the innermost open
  clock.AdvanceNanos(5);
  trace.End(b);
  const auto c = trace.Begin("c");  // b closed: parents under a again
  trace.End(a);                     // unwinds the stack through a
  const auto d = trace.Begin("d");  // a closed: new root

  EXPECT_EQ(trace.num_spans(), 4u);
  EXPECT_TRUE(trace.Finished(a));
  EXPECT_TRUE(trace.Finished(b));
  // A span left open when its parent ends stays unfinished — losing a
  // subtree tail is a signal, not an error.
  EXPECT_FALSE(trace.Finished(c));
  EXPECT_EQ(trace.DurationNanos(a), 15);
  EXPECT_EQ(trace.DurationNanos(b), 5);
  EXPECT_EQ(trace.DurationNanos(c), 0);  // unfinished reports 0
  trace.End(d);

  const std::string text = trace.ToText();
  EXPECT_NE(text.find("a 15ns\n  b 5ns\n  c 0ns (unfinished)\nd 0ns\n"),
            std::string::npos)
      << text;
}

TEST(TraceTest, EndIsIdempotentAndIgnoresNoSpan) {
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  obs::FakeClock clock;
  obs::Trace trace(&clock);
  const auto a = trace.Begin("a");
  clock.AdvanceNanos(7);
  trace.End(a);
  clock.AdvanceNanos(100);
  trace.End(a);  // second End must not move the end timestamp
  EXPECT_EQ(trace.DurationNanos(a), 7);
  trace.End(obs::Trace::kNoSpan);  // no-op by contract
  EXPECT_EQ(trace.num_spans(), 1u);
}

TEST(TraceTest, AttrsRollUpAcrossSpans) {
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  obs::FakeClock clock;
  obs::Trace trace(&clock);
  const auto root = trace.Begin("query");
  for (int l = 1; l <= 3; ++l) {
    const auto round = trace.Begin("round");
    trace.SetAttr(round, "level", int64_t{l});
    trace.SetAttr(round, "blocks", int64_t{10 * l});
    trace.End(round);
  }
  trace.SetAttr(root, "eps", 0.5);
  trace.End(root);

  EXPECT_EQ(trace.CountSpans("round"), 3u);
  EXPECT_EQ(trace.CountSpans("query"), 1u);
  EXPECT_EQ(trace.CountSpans("missing"), 0u);
  EXPECT_EQ(trace.SumAttr("blocks"), 60);
  EXPECT_EQ(trace.SumAttr("level"), 6);
  EXPECT_EQ(trace.SumAttr("eps"), 0);  // double attrs don't sum as ints
}

TEST(TraceTest, JsonRenderingIsBytePinnedUnderFakeClock) {
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  obs::FakeClock clock(100);
  obs::Trace trace(&clock);
  const auto query = trace.Begin("query");
  trace.SetAttr(query, "k", int64_t{5});
  clock.AdvanceNanos(10);
  const auto round = trace.Begin("round");
  trace.SetAttr(round, "level", int64_t{1});
  trace.SetAttr(round, "frac", 0.25);
  clock.AdvanceNanos(5);
  trace.End(round);
  clock.AdvanceNanos(1);
  trace.End(query);

  EXPECT_EQ(trace.ToJson(),
            "{\"name\": \"query\", \"start_ns\": 100, "
            "\"duration_ns\": 16, \"k\": 5, \"spans\": ["
            "{\"name\": \"round\", \"start_ns\": 110, \"duration_ns\": 5, "
            "\"level\": 1, \"frac\": 0.25}]}");
}

TEST(TraceTest, UnfinishedSpansAndMultipleRootsRender) {
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  obs::FakeClock clock;
  obs::Trace trace(&clock);
  const auto a = trace.Begin("first");
  trace.End(a);
  trace.Begin("second");  // left open: a cancelled query's tail

  const std::string json = trace.ToJson();
  // Two roots wrap in a {"spans": [...]} envelope; the open span
  // carries the unfinished marker.
  EXPECT_EQ(json.find("{\"spans\": ["), 0u) << json;
  EXPECT_NE(json.find("\"name\": \"second\", \"start_ns\": 0, "
                      "\"duration_ns\": 0, \"unfinished\": true"),
            std::string::npos)
      << json;
}

TEST(TraceTest, ScopedSpanIsRaiiAndNullSafe) {
  // Null-trace ScopedSpan must be a complete no-op — call sites in the
  // engines never guard. This holds in BOTH build modes.
  obs::ScopedSpan null_span(nullptr, "x");
  null_span.SetAttr("k", int64_t{1});
  null_span.EndNow();
  EXPECT_EQ(null_span.id(), obs::Trace::kNoSpan);

  if (!obs::kEnabled) return;
  obs::FakeClock clock;
  obs::Trace trace(&clock);
  obs::Trace::SpanId id = obs::Trace::kNoSpan;
  {
    obs::ScopedSpan span(&trace, "scoped");
    span.SetAttr("n", int64_t{3});
    id = span.id();
    clock.AdvanceNanos(4);
  }  // destructor ends the span
  EXPECT_TRUE(trace.Finished(id));
  EXPECT_EQ(trace.DurationNanos(id), 4);
  EXPECT_EQ(trace.SumAttr("n"), 3);
}

TEST(TraceTest, TraceOfFollowsTheExecContextAttachment) {
  EXPECT_EQ(obs::TraceOf(nullptr), nullptr);
  ExecContext exec;
  EXPECT_EQ(obs::TraceOf(&exec), nullptr);
  obs::FakeClock clock;
  obs::Trace trace(&clock);
  exec.set_trace(&trace);
  if (obs::kEnabled) {
    EXPECT_EQ(obs::TraceOf(&exec), &trace);
  } else {
    // Under DHT_OBS_OFF the accessor constant-folds to null: span code
    // downstream disappears even if someone attaches a trace.
    EXPECT_EQ(obs::TraceOf(&exec), nullptr);
  }
  exec.set_trace(nullptr);
  EXPECT_EQ(obs::TraceOf(&exec), nullptr);
}

// --------------------------------------------------- service tracing

struct ServeFixture {
  Graph g = RandomGraph(70, 260, 91, true, true);
  DhtParams p = DhtParams::Lambda(0.2);
  int d = 8;
  NodeSet P = Range("P", 0, 25);
  NodeSet Q = Range("Q", 30, 65);
  std::size_t k = 15;
};

TEST(ServiceTracingTest, TracedAnswersAreByteIdenticalToUntraced) {
  ServeFixture f;
  DhtJoinService plain(f.g, f.p, f.d, {.num_threads = 1});
  DhtJoinService traced(f.g, f.p, f.d,
                        {.num_threads = 1, .trace_queries = true});

  // Cold and warm rounds: spans observe cache imports, deepening
  // rounds, and write-backs, and must steer none of them.
  for (int round = 0; round < 2; ++round) {
    serve::QueryStats plain_qs, traced_qs;
    auto expected = plain.TwoWay(f.P, f.Q, f.k, &plain_qs);
    auto got = traced.TwoWay(f.P, f.Q, f.k, &traced_qs);
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(got.ok());
    ExpectSamePairs(*got, *expected,
                       round == 0 ? "cold traced" : "warm traced");
    EXPECT_EQ(plain_qs.trace_spans, 0);  // tracing off: no rollups
    if (obs::kEnabled) {
      EXPECT_GT(traced_qs.trace_spans, 0);
      EXPECT_GT(traced_qs.trace_rounds, 0);
      if (round == 0) {
        // Cold: the fused engine ran blocks, and the spans say so. A
        // warm repeat legitimately reports 0 — every target resumes
        // from cache and no b.advance_many pass happens at all.
        EXPECT_GT(traced_qs.trace_blocks_run, 0);
        EXPECT_GT(traced_qs.trace_lanes_packed, 0);
        EXPECT_GT(traced_qs.trace_bytes_touched, 0);
      }
    } else {
      EXPECT_EQ(traced_qs.trace_spans, 0);
    }
    // The walk work itself is unchanged by tracing.
    EXPECT_EQ(traced_qs.join.walk_steps, plain_qs.join.walk_steps);
    EXPECT_EQ(traced_qs.join.state_hits, plain_qs.join.state_hits);
  }
}

// Each span of a Trace::ToJson document as (name, parent name), in
// document order; a root's parent is "". Span names hold no braces.
std::vector<std::pair<std::string, std::string>> SpanParents(
    const std::string& json) {
  std::vector<std::pair<std::string, std::string>> out;
  std::vector<std::string> open;  // names of the enclosing JSON objects
  const std::string key = "\"name\": \"";
  for (std::size_t i = 0; i < json.size(); ++i) {
    if (json[i] == '{') {
      open.emplace_back();
    } else if (json[i] == '}') {
      open.pop_back();
    } else if (json.compare(i, key.size(), key) == 0) {
      const std::size_t begin = i + key.size();
      const std::size_t end = json.find('"', begin);
      open.back() = json.substr(begin, end - begin);
      out.emplace_back(open.back(),
                       open.size() > 1 ? open[open.size() - 2] : "");
      i = end;
    }
  }
  return out;
}

TEST(ServiceTracingTest, TwoWaySpanTreeIsPinned) {
  // perfbench/stats.py reports the self time of these spans as the
  // serve.span.* metrics, so their names and nesting are an interface.
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  ServeFixture f;
  obs::FakeClock clock;
  DhtJoinService service(f.g, f.p, f.d,
                         {.num_threads = 1,
                          .clock = &clock,
                          .trace_queries = true,
                          .slow_query_nanos = 1});
  // The clock moves at every completed level, so both queries are
  // "slow" and the ring keeps their span trees.
  for (int round = 0; round < 2; ++round) {  // cold, then warm
    ExecContext exec;
    exec.on_level = [&clock](int) { clock.AdvanceMillis(1); };
    ASSERT_TRUE(service.TwoWay(f.P, f.Q, f.k, nullptr, &exec).ok());
  }
  const auto entries = service.slow_queries().Dump();
  ASSERT_EQ(entries.size(), 2u);
  for (std::size_t round = 0; round < entries.size(); ++round) {
    SCOPED_TRACE(round == 0 ? "cold" : "warm");
    std::vector<std::string> phases;  // the root's children, in order
    int advances = 0;
    int roots = 0;
    for (const auto& [name, parent] :
         SpanParents(entries[round].trace_json)) {
      if (name == "query.twoway") {
        EXPECT_EQ(parent, "");
        ++roots;
      } else if (name == "b.advance_many") {
        EXPECT_TRUE(parent == "round" || parent == "final") << parent;
        ++advances;
      } else {
        EXPECT_EQ(parent, "query.twoway") << name;
        phases.push_back(name);
      }
    }
    EXPECT_EQ(roots, 1);
    // The import runs first, so nothing the query inserts can evict
    // what it imports. d = 8: deepening rounds at levels 1, 2 and 4,
    // then the exact pass.
    EXPECT_EQ(phases,
              (std::vector<std::string>{"import", "ybound", "round", "round",
                                        "round", "final", "write_back"}))
        << entries[round].trace_json;
    // A cold query walks every round; a warm one may walk nothing.
    if (round == 0) EXPECT_GT(advances, 0);
  }
}

TEST(ServiceTracingTest, SlowQueryRingCapturesSpanTreesAtThreshold) {
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  ServeFixture f;
  obs::FakeClock clock;
  DhtJoinService service(f.g, f.p, f.d,
                         {.num_threads = 1,
                          .clock = &clock,
                          .trace_queries = true,
                          .slow_query_nanos = 5 * 1000 * 1000});

  // Query 1: the fake clock advances 2ms per completed deepening level
  // (d = 8 levels -> 16ms latency), crossing the 5ms threshold.
  ExecContext slow_exec;
  slow_exec.on_level = [&clock](int) { clock.AdvanceMillis(2); };
  serve::QueryStats slow_qs;
  ASSERT_TRUE(service.TwoWay(f.P, f.Q, f.k, &slow_qs, &slow_exec).ok());
  EXPECT_GE(slow_qs.seconds, 0.005);

  // Query 2: time never moves -> latency 0 -> not captured.
  ASSERT_TRUE(service.TwoWay(f.P, f.Q, f.k).ok());

  ASSERT_EQ(service.slow_queries().total_recorded(), 1);
  const auto entries = service.slow_queries().Dump();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].name, "twoway");
  EXPECT_GE(entries[0].latency_ns, 5 * 1000 * 1000);
  // The capture is the FULL span tree, not a summary.
  EXPECT_NE(entries[0].trace_json.find("\"name\": \"query.twoway\""),
            std::string::npos)
      << entries[0].trace_json;
  EXPECT_NE(entries[0].trace_json.find("\"name\": \"round\""),
            std::string::npos);

  // Both queries landed in the latency histogram; only one was slow.
  const obs::MetricsSnapshot snap = service.SnapshotMetrics();
  EXPECT_EQ(snap.FindHistogram("serve.query.latency_ns")->count, 2);
  EXPECT_EQ(snap.FindGauge("serve.slow_queries.total")->value, 1.0);
  EXPECT_EQ(snap.FindCounter("serve.query.twoway")->value, 2);
}

TEST(ServiceTracingTest, CancelMidQueryLeavesAConsistentTrace) {
  ServeFixture f;
  DhtJoinService service(f.g, f.p, f.d,
                         {.num_threads = 1, .trace_queries = true});
  ExecContext exec;
  exec.token = std::make_shared<CancelToken>();
  // Cancel from inside the run, at the 3rd fused block-group check —
  // deterministically mid-schedule, with round spans already open.
  exec.block_hook = [&exec](int64_t n) {
    if (n == 3) exec.token->Cancel();
  };
  serve::QueryStats qs;
  auto result = service.TwoWay(f.P, f.Q, f.k, &qs, &exec);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(service.service_stats().cancelled, 1);
  if (obs::kEnabled) {
    // The trace survived the unwind: rollups were still folded into the
    // stats, and the cancel counter ticked.
    EXPECT_GT(qs.trace_spans, 0);
    const obs::MetricsSnapshot snap = service.SnapshotMetrics();
    EXPECT_EQ(snap.FindCounter("serve.query.cancelled")->value, 1);
    EXPECT_EQ(snap.FindCounter("serve.query.errors")->value, 1);
  }
}

TEST(ServiceTracingTest, ConcurrentTracedSessionsWithRacingCancels) {
  // TSan coverage: many traced sessions in flight while the main
  // thread cancels half of them. Every outcome must be ok or a clean
  // kCancelled; spans/metrics must not race the cancel path.
  ServeFixture f;
  DhtJoinService service(f.g, f.p, f.d,
                         {.num_threads = 4, .trace_queries = true});
  constexpr int kQueries = 8;
  std::vector<std::shared_ptr<CancelToken>> tokens;
  std::vector<std::future<Result<std::vector<ScoredPair>>>> futures;
  for (int i = 0; i < kQueries; ++i) {
    serve::QueryOptions qopts;
    qopts.exec = std::make_shared<ExecContext>();
    qopts.exec->token = std::make_shared<CancelToken>();
    tokens.push_back(qopts.exec->token);
    futures.push_back(
        service.SubmitTwoWay(f.P, f.Q, f.k, std::move(qopts)));
  }
  for (int i = 0; i < kQueries; i += 2) tokens[static_cast<std::size_t>(i)]->Cancel();
  int completed = 0;
  for (auto& future : futures) {
    const Result<std::vector<ScoredPair>> r = future.get();
    if (r.ok()) {
      ++completed;
    } else {
      EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
    }
  }
  service.Drain();
  // Uncancelled queries always complete; pre-submit cancels usually
  // land, but a fast worker may finish first — both are valid.
  EXPECT_GE(completed, kQueries / 2);
  const obs::MetricsSnapshot snap = service.SnapshotMetrics();
  EXPECT_EQ(snap.FindCounter("serve.query.twoway")->value, kQueries);
}

TEST(ServiceTracingTest, DegradedQueryTracesTheCompletedPrefix) {
  ServeFixture f;
  DhtJoinService service(f.g, f.p, f.d,
                         {.num_threads = 1, .trace_queries = true});
  // Soft-stop after level 2: the answer degrades at the last completed
  // level (DESIGN.md §9) and the trace records exactly that prefix.
  ExecContext exec;
  exec.on_level = [&exec](int level) {
    if (level >= 2) exec.RequestSoftStop();
  };
  serve::QueryStats qs;
  auto result = service.TwoWay(f.P, f.Q, f.k, &qs, &exec);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(qs.join.partial.degraded);
  if (obs::kEnabled) {
    EXPECT_GT(qs.trace_spans, 0);
    EXPECT_LE(qs.trace_rounds, 3);  // never the full 8-level schedule
  }
}

}  // namespace
}  // namespace dhtjoin
