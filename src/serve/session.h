/// \file serve/session.h
/// \brief DhtJoinService — concurrent query sessions over one graph,
/// sharing one cross-query ScoreCache.
///
/// The service owns a Graph (by reference), fixed measure parameters
/// (params, d), a ScoreCache, and a ThreadPool. Queries run either
/// synchronously (TwoWay / Nway) or as concurrent sessions on the pool
/// (SubmitTwoWay / SubmitNway); any number may be in flight at once —
/// the cache is sharded and every per-query engine is private to its
/// session.
///
/// The two-way executor is a cache-aware B-IDJ. It runs the library's
/// Algorithm-2 schedule (RunBIdjSchedule, join2/b_idj.h) and owns only
/// the cache work around it: it imports each target's batched backward
/// walk state (BackwardBatchSnapshot, keyed by target and P) before the
/// run and writes back every state that got deeper after it, however
/// the run ended: a pruned target with its walk mass, a target
/// exactified at d with its score row alone (h_d is final). A warm
/// query therefore RESUMES every target at its deepest previously-walked
/// level — an exactly repeated query does near-zero walk work — while a
/// cold query runs the ordinary schedule. Warm and cold results are
/// byte-identical (DESIGN.md §6). The Y-bound table of each (P, Q) is
/// cached whole.
///
/// N-way queries route NL's per-edge tables and PJ-i's walk states
/// through the same cache via the provider hooks in core/nl_join.h and
/// join2/incremental.h. Each PJ-i query edge over (P, Q) imports the
/// same (target, P) states when it is created and writes back the
/// deeper ones when the query ends — ImportStates and WriteBackStates,
/// the two-way executor's own steps — so a two-way query and a PJ-i
/// edge over the same sets warm each other, and they share each (P, Q)
/// Y-bound table.

#ifndef DHTJOIN_SERVE_SESSION_H_
#define DHTJOIN_SERVE_SESSION_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "core/nl_join.h"
#include "core/partial_join.h"
#include "join2/two_way_join.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/slow_query.h"
#include "persist/metrics.h"
#include "persist/snapshot.h"
#include "serve/admission.h"
#include "serve/score_cache.h"
#include "util/deadline.h"
#include "util/thread_pool.h"

namespace dhtjoin::serve {

/// Per-query lifecycle options for the async sessions (Submit*). The
/// ExecContext (deadline, cancel token, effort budget, fault hooks —
/// util/deadline.h) is shared because the query runs after Submit
/// returns; it must not be reused across queries. `stats`, when set,
/// must stay alive until the returned future resolves — it is written
/// before the promise is fulfilled, so reading it AFTER future.get()
/// is race-free.
struct QueryOptions {
  std::shared_ptr<ExecContext> exec;
  struct QueryStats* stats = nullptr;
};

/// Service-level lifecycle counters (monotone; readable while serving).
struct ServiceStats {
  AdmissionStats admission;
  /// Soft-stopped queries that returned a degraded (partial) answer.
  int64_t degraded = 0;
  /// Hard-cancelled queries (Status{kCancelled}).
  int64_t cancelled = 0;
  /// Soft stops by cause: deadline expiry vs effort-budget exhaustion.
  int64_t deadline_exceeded = 0;
  int64_t effort_exhausted = 0;
  /// Worker-task exceptions contained and surfaced as Status{kInternal}.
  int64_t exceptions = 0;
};

/// Per-query observability, filled by the executing session.
struct QueryStats {
  double seconds = 0.0;
  /// Targets whose batch state was imported from the cache vs the rest
  /// of Q; for PJ-i summed over the query edges.
  int64_t warm_targets = 0;
  int64_t cold_targets = 0;
  /// With the Y bound: whether the (P, Q) sweep was cached — for PJ-i,
  /// whether every query edge's was.
  bool ybound_cached = false;
  /// N-way NL: per-edge tables served from the cache.
  int64_t table_hits = 0;
  /// Walk/pool counters of the underlying executor (PJ-i: summed over
  /// the query edges; walk_steps counts the Y-bound sweeps actually run).
  TwoWayJoinStats join;
  /// Trace rollups (all 0 unless Options::trace_queries was on and the
  /// build has observability): span count and the sums of the engine
  /// span attributes — deepening rounds, fused blocks run, lanes
  /// packed, delta bytes touched (DESIGN.md §11).
  int64_t trace_spans = 0;
  int64_t trace_rounds = 0;
  int64_t trace_blocks_run = 0;
  int64_t trace_lanes_packed = 0;
  int64_t trace_bytes_touched = 0;
};

/// A serving endpoint for one graph + one measure configuration.
/// Thread-safe: all public methods may be called concurrently.
class DhtJoinService {
 public:
  /// Sentinel for Options::cache_budget_bytes: derive the budget from
  /// the graph (AutotuneStateBudgetBytes). An explicit 0 disables
  /// retention — every query runs cold (used by benches and tests).
  static constexpr std::size_t kAutotuneBudget =
      std::numeric_limits<std::size_t>::max();

  struct Options {
    std::size_t cache_budget_bytes = kAutotuneBudget;
    int cache_shards = 8;
    /// Admission floor: payloads smaller than this are only cached on
    /// their second offer (ScoreCache first-touch bypass), so one-shot
    /// tiny queries stop churning the LRU. 0 = admit everything.
    std::size_t cache_admission_bypass_bytes = 0;
    /// Worker threads for Submit* sessions; 0 = hardware concurrency.
    int num_threads = 0;
    /// Remainder bound of the two-way executor (paper uses Y).
    UpperBoundKind bound = UpperBoundKind::kY;
    /// Admission control for the async sessions (serve/admission.h):
    /// in-flight cap and sampled cost gate. Defaults admit everything.
    /// Synchronous TwoWay/Nway calls bypass admission — the caller IS
    /// the capacity there.
    AdmissionOptions admission;
    /// Observability (DESIGN.md §11). All service timing — query
    /// latencies, pool task/queue histograms, admission cost feedback —
    /// reads this clock; null means the real SystemClock. Tests inject
    /// a FakeClock to make latency assertions deterministic. Must
    /// outlive the service.
    const obs::Clock* clock = nullptr;
    /// Attach a span-tree trace to every query. Queries that arrive
    /// with a caller ExecContext get the trace on it; callers without
    /// one get a service-local context for the duration of the run.
    /// Tracing never changes answers (asserted byte-identical in
    /// tests/trace_test.cc); it costs one clock read + one small
    /// allocation per span, at round granularity.
    bool trace_queries = false;
    /// Queries slower than this (by the injected clock) have their full
    /// span tree captured in the slow-query ring. <= 0 disables; only
    /// effective when trace_queries is on.
    int64_t slow_query_nanos = 0;
    /// Ring capacity of the slow-query log.
    std::size_t slow_query_capacity = 32;
  };

  /// The graph must outlive the service. O(n + m) once for the
  /// fingerprint that keys every cache entry.
  DhtJoinService(const Graph& g, const DhtParams& params, int d,
                 Options options);
  DhtJoinService(const Graph& g, const DhtParams& params, int d);
  ~DhtJoinService();

  DhtJoinService(const DhtJoinService&) = delete;
  DhtJoinService& operator=(const DhtJoinService&) = delete;

  /// Top-k 2-way join of (P, Q) — results identical to
  /// BIdjJoin(options.bound).Run on a cold library, whatever the cache
  /// holds (DESIGN.md §6).
  ///
  /// When `exec` is set, the run is deadline/cancel/effort-governed: a
  /// hard cancel returns Status{kCancelled}; a soft stop degrades at
  /// the last completed deepening level with stats->join.partial
  /// describing the cut (DESIGN.md §9) — identical semantics (and
  /// bit-identical degraded answers at equal cut levels) to
  /// BIdjJoin::Run under the same ExecContext.
  Result<std::vector<ScoredPair>> TwoWay(const NodeSet& P, const NodeSet& Q,
                                         std::size_t k,
                                         QueryStats* stats = nullptr,
                                         const ExecContext* exec = nullptr);

  enum class NwayAlgo {
    kPartialJoinIncremental,  ///< PJ-i, walk states through the cache
    kNestedLoop,              ///< NL, per-edge tables through the cache
  };

  /// Top-k n-way join; `f` must outlive the call (and, for SubmitNway,
  /// the returned future).
  Result<std::vector<TupleAnswer>> Nway(const QueryGraph& query,
                                        const Aggregate& f, std::size_t k,
                                        NwayAlgo algo =
                                            NwayAlgo::kPartialJoinIncremental,
                                        QueryStats* stats = nullptr);

  /// Asynchronous sessions: the query runs on the service pool; the
  /// future carries the same result TwoWay/Nway would return.
  ///
  /// Lifecycle (util/deadline.h, serve/admission.h):
  ///  * admission runs BEFORE enqueue — an over-capacity or
  ///    over-cost-estimate query resolves its future immediately with
  ///    Status{kResourceExhausted} (+ retry-after hint in the message);
  ///  * a query whose deadline expired while QUEUED is shed at dequeue
  ///    (degrades at level 0: empty answer + partial info);
  ///  * worker-task exceptions never escape the pool — they surface as
  ///    Status{kInternal} on the future.
  std::future<Result<std::vector<ScoredPair>>> SubmitTwoWay(
      NodeSet P, NodeSet Q, std::size_t k, QueryOptions qopts = {});
  std::future<Result<std::vector<TupleAnswer>>> SubmitNway(
      QueryGraph query, const Aggregate& f, std::size_t k,
      NwayAlgo algo = NwayAlgo::kPartialJoinIncremental,
      QueryOptions qopts = {});

  /// Blocks until every submitted session has finished.
  void Drain();

  const Graph& graph() const { return g_; }
  const DhtParams& params() const { return params_; }
  int d() const { return d_; }
  uint64_t graph_fingerprint() const { return graph_fp_; }
  CacheStats cache_stats() const { return cache_.stats(); }
  ScoreCache& cache() { return cache_; }
  /// Lifecycle counters: admission sheds, degraded/cancelled queries,
  /// contained worker exceptions.
  ServiceStats service_stats() const;
  const AdmissionController& admission() const { return admission_; }
  /// The service metrics registry (always live; counters tick even
  /// under DHT_OBS_OFF — only spans and timing compile out).
  obs::MetricsRegistry& metrics() { return metrics_; }
  /// Registry snapshot with the cache / admission / service gauges
  /// refreshed first — the payload behind `dhtjoin_cli serve
  /// --metrics-out` (JSON) and --metrics-prom (Prometheus text).
  obs::MetricsSnapshot SnapshotMetrics();
  /// Ring of recent slow queries (latency above Options::
  /// slow_query_nanos) with their full span trees.
  const obs::SlowQueryLog& slow_queries() const { return slow_log_; }

  // ------------------------------------------------------ durability
  /// Checkpoints the warm state (every resident ScoreCache payload) to
  /// `path`, crash-safely (persist/snapshot.h: temp file + fsync +
  /// atomic rename — a kill at any byte offset leaves the previous
  /// snapshot or the new one, never a corrupt file). `hook` observes
  /// the writer's phases; the chaos harness uses it to kill
  /// mid-checkpoint at a seeded phase. Thread-safe; may run while
  /// queries are in flight (the export is a point-in-time copy).
  Status SaveWarmState(const std::string& path,
                       const persist::CheckpointHook& hook = nullptr);

  /// Restores a checkpoint written by SaveWarmState. Returns the
  /// number of records restored. Fingerprint mismatch (different
  /// graph, layout epoch, or measure) is a SILENT cold start: OK with
  /// 0 restored and persist.restore.rejects ticked — byte-identity
  /// must never depend on whose snapshot is lying around. A missing
  /// file is kNotFound (the ordinary cold start); a corrupt file is a
  /// typed error and restores nothing. Restored answers are
  /// byte-identical to cold execution (tests/persist_test.cc).
  Result<int64_t> LoadWarmState(const std::string& path);

 private:
  class StateAdapter;  // BatchStateProvider over the cache
  class TableAdapter;  // EdgeScoreTableProvider over the cache

  CacheKey BaseKey(CachePayload kind) const;

  /// Key of the batch states whose rows cover P, over the cache's
  /// interned copy of P; set `seed` to a target.
  CacheKey StatesKey(const NodeSet& P);

  /// Seeds slot i of `states` with the cached batch state of (Q[i], P)
  /// when its level is at most d_, its row covers P and it fits the
  /// states' budget; returns each slot's imported level (0 = cold). The
  /// slot shares the cached snapshot; nothing is copied. One batched
  /// lookup (ScoreCache::GetMany) covers every target. The one import
  /// step of the two-way executor and of PJ-i's query edges, which both
  /// run it before they take or sweep their Y-bound table: inserting a
  /// swept table could evict the states first.
  std::vector<int> ImportStates(const NodeSet& P, const NodeSet& Q,
                                BackwardBatchStates& states);

  /// Hands every slot of `states` deeper than `imported_level` to the
  /// cache, deepest-wins (ScoreCache::PutDeepest): a state below d with
  /// its mass, one at d row-only. Every such state is a completed level,
  /// so this is safe after a degraded or cancelled run too. Returns the
  /// number written. Shared like ImportStates.
  int64_t WriteBackStates(const NodeSet& P, const NodeSet& Q,
                          BackwardBatchStates& states,
                          std::span<const int> imported_level);

  /// Key of a depth-d_ payload over two node sets (NL edge tables,
  /// Y-bound tables), over the cache's interned copies of both.
  CacheKey SetsKey(CachePayload kind, const NodeSet& A, const NodeSet& B);

  /// The Y-bound table of (P, Q) at depth d_, shared by two-way and
  /// PJ-i queries through the cache's kYBound entry: a hit, or a fresh
  /// sweep under `exec`, cached only when complete (an abandoned sweep
  /// is invalid for every later query). `*cached` reports which.
  std::shared_ptr<const CachedYBound> YBoundFor(const NodeSet& P,
                                                const NodeSet& Q,
                                                const ExecContext* exec,
                                                bool* cached);

  Result<std::vector<ScoredPair>> RunTwoWay(const NodeSet& P,
                                            const NodeSet& Q, std::size_t k,
                                            QueryStats* stats,
                                            const ExecContext* exec);

  /// Folds a finished run's outcome into the service counters.
  void RecordOutcome(const Status& status, const QueryStats& qs,
                     const ExecContext* exec);

  /// End-of-query observability fold, shared by TwoWay and Nway: the
  /// latency histogram, per-query registry counters, trace rollups
  /// into `qs`, and the slow-query capture.
  void FinishQuery(const char* kind, int64_t start_ns, const Status& status,
                   QueryStats& qs, obs::Trace* trace);

  const Graph& g_;
  DhtParams params_;
  int d_;
  Options options_;
  uint64_t graph_fp_;
  ScoreCache cache_;
  ThreadPool pool_;
  AdmissionController admission_;
  std::unique_ptr<StateAdapter> states_;
  std::unique_ptr<TableAdapter> tables_;
  std::atomic<int64_t> stat_degraded_{0};
  std::atomic<int64_t> stat_cancelled_{0};
  std::atomic<int64_t> stat_deadline_{0};
  std::atomic<int64_t> stat_effort_{0};
  std::atomic<int64_t> stat_exceptions_{0};

  // ------------------------------------------------- observability
  const obs::Clock* clock_;  // injected or SystemClock; never null
  obs::MetricsRegistry metrics_;
  obs::SlowQueryLog slow_log_;
  persist::PersistMetrics persist_metrics_{metrics_};
  // Hot-path handles resolved once at construction (registry lookups
  // take a mutex; these do not).
  obs::Counter* m_queries_twoway_;
  obs::Counter* m_queries_nway_;
  obs::Counter* m_query_errors_;
  obs::Counter* m_query_degraded_;
  obs::Counter* m_query_cancelled_;
  obs::Counter* m_targets_warm_;
  obs::Counter* m_targets_cold_;
  obs::Counter* m_state_hits_;
  obs::Counter* m_state_misses_;
  obs::Counter* m_walk_steps_;
  obs::Counter* m_deepen_rounds_;
  obs::Histogram* h_query_latency_;
  obs::Histogram* h_deepen_frontier_;
};

}  // namespace dhtjoin::serve

#endif  // DHTJOIN_SERVE_SESSION_H_
