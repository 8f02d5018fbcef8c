#include "serve/session.h"

#include <exception>
#include <string>
#include <utility>

#include "dht/backward_batch.h"
#include "join2/b_idj.h"
#include "join2/incremental.h"
#include "obs/trace.h"
#include "serve/warm_state.h"

namespace dhtjoin::serve {

/// BatchStateProvider over the cache: PJ-i's query edges import and
/// write back the two-way executor's (target, P) batch states through
/// the same two service steps, and share its Y-bound tables.
class DhtJoinService::StateAdapter final : public BatchStateProvider {
 public:
  explicit StateAdapter(DhtJoinService* service) : service_(service) {}

  // The cache holds states and tables of the service depth only.
  void Import(const NodeSet& P, const NodeSet& Q, int d,
              BackwardBatchStates& states) override {
    if (d == service_->d_) service_->ImportStates(P, Q, states);
  }

  void WriteBack(const NodeSet& P, const NodeSet& Q, int d,
                 BackwardBatchStates& states,
                 std::span<const int> imported_level) override {
    if (d == service_->d_) {
      service_->WriteBackStates(P, Q, states, imported_level);
    }
  }

  std::shared_ptr<const YBoundTable> SharedYBound(const NodeSet& P,
                                                  const NodeSet& Q, int d,
                                                  bool* cached) override {
    if (d != service_->d_) return nullptr;
    auto entry = service_->YBoundFor(P, Q, /*exec=*/nullptr, cached);
    return {entry, &entry->table};
  }

 private:
  DhtJoinService* service_;
};

/// EdgeScoreTableProvider over the cache: NL's per-edge |L| x |R| score
/// tables, keyed by both operand sets and d.
class DhtJoinService::TableAdapter final : public EdgeScoreTableProvider {
 public:
  explicit TableAdapter(DhtJoinService* service) : service_(service) {}

  std::shared_ptr<const std::vector<double>> Fetch(
      const NodeSet& L, const NodeSet& R) override {
    auto entry = service_->cache_.GetAs<CachedTable>(
        service_->SetsKey(CachePayload::kEdgeTable, L, R));
    return entry == nullptr ? nullptr : entry->table;
  }

  void Store(const NodeSet& L, const NodeSet& R,
             std::shared_ptr<const std::vector<double>> table) override {
    service_->cache_.Put(service_->SetsKey(CachePayload::kEdgeTable, L, R),
                         std::make_shared<CachedTable>(std::move(table)));
  }

 private:
  DhtJoinService* service_;
};

DhtJoinService::DhtJoinService(const Graph& g, const DhtParams& params, int d,
                               Options options)
    : g_(g),
      params_(params),
      d_(d),
      options_(options),
      graph_fp_(GraphFingerprint(g)),
      cache_(ScoreCache::Options{
          .max_bytes = options.cache_budget_bytes == kAutotuneBudget
                           ? AutotuneStateBudgetBytes(g.num_nodes())
                           : options.cache_budget_bytes,
          .num_shards = options.cache_shards,
          .admission_bypass_bytes = options.cache_admission_bypass_bytes}),
      pool_(options.num_threads > 0 ? options.num_threads
                                    : ThreadPool::DefaultThreadCount()),
      admission_(options.admission),
      states_(std::make_unique<StateAdapter>(this)),
      tables_(std::make_unique<TableAdapter>(this)),
      clock_(options.clock != nullptr ? options.clock
                                      : obs::SystemClock::Get()),
      slow_log_(options.slow_query_capacity),
      m_queries_twoway_(metrics_.GetCounter("serve.query.twoway")),
      m_queries_nway_(metrics_.GetCounter("serve.query.nway")),
      m_query_errors_(metrics_.GetCounter("serve.query.errors")),
      m_query_degraded_(metrics_.GetCounter("serve.query.degraded")),
      m_query_cancelled_(metrics_.GetCounter("serve.query.cancelled")),
      m_targets_warm_(metrics_.GetCounter("serve.targets.warm")),
      m_targets_cold_(metrics_.GetCounter("serve.targets.cold")),
      m_state_hits_(metrics_.GetCounter("serve.state.hits")),
      m_state_misses_(metrics_.GetCounter("serve.state.misses")),
      m_walk_steps_(metrics_.GetCounter("serve.walk_steps")),
      m_deepen_rounds_(metrics_.GetCounter("serve.deepen.rounds")),
      h_query_latency_(metrics_.GetHistogram("serve.query.latency_ns")),
      h_deepen_frontier_(metrics_.GetHistogram("serve.deepen.frontier")) {
  pool_.EnableMetrics(&metrics_, clock_, "serve.pool");
}

DhtJoinService::DhtJoinService(const Graph& g, const DhtParams& params, int d)
    : DhtJoinService(g, params, d, Options()) {}

DhtJoinService::~DhtJoinService() { Drain(); }

void DhtJoinService::Drain() { pool_.Wait(); }

CacheKey DhtJoinService::BaseKey(CachePayload kind) const {
  CacheKey key;
  key.graph_fp = graph_fp_;
  key.kind = kind;
  key.params = params_;
  return key;
}

CacheKey DhtJoinService::SetsKey(CachePayload kind, const NodeSet& A,
                                 const NodeSet& B) {
  CacheKey key = BaseKey(kind);
  key.d = d_;
  key.digest_a = DigestNodes(A.nodes());
  key.digest_b = DigestNodes(B.nodes());
  key.set_a = cache_.Intern(A.nodes(), key.digest_a);
  key.set_b = cache_.Intern(B.nodes(), key.digest_b);
  return key;
}

CacheKey DhtJoinService::StatesKey(const NodeSet& P) {
  CacheKey key = BaseKey(CachePayload::kBatchState);
  key.digest_a = DigestNodes(P.nodes());
  key.set_a = cache_.Intern(P.nodes(), key.digest_a);
  return key;
}

std::vector<int> DhtJoinService::ImportStates(const NodeSet& P,
                                              const NodeSet& Q,
                                              BackwardBatchStates& states) {
  std::vector<CacheKey> keys(Q.size(), StatesKey(P));
  for (std::size_t qi = 0; qi < Q.size(); ++qi) keys[qi].seed = Q[qi];
  std::vector<std::shared_ptr<const CacheEntry>> entries(Q.size());
  cache_.GetMany(keys, entries);
  std::vector<int> imported_level(Q.size(), 0);
  for (std::size_t qi = 0; qi < Q.size(); ++qi) {
    auto entry = PayloadAs<CachedBatchState>(std::move(entries[qi]));
    if (entry != nullptr && entry->snap->level <= d_ &&
        entry->snap->row.size() == P.size() &&
        states.Import(qi, entry->snap)) {
      imported_level[qi] = entry->snap->level;
    }
  }
  return imported_level;
}

int64_t DhtJoinService::WriteBackStates(const NodeSet& P, const NodeSet& Q,
                                        BackwardBatchStates& states,
                                        std::span<const int> imported_level) {
  CacheKey key = StatesKey(P);
  int64_t written = 0;
  for (std::size_t qi = 0; qi < Q.size(); ++qi) {
    if (states.level(qi) <= imported_level[qi]) continue;
    std::shared_ptr<const BackwardBatchSnapshot> snap = states.Take(qi);
    if (snap == nullptr) continue;
    key.seed = Q[qi];
    cache_.PutDeepest(key,
                      std::make_shared<CachedBatchState>(std::move(snap)));
    ++written;
  }
  return written;
}

std::shared_ptr<const CachedYBound> DhtJoinService::YBoundFor(
    const NodeSet& P, const NodeSet& Q, const ExecContext* exec,
    bool* cached) {
  const CacheKey key = SetsKey(CachePayload::kYBound, P, Q);
  std::shared_ptr<const CachedYBound> hit = cache_.GetAs<CachedYBound>(key);
  *cached = hit != nullptr;
  if (hit != nullptr) return hit;
  auto fresh = std::make_shared<CachedYBound>(
      YBoundTable(g_, params_, d_, P, Q, exec));
  // A construction abandoned by a cooperative stop is NEVER cached: the
  // table would be invalid for every later query.
  if (fresh->table.complete()) cache_.Put(key, fresh);
  return fresh;
}

Result<std::vector<ScoredPair>> DhtJoinService::TwoWay(const NodeSet& P,
                                                       const NodeSet& Q,
                                                       std::size_t k,
                                                       QueryStats* stats,
                                                       const ExecContext* exec) {
  QueryStats local;
  QueryStats* qs = stats != nullptr ? stats : &local;
  const int64_t start_ns = clock_->NowNanos();
  // Tracing rides on the ExecContext so the engines need no extra
  // parameter; a caller without one gets a service-local context for
  // the duration of the run (its checks always pass — no deadline, no
  // token — so answers are unchanged). The trace pointer is detached
  // before the trace goes out of scope.
  obs::Trace trace_storage(clock_);
  obs::Trace* trace = nullptr;
  ExecContext local_exec;
  const ExecContext* run_exec = exec;
  if (obs::kEnabled && options_.trace_queries) {
    trace = &trace_storage;
    if (run_exec == nullptr) run_exec = &local_exec;
    run_exec->set_trace(trace);
  }
  Result<std::vector<ScoredPair>> result =
      Status::Internal("serve: unreachable");
  {
    obs::ScopedSpan root(trace, "query.twoway");
    root.SetAttr("p", static_cast<int64_t>(P.size()));
    root.SetAttr("q", static_cast<int64_t>(Q.size()));
    root.SetAttr("k", static_cast<int64_t>(k));
    result = RunTwoWay(P, Q, k, qs, run_exec);
  }
  if (run_exec != nullptr) run_exec->set_trace(nullptr);
  RecordOutcome(result.status(), *qs, run_exec);
  m_queries_twoway_->Increment();
  FinishQuery("twoway", start_ns, result.status(), *qs, trace);
  return result;
}

void DhtJoinService::RecordOutcome(const Status& status, const QueryStats& qs,
                                   const ExecContext* exec) {
  if (status.code() == StatusCode::kCancelled) {
    stat_cancelled_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (status.ok() && qs.join.partial.degraded) {
    stat_degraded_.fetch_add(1, std::memory_order_relaxed);
    if (exec != nullptr &&
        exec->stop_code() == StatusCode::kResourceExhausted) {
      stat_effort_.fetch_add(1, std::memory_order_relaxed);
    } else {
      stat_deadline_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

ServiceStats DhtJoinService::service_stats() const {
  ServiceStats s;
  s.admission = admission_.stats();
  s.degraded = stat_degraded_.load(std::memory_order_relaxed);
  s.cancelled = stat_cancelled_.load(std::memory_order_relaxed);
  s.deadline_exceeded = stat_deadline_.load(std::memory_order_relaxed);
  s.effort_exhausted = stat_effort_.load(std::memory_order_relaxed);
  s.exceptions = stat_exceptions_.load(std::memory_order_relaxed);
  return s;
}

void DhtJoinService::FinishQuery(const char* kind, int64_t start_ns,
                                 const Status& status, QueryStats& qs,
                                 obs::Trace* trace) {
  const int64_t latency_ns = clock_->NowNanos() - start_ns;
  qs.seconds = static_cast<double>(latency_ns) * 1e-9;
  h_query_latency_->Record(latency_ns);
  if (!status.ok()) m_query_errors_->Increment();
  if (status.code() == StatusCode::kCancelled) m_query_cancelled_->Increment();
  if (status.ok() && qs.join.partial.degraded) m_query_degraded_->Increment();
  m_targets_warm_->Add(qs.warm_targets);
  m_targets_cold_->Add(qs.cold_targets);
  m_state_hits_->Add(qs.join.state_hits);
  m_state_misses_->Add(qs.join.state_misses);
  m_walk_steps_->Add(qs.join.walk_steps);
  // One live_per_iteration entry per completed deepening round (the
  // initial entry is the admission frontier): per-level visibility
  // without touching the engines' hot loops.
  m_deepen_rounds_->Add(
      static_cast<int64_t>(qs.join.live_per_iteration.size()));
  for (const int64_t frontier : qs.join.live_per_iteration) {
    h_deepen_frontier_->Record(frontier);
  }
  if (trace != nullptr) {
    qs.trace_spans = trace->num_spans();
    qs.trace_rounds = trace->CountSpans("round");
    qs.trace_blocks_run = trace->SumAttr("blocks");
    qs.trace_lanes_packed = trace->SumAttr("lanes");
    qs.trace_bytes_touched = trace->SumAttr("bytes");
    if (options_.slow_query_nanos > 0 &&
        latency_ns >= options_.slow_query_nanos) {
      slow_log_.Record(kind, latency_ns, trace->ToJson());
    }
  }
}

obs::MetricsSnapshot DhtJoinService::SnapshotMetrics() {
  // Gauges mirror state owned elsewhere (cache shards, admission
  // controller, service atomics); refresh them at snapshot time
  // instead of double-counting on the query path.
  const CacheStats cs = cache_stats();
  metrics_.GetGauge("serve.cache.hits")->Set(static_cast<double>(cs.hits));
  metrics_.GetGauge("serve.cache.misses")->Set(static_cast<double>(cs.misses));
  metrics_.GetGauge("serve.cache.insertions")
      ->Set(static_cast<double>(cs.insertions));
  metrics_.GetGauge("serve.cache.evictions")
      ->Set(static_cast<double>(cs.evictions));
  metrics_.GetGauge("serve.cache.admission_rejects")
      ->Set(static_cast<double>(cs.admission_rejects));
  metrics_.GetGauge("serve.cache.resident_bytes")
      ->Set(static_cast<double>(cs.resident_bytes));
  metrics_.GetGauge("serve.cache.entries")
      ->Set(static_cast<double>(cs.entries));
  const ServiceStats ss = service_stats();
  metrics_.GetGauge("serve.admission.admitted")
      ->Set(static_cast<double>(ss.admission.admitted));
  metrics_.GetGauge("serve.admission.shed_capacity")
      ->Set(static_cast<double>(ss.admission.shed_capacity));
  metrics_.GetGauge("serve.admission.shed_cost")
      ->Set(static_cast<double>(ss.admission.shed_cost));
  metrics_.GetGauge("serve.admission.shed_expired")
      ->Set(static_cast<double>(ss.admission.shed_expired));
  metrics_.GetGauge("serve.lifecycle.degraded")
      ->Set(static_cast<double>(ss.degraded));
  metrics_.GetGauge("serve.lifecycle.cancelled")
      ->Set(static_cast<double>(ss.cancelled));
  metrics_.GetGauge("serve.lifecycle.deadline_exceeded")
      ->Set(static_cast<double>(ss.deadline_exceeded));
  metrics_.GetGauge("serve.lifecycle.effort_exhausted")
      ->Set(static_cast<double>(ss.effort_exhausted));
  metrics_.GetGauge("serve.lifecycle.exceptions")
      ->Set(static_cast<double>(ss.exceptions));
  metrics_.GetGauge("serve.slow_queries.total")
      ->Set(static_cast<double>(slow_log_.total_recorded()));
  return metrics_.Snapshot();
}

Status DhtJoinService::SaveWarmState(const std::string& path,
                                     const persist::CheckpointHook& hook) {
  persist::SnapshotFile file;
  file.graph_fp = graph_fp_;
  file.params_fp = ParamsFingerprint(params_, d_);
  std::vector<ScoreCache::ExportedEntry> entries = cache_.Export();
  file.sections.reserve(entries.size());
  for (const ScoreCache::ExportedEntry& e : entries) {
    std::vector<uint8_t> payload = EncodeCacheRecord(e.key, *e.entry);
    // Empty = not snapshotable (e.g. an abandoned Y-bound sweep).
    if (payload.empty()) continue;
    file.sections.push_back(persist::SnapshotSection{
        SectionKindFor(e.key.kind), std::move(payload)});
  }
  const std::vector<uint8_t> bytes = persist::EncodeSnapshot(file);
  const Status status = persist::WriteFileAtomic(path, bytes, hook);
  if (!status.ok()) {
    persist_metrics_.checkpoint_failures->Increment();
    return status;
  }
  persist_metrics_.checkpoint_writes->Increment();
  persist_metrics_.checkpoint_bytes->Add(static_cast<int64_t>(bytes.size()));
  return Status::OK();
}

Result<int64_t> DhtJoinService::LoadWarmState(const std::string& path) {
  Result<std::vector<uint8_t>> bytes = persist::ReadFileBytes(path);
  if (!bytes.ok()) return bytes.status();  // kNotFound = ordinary cold start
  Result<persist::SnapshotFile> decoded = persist::DecodeSnapshot(*bytes);
  if (!decoded.ok()) {
    persist_metrics_.restore_rejects->Increment();
    return decoded.status();
  }
  if (decoded->graph_fp != graph_fp_ ||
      decoded->params_fp != ParamsFingerprint(params_, d_)) {
    // Someone else's snapshot (different graph, layout epoch, or
    // measure): silently cold — restoring it could only break the
    // byte-identity invariant the cache keying protects.
    persist_metrics_.restore_rejects->Increment();
    return int64_t{0};
  }
  // Decode every record before inserting any, so a refused snapshot
  // leaves the cache as it was.
  std::vector<DecodedCacheRecord> records;
  records.reserve(decoded->sections.size());
  for (const persist::SnapshotSection& section : decoded->sections) {
    Result<DecodedCacheRecord> record =
        DecodeCacheRecord(section.kind, section.payload, graph_fp_, params_,
                          g_.num_nodes(), d_);
    if (!record.ok()) {
      // Section checksums passed but the record is structurally bad:
      // an encoder/decoder version skew. Fail closed.
      persist_metrics_.restore_rejects->Increment();
      return record.status();
    }
    records.push_back(std::move(record).value());
  }
  int64_t restored = 0;
  for (const DecodedCacheRecord& record : records) {
    // Same arbitration as live write-backs: deepest-wins for walk
    // states, resident-wins for whole tables (a live entry is never
    // staler than a checkpointed one).
    cache_.PutDeepest(record.key, record.entry);
    ++restored;
  }
  persist_metrics_.restore_hits->Add(restored);
  return restored;
}

/// The cache-aware B-IDJ (see the file comment of session.h and
/// DESIGN.md §6): join2's Algorithm-2 schedule (RunBIdjSchedule) over
/// per-target states imported from the cache, written back after the
/// run however it ended.
Result<std::vector<ScoredPair>> DhtJoinService::RunTwoWay(
    const NodeSet& P, const NodeSet& Q, std::size_t k, QueryStats* out,
    const ExecContext* exec) {
  DHTJOIN_RETURN_NOT_OK(ValidateJoinInputs(g_, params_, d_, P, Q, k));
  obs::Trace* const trace = obs::TraceOf(exec);
  QueryStats qs;

  // Import each target's cached walk state (level <= d, row pinned to
  // exactly this P — the key guarantees both), before anything this
  // query inserts can evict one of them.
  BackwardWalkerBatch batch(g_, {.num_threads = 1});
  BackwardBatchStates states(Q.size(),
                             AutotuneStateBudgetBytes(g_.num_nodes()));
  if (exec != nullptr && exec->commit_fault) {
    states.set_commit_fault(exec->commit_fault);
  }
  std::vector<int> imported_level;
  {
    obs::ScopedSpan import_span(trace, "import");
    imported_level = ImportStates(P, Q, states);
    for (int level : imported_level) qs.warm_targets += level > 0 ? 1 : 0;
    qs.cold_targets = static_cast<int64_t>(Q.size()) - qs.warm_targets;
    import_span.SetAttr("warm", qs.warm_targets);
    import_span.SetAttr("cold", qs.cold_targets);
  }

  // Y-bound table: cached whole per (P, Q, d), shared with PJ-i. An
  // abandoned construction is returned uncached; the run then degrades
  // at level 0.
  std::shared_ptr<const CachedYBound> ybound;
  if (options_.bound == UpperBoundKind::kY) {
    obs::ScopedSpan ybound_span(trace, "ybound");
    ybound = YBoundFor(P, Q, exec, &qs.ybound_cached);
    if (!qs.ybound_cached) qs.join.walk_steps += ybound->table.edges_relaxed();
    ybound_span.SetAttr("cached", int64_t{qs.ybound_cached ? 1 : 0});
  }

  Result<std::vector<ScoredPair>> result = RunBIdjSchedule(
      params_, d_, P, Q, k,
      BIdjScheduleParts{
          .ybound = ybound != nullptr ? &ybound->table : nullptr,
          .batch = &batch,
          .states = &states,
          .retune_states = true,
          .keep_states = true},
      exec, &qs.join);

  // Write back every state that got deeper than what the cache gave
  // us — also after a degraded or cancelled run: every written snapshot
  // is a COMPLETED level (interrupted blocks keep their previous one),
  // so it is bit-safe for any later query. A survivor of the final pass
  // comes back row-only (its walk is final at d_), a pruned target with
  // its mass. PutDeepest keeps the deepest walk under the shard lock
  // when concurrent sessions race on one target (DESIGN.md §6).
  {
    obs::ScopedSpan wb_span(trace, "write_back");
    wb_span.SetAttr("exported",
                    WriteBackStates(P, Q, states, imported_level));
  }
  *out = std::move(qs);
  return result;
}

Result<std::vector<TupleAnswer>> DhtJoinService::Nway(const QueryGraph& query,
                                                      const Aggregate& f,
                                                      std::size_t k,
                                                      NwayAlgo algo,
                                                      QueryStats* out) {
  QueryStats local;
  QueryStats* qs = out != nullptr ? out : &local;
  *qs = QueryStats{};
  const int64_t start_ns = clock_->NowNanos();
  // N-way tracing is root-span-only for now: the n-way executors do
  // not take an ExecContext yet (no degrade path — DESIGN.md §9), so
  // there is nothing to hang engine spans on.
  obs::Trace trace_storage(clock_);
  obs::Trace* trace = nullptr;
  if (obs::kEnabled && options_.trace_queries) trace = &trace_storage;
  Result<std::vector<TupleAnswer>> result =
      Status::Internal("nway: unreachable");
  {
    obs::ScopedSpan root(trace, "query.nway");
    root.SetAttr("k", static_cast<int64_t>(k));
    if (algo == NwayAlgo::kNestedLoop) {
      NestedLoopJoin join(NestedLoopJoin::Options{.tables = tables_.get()});
      result = join.Run(g_, params_, d_, query, f, k);
      qs->table_hits = join.stats().table_hits;
    } else {
      PartialJoin join(PartialJoin::Options{.incremental = true,
                                            .bound = options_.bound,
                                            .snapshots = states_.get()});
      result = join.Run(g_, params_, d_, query, f, k);
      const PartialJoin::Stats& js = join.stats();
      qs->join = js.join;
      qs->warm_targets = js.warm_targets;
      qs->cold_targets = js.cold_targets;
      qs->ybound_cached = js.ybound_cached;
    }
  }
  m_queries_nway_->Increment();
  FinishQuery("nway", start_ns, result.status(), *qs, trace);
  return result;
}

std::future<Result<std::vector<ScoredPair>>> DhtJoinService::SubmitTwoWay(
    NodeSet P, NodeSet Q, std::size_t k, QueryOptions qopts) {
  auto promise =
      std::make_shared<std::promise<Result<std::vector<ScoredPair>>>>();
  auto future = promise->get_future();
  // Admission runs on the SUBMITTING thread, before enqueue: a shed
  // query never occupies a pool slot, and the caller learns
  // immediately (the future is already resolved when Submit returns).
  const int64_t est =
      EstimateTwoWayCost(g_, P, Q, d_, admission_.options().sample_size);
  Status admitted = admission_.Admit(est);
  if (!admitted.ok()) {
    promise->set_value(std::move(admitted));
    return future;
  }
  pool_.Submit([this, promise, P = std::move(P), Q = std::move(Q), k,
                qopts = std::move(qopts)] {
    const int64_t start_ns = clock_->NowNanos();
    const ExecContext* exec = qopts.exec.get();
    // Deadline already expired while queued: count the shed; the run
    // below observes the sticky stop at its first check and degrades
    // at level 0 without walking anything.
    if (exec != nullptr && exec->Check() == StatusCode::kDeadlineExceeded) {
      admission_.RecordExpired();
    }
    Result<std::vector<ScoredPair>> result =
        Status::Internal("serve: unreachable");
    try {
      result = TwoWay(P, Q, k, qopts.stats, exec);
    } catch (const std::exception& e) {
      stat_exceptions_.fetch_add(1, std::memory_order_relaxed);
      result = Status::Internal(std::string("serve: worker exception: ") +
                                e.what());
    } catch (...) {
      stat_exceptions_.fetch_add(1, std::memory_order_relaxed);
      result = Status::Internal("serve: worker exception (non-std type)");
    }
    admission_.Finish((clock_->NowNanos() - start_ns) / 1000);
    promise->set_value(std::move(result));
  });
  return future;
}

std::future<Result<std::vector<TupleAnswer>>> DhtJoinService::SubmitNway(
    QueryGraph query, const Aggregate& f, std::size_t k, NwayAlgo algo,
    QueryOptions qopts) {
  auto promise =
      std::make_shared<std::promise<Result<std::vector<TupleAnswer>>>>();
  auto future = promise->get_future();
  // No cheap cost estimate exists for an arbitrary query graph yet, so
  // n-way admission uses the in-flight cap only.
  Status admitted = admission_.Admit(/*estimated_cost=*/0);
  if (!admitted.ok()) {
    promise->set_value(std::move(admitted));
    return future;
  }
  pool_.Submit([this, promise, query = std::move(query), &f, k, algo,
                qopts = std::move(qopts)] {
    const int64_t start_ns = clock_->NowNanos();
    const ExecContext* exec = qopts.exec.get();
    // The n-way executors have no degrade path yet, so an expired or
    // cancelled queued query is shed whole at dequeue.
    if (exec != nullptr) {
      StatusCode code = exec->Check();
      if (code != StatusCode::kOk) {
        if (code == StatusCode::kDeadlineExceeded) {
          admission_.RecordExpired();
          stat_deadline_.fetch_add(1, std::memory_order_relaxed);
        } else if (code == StatusCode::kCancelled) {
          stat_cancelled_.fetch_add(1, std::memory_order_relaxed);
        }
        admission_.Finish(0);
        promise->set_value(
            code == StatusCode::kCancelled
                ? Status::Cancelled("nway: cancelled while queued")
                : Status::DeadlineExceeded(
                      "nway: deadline expired while queued"));
        return;
      }
    }
    Result<std::vector<TupleAnswer>> result =
        Status::Internal("nway: unreachable");
    try {
      result = Nway(query, f, k, algo, qopts.stats);
    } catch (const std::exception& e) {
      stat_exceptions_.fetch_add(1, std::memory_order_relaxed);
      result = Status::Internal(std::string("nway: worker exception: ") +
                                e.what());
    } catch (...) {
      stat_exceptions_.fetch_add(1, std::memory_order_relaxed);
      result = Status::Internal("nway: worker exception (non-std type)");
    }
    admission_.Finish((clock_->NowNanos() - start_ns) / 1000);
    promise->set_value(std::move(result));
  });
  return future;
}

}  // namespace dhtjoin::serve
