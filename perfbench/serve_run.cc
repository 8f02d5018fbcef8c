#include "serve_run.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/coordinator.h"
#include "cluster/wire.h"
#include "cluster/worker.h"
#include "core/partial_join.h"
#include "dht/backward_batch.h"
#include "dht/bounds.h"
#include "graph/graph_io.h"
#include "join2/b_idj.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "serve/session.h"

namespace dhtjoin::perfbench {
namespace {

using SteadyClock = std::chrono::steady_clock;

/// Set-ups are timed in two batches, before and after the closed loop
/// of an untraced run, and the fastest is reported. A batch holds at
/// least kSetupRepeats set-ups and lasts at least kSetupBatchNanos, so a
/// batch samples the host over two seconds, not an instant.
constexpr int kSetupRepeats = 5;
constexpr int64_t kSetupBatchNanos = 2'000'000'000;
/// Requests each single-client traced pass replays (a stream prefix).
constexpr std::size_t kTracedQueries = 48;
/// Distinct (P, Q) pairs the direct-library probes time per pass.
constexpr std::size_t kProbePairs = 12;
/// Repetitions inside one wire-codec span (a single encode is ~1 us).
constexpr int kCodecReps = 16;
constexpr int kPings = 8;

int64_t NanosSince(SteadyClock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now() - t0)
      .count();
}

/// Peak resident set (VmHWM) of this process, in bytes; 0 when unreadable.
int64_t PeakRssBytes() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      int64_t kb = 0;
      in >> kb;
      return kb * 1024;
    }
    in.ignore(1 << 20, '\n');
  }
  return 0;
}

/// The inputs one set-up loads: graph, node sets, resolved templates.
struct Loaded {
  Graph g;
  std::vector<ResolvedTemplate> templates;
};

Result<std::unique_ptr<Loaded>> LoadInputs(const InputPaths& paths) {
  auto in = std::make_unique<Loaded>();
  DHTJOIN_ASSIGN_OR_RETURN(in->g, LoadEdgeList(paths.graph()));
  DHTJOIN_ASSIGN_OR_RETURN(std::vector<NodeSet> sets,
                           LoadNodeSets(paths.sets()));
  DHTJOIN_ASSIGN_OR_RETURN(std::vector<Template> templates,
                           ReadTemplates(paths.templates()));
  DHTJOIN_ASSIGN_OR_RETURN(in->templates, ResolveTemplates(templates, sets));
  return in;
}

/// Per-query layer stats of a traced pass.
struct QueryRecord {
  std::size_t tid = 0;
  int64_t client_ns = 0;
  int64_t service_ns = 0;
  int64_t walk_steps = 0;
  int64_t warm_targets = 0;
  int64_t cold_targets = 0;
  int64_t ybound_cached = 0;
  int64_t table_hits = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t attempts = 0;
  int64_t hedged = 0;
  int64_t hedge_won = 0;
  int64_t failover = 0;
  int64_t local_fallback = 0;
  int64_t worker = -1;
};

/// One answered query; rendered for the oracle only after it was timed.
struct Outcome {
  Status status;
  std::vector<ScoredPair> pairs;    // two-way answer
  std::vector<TupleAnswer> tuples;  // n-way answer
};

/// The system under test: the loaded inputs and either an in-process
/// service or a coordinator in front of forked workers (exactly one of
/// `service` and `coord` is set).
struct Target {
  Target() = default;
  Target(const Target&) = delete;
  Target& operator=(const Target&) = delete;
  ~Target() { StopWorkers(/*graceful=*/false); }

  /// Disconnects and stops every worker, waiting for each to exit.
  void StopWorkers(bool graceful) {
    coord.reset();
    for (const cluster::SpawnedWorker& w : workers) {
      if (graceful) {
        (void)cluster::StopWorkerProcess(w, 5000);
      } else {
        cluster::KillWorkerProcess(w);
      }
    }
    workers.clear();
  }

  /// The in-process cache's counters; all zero on the cluster.
  serve::CacheStats Cache() const {
    return service != nullptr ? service->cache_stats() : serve::CacheStats{};
  }

  std::unique_ptr<Loaded> in;
  std::unique_ptr<serve::DhtJoinService> service;
  std::vector<cluster::SpawnedWorker> workers;
  std::unique_ptr<cluster::ClusterCoordinator> coord;
};

serve::DhtJoinService::Options ServiceOptions(bool traced) {
  serve::DhtJoinService::Options o;
  o.num_threads = kPoolThreads;
  if (traced) {
    o.trace_queries = true;
    o.slow_query_nanos = 1;  // capture every query's span tree
    o.slow_query_capacity = kTracedQueries;
  }
  return o;
}

Outcome RunOnService(serve::DhtJoinService& service, const ResolvedTemplate& t,
                     QueryRecord* rec) {
  serve::QueryStats qs;
  serve::QueryOptions qopts;
  qopts.stats = &qs;
  Outcome out;
  if (t.kind == Template::Kind::kTwoWay) {
    auto r = service.SubmitTwoWay(t.P, t.Q, kTopK, qopts).get();
    out.status = r.status();
    if (r.ok()) out.pairs = std::move(*r);
  } else {
    const auto algo =
        t.kind == Template::Kind::kNestedLoop
            ? serve::DhtJoinService::NwayAlgo::kNestedLoop
            : serve::DhtJoinService::NwayAlgo::kPartialJoinIncremental;
    auto r = service
                 .SubmitNway(t.query, AggregateFor(t.sum_aggregate), kTopK,
                             algo, qopts)
                 .get();
    out.status = r.status();
    if (r.ok()) out.tuples = std::move(*r);
  }
  if (rec != nullptr) {
    rec->service_ns = static_cast<int64_t>(qs.seconds * 1e9);
    rec->walk_steps = qs.join.walk_steps;
    rec->warm_targets = qs.warm_targets;
    rec->cold_targets = qs.cold_targets;
    rec->ybound_cached = qs.ybound_cached ? 1 : 0;
    rec->table_hits = qs.table_hits;
  }
  return out;
}

Outcome RunOnCluster(cluster::ClusterCoordinator& coord,
                     const ResolvedTemplate& t, QueryRecord* rec) {
  cluster::ClusterQueryStats cqs;
  auto r = coord.TwoWay(t.P, t.Q, kTopK, &cqs);
  Outcome out;
  out.status = r.status();
  if (r.ok()) out.pairs = std::move(*r);
  if (rec != nullptr) {
    rec->walk_steps = cqs.walk_steps;
    rec->warm_targets = cqs.warm_targets;
    rec->cold_targets = cqs.cold_targets;
    rec->attempts = cqs.attempts;
    rec->hedged = cqs.hedged ? 1 : 0;
    rec->hedge_won = cqs.hedge_won ? 1 : 0;
    rec->failover = cqs.failover ? 1 : 0;
    rec->local_fallback = cqs.local_fallback ? 1 : 0;
    rec->worker = cqs.worker_index;
  }
  return out;
}

/// Serves template `tid` once; fills `rec` when it is set.
Outcome RunQuery(Target& target, std::size_t tid, QueryRecord* rec) {
  const ResolvedTemplate& t = target.in->templates[tid];
  return target.coord != nullptr ? RunOnCluster(*target.coord, t, rec)
                                 : RunOnService(*target.service, t, rec);
}

/// Forks the workers, then connects the coordinator. Must run while
/// this process has no other threads.
Status StartCluster(Target& t) {
  std::vector<cluster::WorkerEndpoint> endpoints;
  for (int w = 0; w < kClusterWorkers; ++w) {
    cluster::WorkerOptions wopts;
    wopts.service.num_threads = kWorkerPoolThreads;
    DHTJOIN_ASSIGN_OR_RETURN(
        cluster::SpawnedWorker worker,
        cluster::SpawnWorkerProcess(t.in->g, BenchParams(), kDepth, wopts));
    t.workers.push_back(worker);
    endpoints.push_back(cluster::WorkerEndpoint{worker.port});
  }
  cluster::CoordinatorOptions copts;
  copts.local_service.num_threads = 1;
  t.coord = std::make_unique<cluster::ClusterCoordinator>(
      t.in->g, BenchParams(), kDepth, std::move(endpoints), copts);
  return t.coord->PingAll();
}

/// One timed set-up: load the files, then build the service
/// (in-process) or spawn the workers and connect (cluster).
Result<std::unique_ptr<Target>> SetUp(const InputPaths& paths, bool cluster,
                                      bool traced, int64_t* setup_ns) {
  auto target = std::make_unique<Target>();
  const auto t0 = SteadyClock::now();
  DHTJOIN_ASSIGN_OR_RETURN(target->in, LoadInputs(paths));
  if (cluster) {
    DHTJOIN_RETURN_NOT_OK(StartCluster(*target));
  } else {
    target->service = std::make_unique<serve::DhtJoinService>(
        target->in->g, BenchParams(), kDepth, ServiceOptions(traced));
  }
  if (setup_ns != nullptr) *setup_ns = NanosSince(t0);
  return target;
}

/// Times one batch of fresh untraced in-process set-ups, appending each
/// time to `setup_ns`; returns the last set-up.
Result<std::unique_ptr<Target>> TimeSetUps(const InputPaths& paths,
                                           std::vector<int64_t>& setup_ns) {
  std::unique_ptr<Target> target;
  const auto batch_start = SteadyClock::now();
  for (int rep = 0;
       rep < kSetupRepeats || NanosSince(batch_start) < kSetupBatchNanos;
       ++rep) {
    target.reset();  // the previous set-up's threads end here
    int64_t ns = 0;
    DHTJOIN_ASSIGN_OR_RETURN(target, SetUp(paths, false, false, &ns));
    setup_ns.push_back(ns);
  }
  return target;
}

template <typename T>
std::string IntArray(const std::vector<T>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(values[i]);
  }
  return out + "]";
}

std::string CountersJson(const std::map<std::string, int64_t>& counters) {
  obs::JsonObject o;
  for (const auto& [name, value] : counters) o.Set(name, value);
  return o.ToString();
}

/// Counts one answer against the oracle.
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t shed = 0;
  int64_t mismatches = 0;

  void Add(const Outcome& out, const std::string& reference) {
    ++attempted;
    if (out.status.code() == StatusCode::kResourceExhausted) {
      ++shed;
    } else if (!out.status.ok()) {
      ++failed;
      std::fprintf(stderr, "query failed: %s\n",
                   out.status.ToString().c_str());
    } else if ((out.tuples.empty() ? CanonicalAnswer(out.pairs)
                                   : CanonicalAnswer(out.tuples)) !=
               reference) {
      ++mismatches;
    }
  }
  void Merge(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    shed += o.shed;
    mismatches += o.mismatches;
  }
  void Write(obs::JsonObject& doc) const {
    doc.Set("attempted", attempted)
        .Set("failed", failed)
        .Set("shed", shed)
        .Set("mismatches", mismatches);
  }
};

// ------------------------------------------------------------ untraced

Status RunUntraced(const WorkloadSpec& spec, const InputPaths& paths,
                   double seconds, const std::vector<std::size_t>& stream,
                   const std::vector<std::string>& refs) {
  std::vector<int64_t> setup_ns;
  DHTJOIN_ASSIGN_OR_RETURN(std::unique_ptr<Target> target,
                           TimeSetUps(paths, setup_ns));

  // Closed loop: each client submits its next request only after its
  // previous answer arrived; requests are taken from the shared stream
  // in order, wrapping around past its end. Each latency is recorded
  // with the request's stream position, so the statistics can keep
  // whole stream blocks (each block holds the workload's exact mix).
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  Tally total;
  std::vector<int64_t> latency_ns;
  std::vector<std::size_t> positions;
  const auto start = SteadyClock::now();
  const auto stop_at =
      start + std::chrono::duration_cast<SteadyClock::duration>(
                  std::chrono::duration<double>(seconds));
  auto client = [&] {
    Tally tally;
    std::vector<int64_t> lat;
    std::vector<std::size_t> pos;
    while (SteadyClock::now() < stop_at) {
      const std::size_t i = next.fetch_add(1);
      const std::size_t tid = stream[i % stream.size()];
      const auto t0 = SteadyClock::now();
      Outcome out = RunQuery(*target, tid, nullptr);
      lat.push_back(NanosSince(t0));
      pos.push_back(i);
      tally.Add(out, refs[tid]);
    }
    const std::lock_guard<std::mutex> lock(mu);
    total.Merge(tally);
    latency_ns.insert(latency_ns.end(), lat.begin(), lat.end());
    positions.insert(positions.end(), pos.begin(), pos.end());
  };
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) clients.emplace_back(client);
  for (std::thread& c : clients) c.join();
  const int64_t wall_ns = NanosSince(start);

  const int64_t rss = PeakRssBytes();
  const serve::CacheStats cache = target->Cache();
  const std::size_t block = StreamBlock(spec, target->in->templates.size());
  target.reset();
  // A second batch of set-ups, `seconds` after the first: a slow spell
  // of the host rarely covers both.
  DHTJOIN_RETURN_NOT_OK(TimeSetUps(paths, setup_ns).status());

  obs::JsonObject doc;
  doc.Set("mode", std::string("untraced"))
      .SetRaw("setup_ns", IntArray(setup_ns))
      .SetRaw("latency_ns", IntArray(latency_ns))
      .SetRaw("positions", IntArray(positions))
      .Set("block", static_cast<int64_t>(block))
      .Set("wall_ns", wall_ns)
      .Set("peak_rss_bytes", rss)
      .Set("cache_hits", cache.hits)
      .Set("cache_misses", cache.misses)
      .Set("cache_evictions", cache.evictions);
  total.Write(doc);
  obs::WriteJsonFile(paths.dir + "/result.json", doc.ToString());
  return Status::OK();
}

// -------------------------------------------------------------- traced

/// Everything one traced pass measures.
struct Pass {
  std::vector<QueryRecord> records;
  std::vector<std::string> service_traces;
  std::map<std::string, int64_t> counters;  // must repeat exactly
  std::map<std::string, double> totals;     // informative, not compared
  Tally tally;
};

/// Distinct (P, Q) operand pairs reached by the pass's templates: the
/// two-way templates themselves, or the query edges of PJ-i templates.
std::vector<std::pair<const NodeSet*, const NodeSet*>> ProbePairs(
    const Loaded& in, const std::vector<std::size_t>& tids) {
  std::vector<std::pair<const NodeSet*, const NodeSet*>> pairs;
  auto add = [&](const NodeSet* p, const NodeSet* q) {
    for (const auto& [a, b] : pairs) {
      if (a->name() == p->name() && b->name() == q->name()) return;
    }
    if (pairs.size() < kProbePairs) pairs.emplace_back(p, q);
  };
  for (std::size_t tid : tids) {
    const ResolvedTemplate& t = in.templates[tid];
    if (t.kind == Template::Kind::kTwoWay) {
      add(&t.P, &t.Q);
    } else if (t.kind == Template::Kind::kPartialJoin) {
      for (const JoinEdge& e : t.query.edges()) {
        add(&t.query.set(e.left), &t.query.set(e.right));
      }
    }
  }
  return pairs;
}

/// Times the layer entry points of dht/, join2/ and core/ directly on
/// a cold library, one bench span per call (span attributes carry the
/// call's work counts).
void ProbeLibrary(const Loaded& in, const std::vector<std::size_t>& tids,
                  obs::Trace& trace, Pass& pass) {
  const DhtParams params = BenchParams();
  for (const auto& [P, Q] : ProbePairs(in, tids)) {
    {
      obs::ScopedSpan span(&trace, "dht.ybound");
      YBoundTable table(in.g, params, kDepth, *P, *Q);
      span.SetAttr("edges", table.edges_relaxed());
      pass.counters["dht.ybound_edges"] += table.edges_relaxed();
    }
    {
      BackwardWalkerBatch batch(in.g, {.num_threads = 1});
      obs::ScopedSpan span(&trace, "dht.batch");
      batch.Run(params, kDepth, Q->nodes(), P->nodes());
      span.SetAttr("edges", batch.edges_relaxed());
      pass.counters["dht.batch_edges"] += batch.edges_relaxed();
    }
    BIdjJoin join;
    obs::ScopedSpan span(&trace, "join2.bidj");
    const bool ok = join.Run(in.g, params, kDepth, *P, *Q, kTopK).ok();
    const TwoWayJoinStats& st = join.stats();
    span.SetAttr("walk_steps", st.walk_steps);
    span.SetAttr("rounds", static_cast<int64_t>(
                               st.pruned_fraction_per_iteration.size()));
    span.SetAttr("barriers", st.pool_barriers);
    span.SetAttr("pruned", st.pruned_fraction_per_iteration.empty()
                               ? 0.0
                               : st.pruned_fraction_per_iteration.back());
    pass.counters["join2.bidj_walk_steps"] += st.walk_steps;
    if (!ok) ++pass.tally.failed;
  }
  // PJ-i's rank join: pulls from a direct cold PartialJoin per template.
  std::vector<std::size_t> seen;
  for (std::size_t tid : tids) {
    const ResolvedTemplate& t = in.templates[tid];
    if (t.kind != Template::Kind::kPartialJoin ||
        std::find(seen.begin(), seen.end(), tid) != seen.end()) {
      continue;
    }
    seen.push_back(tid);
    PartialJoin join(PartialJoin::Options{.m = kPartialM, .incremental = true});
    obs::ScopedSpan span(&trace, "rankjoin.pji");
    const bool ok = join.Run(in.g, params, kDepth, t.query,
                             AggregateFor(t.sum_aggregate), kTopK)
                        .ok();
    int64_t pulls = 0, beyond = 0;
    for (int64_t v : join.stats().pulls_per_edge) pulls += v;
    for (int64_t v : join.stats().beyond_m_per_edge) beyond += v;
    span.SetAttr("pulls", pulls);
    span.SetAttr("beyond_m", beyond);
    pass.counters["rankjoin.pulls"] += pulls;
    pass.counters["rankjoin.beyond_m"] += beyond;
    if (!ok) ++pass.tally.failed;
  }
}

/// Encodes and decodes the pass's real requests and replies with the
/// cluster wire codec.
void ProbeWireCodec(const Loaded& in,
                    const std::vector<std::vector<ScoredPair>>& answers,
                    const std::vector<std::size_t>& tids, obs::Trace& trace,
                    Pass& pass) {
  for (std::size_t i = 0; i < tids.size(); ++i) {
    const ResolvedTemplate& t = in.templates[tids[i]];
    if (t.kind != Template::Kind::kTwoWay) continue;
    cluster::TwoWayWireRequest req;
    req.params_fp = cluster::ParamsFingerprint(BenchParams(), kDepth);
    for (ExtNodeId p : t.P) req.p_ids.push_back(p.value());
    for (ExtNodeId q : t.Q) req.q_ids.push_back(q.value());
    req.k = kTopK;
    cluster::TwoWayWireReply reply;
    reply.pairs = answers[i];
    std::vector<uint8_t> req_bytes, reply_bytes;
    {
      obs::ScopedSpan span(&trace, "cluster.encode");
      for (int r = 0; r < kCodecReps; ++r) {
        req_bytes = cluster::EncodeTwoWayRequest(req);
        reply_bytes = cluster::EncodeTwoWayReply(reply);
      }
      span.SetAttr("reps", int64_t{kCodecReps});
    }
    bool decoded = true;
    {
      obs::ScopedSpan span(&trace, "cluster.decode");
      for (int r = 0; r < kCodecReps; ++r) {
        decoded = decoded && cluster::DecodeTwoWayRequest(req_bytes).ok() &&
                  cluster::DecodeTwoWayReply(reply_bytes).ok();
      }
      span.SetAttr("reps", int64_t{kCodecReps});
      span.SetAttr("reply_bytes", static_cast<int64_t>(reply_bytes.size()));
    }
    pass.counters["cluster.reply_bytes"] +=
        static_cast<int64_t>(reply_bytes.size());
    if (!decoded) ++pass.tally.failed;
  }
}

/// persist/: saves a service's warm state and restores it into a fresh
/// service, one span each.
Status ProbePersist(const Loaded& in, serve::DhtJoinService& source,
                    const std::string& path, obs::Trace& trace, Pass& pass) {
  {
    obs::ScopedSpan span(&trace, "persist.save");
    DHTJOIN_RETURN_NOT_OK(source.SaveWarmState(path));
    const auto bytes = static_cast<int64_t>(std::filesystem::file_size(path));
    span.SetAttr("bytes", bytes);
    pass.counters["persist.snapshot_bytes"] = bytes;
  }
  serve::DhtJoinService fresh(in.g, BenchParams(), kDepth,
                              serve::DhtJoinService::Options{.num_threads = 1});
  obs::ScopedSpan span(&trace, "persist.load");
  DHTJOIN_ASSIGN_OR_RETURN(int64_t restored, fresh.LoadWarmState(path));
  span.SetAttr("restored", restored);
  pass.counters["persist.restored_entries"] = restored;
  return Status::OK();
}

/// One single-client in-process pass over the stream prefix. `traced`
/// turns on the service's span trees and the benchmark's layer probes.
Result<Pass> RunPass(const InputPaths& paths,
                     const std::vector<std::size_t>& prefix,
                     const std::vector<std::string>& refs, bool traced,
                     obs::Trace& trace) {
  Pass pass;
  DHTJOIN_ASSIGN_OR_RETURN(std::unique_ptr<Target> target,
                           SetUp(paths, false, traced, nullptr));
  std::vector<std::vector<ScoredPair>> answers;
  for (std::size_t tid : prefix) {
    QueryRecord rec;
    rec.tid = tid;
    const serve::CacheStats before = target->Cache();
    obs::ScopedSpan span(traced ? &trace : nullptr, "client.query");
    const auto t0 = SteadyClock::now();
    Outcome out = RunQuery(*target, tid, &rec);
    rec.client_ns = NanosSince(t0);
    span.EndNow();
    const serve::CacheStats after = target->Cache();
    rec.cache_hits = after.hits - before.hits;
    rec.cache_misses = after.misses - before.misses;
    pass.tally.Add(out, refs[tid]);
    pass.records.push_back(rec);
    answers.push_back(std::move(out.pairs));
  }
  if (!traced) return pass;

  for (const QueryRecord& r : pass.records) {
    pass.counters["serve.walk_steps"] += r.walk_steps;
    pass.counters["serve.warm_targets"] += r.warm_targets;
    pass.counters["serve.cold_targets"] += r.cold_targets;
    pass.counters["serve.table_hits"] += r.table_hits;
  }
  const Loaded& in = *target->in;
  serve::DhtJoinService& service = *target->service;
  const serve::CacheStats cs = service.cache_stats();
  pass.counters["serve.cache_hits"] = cs.hits;
  pass.counters["serve.cache_misses"] = cs.misses;
  pass.counters["serve.cache_evictions"] = cs.evictions;
  pass.counters["serve.cache_admission_rejects"] = cs.admission_rejects;
  pass.totals["serve.cache_resident_bytes"] =
      static_cast<double>(cs.resident_bytes);
  const serve::ServiceStats ss = service.service_stats();
  pass.totals["serve.admission_shed"] = static_cast<double>(
      ss.admission.shed_capacity + ss.admission.shed_cost +
      ss.admission.shed_expired);
  const obs::MetricsSnapshot m = service.SnapshotMetrics();
  if (const obs::HistogramSnapshot* h =
          m.FindHistogram("serve.pool.queue_wait_ns")) {
    pass.totals["serve.pool_queue_wait_ns_mean"] = h->Mean();
  }
  for (const obs::SlowQueryLog::Entry& e : service.slow_queries().Dump()) {
    pass.service_traces.push_back(e.trace_json);
  }
  DHTJOIN_RETURN_NOT_OK(
      ProbePersist(in, service, paths.dir + "/traced.snap", trace, pass));
  ProbeWireCodec(in, answers, prefix, trace, pass);
  ProbeLibrary(in, prefix, trace, pass);
  return pass;
}

/// The prefix once more, single client, through a ClusterCoordinator
/// over loopback to kClusterWorkers forked workers (default retry and
/// hedge policies), then kPings PingAll round trips. Hedges are timing
/// driven, so this pass's counters are reported but not compared.
Result<Pass> RunClusterPass(const InputPaths& paths,
                            const std::vector<std::size_t>& prefix,
                            const std::vector<std::string>& refs,
                            obs::Trace& trace) {
  Pass pass;
  DHTJOIN_ASSIGN_OR_RETURN(std::unique_ptr<Target> target,
                           SetUp(paths, true, false, nullptr));
  for (std::size_t tid : prefix) {
    QueryRecord rec;
    rec.tid = tid;
    const auto t0 = SteadyClock::now();
    Outcome out = RunQuery(*target, tid, &rec);
    rec.client_ns = NanosSince(t0);
    pass.tally.Add(out, refs[tid]);
    pass.records.push_back(rec);
  }
  for (int i = 0; i < kPings; ++i) {
    obs::ScopedSpan span(&trace, "cluster.ping");
    DHTJOIN_RETURN_NOT_OK(target->coord->PingAll());
  }
  target->StopWorkers(/*graceful=*/true);
  return pass;
}

std::string RecordsJson(const std::vector<QueryRecord>& records,
                        const Loaded& in) {
  std::vector<obs::JsonObject> items;
  for (const QueryRecord& r : records) {
    const Template::Kind kind = in.templates[r.tid].kind;
    obs::JsonObject o;
    o.Set("kind", std::string(KindName(kind)))
        .Set("edges", static_cast<int64_t>(in.templates[r.tid].query.edges().size()))
        .Set("client_ns", r.client_ns)
        .Set("service_ns", r.service_ns)
        .Set("walk_steps", r.walk_steps)
        .Set("warm_targets", r.warm_targets)
        .Set("cold_targets", r.cold_targets)
        .Set("ybound_cached", r.ybound_cached)
        .Set("table_hits", r.table_hits)
        .Set("cache_hits", r.cache_hits)
        .Set("cache_misses", r.cache_misses)
        .Set("attempts", r.attempts)
        .Set("hedged", r.hedged)
        .Set("hedge_won", r.hedge_won)
        .Set("failover", r.failover)
        .Set("local_fallback", r.local_fallback)
        .Set("worker", r.worker);
    items.push_back(std::move(o));
  }
  return obs::JsonArray(items);
}

Status RunTraced(const WorkloadSpec& spec, const InputPaths& paths,
                 const std::vector<std::size_t>& stream,
                 const std::vector<std::string>& refs) {
  std::vector<std::size_t> prefix;
  for (std::size_t i = 0; i < kTracedQueries; ++i) {
    prefix.push_back(stream[i % stream.size()]);
  }
  // The benchmark's own spans: one trace per pass, kept in memory and
  // written out once at the end.
  obs::Trace trace(obs::SystemClock::Get());
  obs::Trace repeat_trace(obs::SystemClock::Get());
  int64_t load_ns = 0;
  std::unique_ptr<Loaded> in;
  {
    obs::ScopedSpan span(&trace, "graph.load");
    const auto t0 = SteadyClock::now();
    DHTJOIN_ASSIGN_OR_RETURN(in, LoadInputs(paths));
    load_ns = NanosSince(t0);
  }
  // The cluster pass forks its workers, so it runs first, while this
  // process has no other threads.
  Pass routed;
  if (spec.dataset == Dataset::kDblp) {
    DHTJOIN_ASSIGN_OR_RETURN(routed,
                             RunClusterPass(paths, prefix, refs, trace));
  }
  DHTJOIN_ASSIGN_OR_RETURN(Pass untraced,
                           RunPass(paths, prefix, refs, false, trace));
  DHTJOIN_ASSIGN_OR_RETURN(Pass first,
                           RunPass(paths, prefix, refs, true, trace));
  DHTJOIN_ASSIGN_OR_RETURN(Pass second,
                           RunPass(paths, prefix, refs, true, repeat_trace));

  std::vector<int64_t> untraced_ns;
  for (const QueryRecord& r : untraced.records) {
    untraced_ns.push_back(r.client_ns);
  }
  Tally total = untraced.tally;
  total.Merge(first.tally);
  total.Merge(second.tally);
  total.Merge(routed.tally);
  obs::JsonObject totals;
  for (const auto& [name, value] : first.totals) totals.Set(name, value);
  std::string service_traces = "[";
  for (std::size_t i = 0; i < first.service_traces.size(); ++i) {
    if (i > 0) service_traces += ", ";
    service_traces += first.service_traces[i];
  }
  service_traces += "]";

  obs::JsonObject doc;
  doc.Set("mode", std::string("traced"))
      .Set("graph_load_ns", load_ns)
      .SetRaw("untraced_client_ns", IntArray(untraced_ns))
      .SetRaw("queries", RecordsJson(first.records, *in))
      .SetRaw("cluster_queries", RecordsJson(routed.records, *in))
      .SetRaw("totals", totals.ToString())
      .SetRaw("counters", CountersJson(first.counters))
      .SetRaw("counters_repeat", CountersJson(second.counters))
      .SetRaw("bench_trace", trace.ToJson())
      .SetRaw("service_traces", service_traces);
  total.Write(doc);
  obs::WriteJsonFile(paths.dir + "/result.json", doc.ToString());
  return Status::OK();
}

}  // namespace

Status Serve(const WorkloadSpec& spec, const InputPaths& paths,
             double seconds, bool trace) {
  DHTJOIN_ASSIGN_OR_RETURN(std::vector<std::size_t> stream,
                           ReadStream(paths.stream()));
  DHTJOIN_ASSIGN_OR_RETURN(std::vector<std::string> refs,
                           ReadLines(paths.references()));
  return trace ? RunTraced(spec, paths, stream, refs)
               : RunUntraced(spec, paths, seconds, stream, refs);
}

}  // namespace dhtjoin::perfbench
