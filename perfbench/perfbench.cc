/// \file perfbench/perfbench.cc
/// \brief Entry point of the repository benchmark binary.
///
///   perfbench prepare --workload W --seed N --dir D
///       Generates the workload's inputs into D (the seed draws the request
///       stream; graph and template pool are fixed per workload): graph and
///       node-set files, query templates, the request stream, the
///       reference answer of every template (computed once on a cold
///       library: BIdjJoin, PartialJoin, NestedLoopJoin).
///
///   perfbench serve --workload W --dir D --seconds S --trace 0|1
///       Loads only the files in D and serves them (serve_run.cc);
///       writes its raw measurements as JSON to D/result.json.
///
///   perfbench sizes --workload W --dir D
///       Prints the prepared workload's graph size, template count, and
///       cache working set against the autotuned cache budget.
///
/// perfbench/run.py drives both and turns the raw measurements into
/// the benchmark's metrics.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/nl_join.h"
#include "core/partial_join.h"
#include "datasets/dblp_like.h"
#include "datasets/yeast_like.h"
#include "graph/graph_io.h"
#include "inputs.h"
#include "join2/b_idj.h"
#include "serve/session.h"
#include "serve/workload.h"
#include "serve_run.h"
#include "util/rng.h"

namespace dhtjoin::perfbench {
namespace {

/// Requests in the generated stream; clients wrap around past the end.
constexpr std::size_t kStreamLength = 20000;
/// The graphs and template pools are fixed per workload (the generator
/// seeds the repo's paper benches use); the run's --seed draws the
/// request stream over them. Runs with different seeds therefore
/// measure one workload on different request sequences, which keeps
/// their spread down to the system's own noise.
constexpr uint64_t kDblpGraphSeed = 7;
constexpr uint64_t kYeastGraphSeed = 13;
constexpr uint64_t kTemplateSeed = 29;
/// Two-way operand size: the top-|P| members of an area by degree.
constexpr std::size_t kTwoWaySetSize = 100;
/// N-way operand sizes (PJ-i and NL templates).
constexpr std::size_t kPartialSetSize = 60;
constexpr std::size_t kNestedSetSize = 20;
constexpr int kPartialTemplates = 16;
constexpr int kNestedTemplates = 4;

struct Inputs {
  std::vector<Template> templates;
  std::vector<std::size_t> stream;
};

/// Requests per template of one stream block: Zipf(s) weights over
/// ranks 0..n-1, rounded by largest remainder to sum to `block`.
std::vector<std::size_t> ZipfQuotas(std::size_t n, double s,
                                    std::size_t block) {
  std::vector<double> exact(n);
  double total = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    exact[j] = std::pow(static_cast<double>(j + 1), -s);
    total += exact[j];
  }
  std::vector<std::size_t> quota(n);
  std::size_t assigned = 0;
  for (std::size_t j = 0; j < n; ++j) {
    exact[j] *= static_cast<double>(block) / total;
    quota[j] = static_cast<std::size_t>(exact[j]);
    assigned += quota[j];
  }
  while (assigned < block) {
    std::size_t best = 0;
    for (std::size_t j = 1; j < n; ++j) {
      if (exact[j] - static_cast<double>(quota[j]) >
          exact[best] - static_cast<double>(quota[best])) {
        best = j;
      }
    }
    ++quota[best];
    ++assigned;
  }
  return quota;
}

/// The request stream: consecutive blocks, each holding template t
/// exactly quota[t] times in a seed-shuffled order. Every window of the
/// stream thus serves the workload's mix; the seed changes the order.
std::vector<std::size_t> StratifiedStream(
    const std::vector<std::size_t>& quota, uint64_t seed) {
  std::vector<std::size_t> block;
  for (std::size_t t = 0; t < quota.size(); ++t) {
    block.insert(block.end(), quota[t], t);
  }
  Rng rng(seed);
  std::vector<std::size_t> stream;
  while (stream.size() < kStreamLength) {
    for (std::size_t i = block.size(); i > 1; --i) {
      std::swap(block[i - 1], block[rng.Below(i)]);
    }
    stream.insert(stream.end(), block.begin(), block.end());
  }
  return stream;
}

Result<Inputs> PrepareTwoWay(const WorkloadSpec& spec, uint64_t seed,
                             const InputPaths& paths) {
  DHTJOIN_ASSIGN_OR_RETURN(
      datasets::DblpLikeDataset ds,
      datasets::GenerateDblpLike(
          datasets::DblpLikeConfig{.num_authors = 15000,
                                   .seed = kDblpGraphSeed}));
  DHTJOIN_RETURN_NOT_OK(SaveEdgeList(ds.graph, paths.graph()));
  // Everything below reads the graph back from its file, exactly as the
  // serving side will.
  DHTJOIN_ASSIGN_OR_RETURN(Graph g, LoadEdgeList(paths.graph()));
  std::vector<NodeSet> sets;
  for (std::size_t i = 0; i < ds.areas.size(); ++i) {
    NodeSet top = ds.areas[i].TopByDegree(g, kTwoWaySetSize);
    sets.emplace_back("a" + std::to_string(i), top.nodes());
  }
  DHTJOIN_RETURN_NOT_OK(SaveNodeSets(sets, paths.sets()));

  // The template pool, in Zipf rank order, from the library's workload
  // generator; a long uniform draw reaches every template of the pool.
  serve::WorkloadOptions wopts;
  wopts.num_requests = kStreamLength;
  wopts.num_templates = spec.two_way_templates;
  wopts.zipf_s = 0.0;
  wopts.set_size = 0;  // the sets are already trimmed
  wopts.k = kTopK;
  wopts.seed = kTemplateSeed;
  DHTJOIN_ASSIGN_OR_RETURN(serve::ServingWorkload w,
                           serve::GenerateZipfianTwoWayWorkload(g, sets, wopts));
  Inputs in;
  in.templates.resize(w.num_templates);
  for (const serve::TwoWayRequest& r : w.requests) {
    in.templates[r.template_id].sets = {r.P.name(), r.Q.name()};
    in.templates[r.template_id].edges = {{0, 1}};
  }
  for (const Template& t : in.templates) {
    if (t.sets.empty()) return Status::Internal("template never drawn");
  }
  in.stream = StratifiedStream(
      ZipfQuotas(w.num_templates, spec.zipf_s,
                 StreamBlock(spec, w.num_templates)),
      seed);
  return in;
}

Template NwayTemplate(Template::Kind kind, int shape, bool sum,
                      const std::vector<int>& parts, std::size_t set_size) {
  Template t;
  t.kind = kind;
  t.sum_aggregate = sum;
  const int n = shape == 0 ? 3 : shape == 1 ? 4 : shape == 2 ? 3 : 4;
  for (int i = 0; i < n; ++i) {
    t.sets.push_back("p" + std::to_string(parts[static_cast<std::size_t>(i)]) +
                     "_" + std::to_string(set_size));
  }
  switch (shape) {
    case 0:  // 3-chain
      t.edges = {{0, 1}, {1, 2}};
      break;
    case 1:  // 3-star: one centre, three leaves
      t.edges = {{0, 1}, {0, 2}, {0, 3}};
      break;
    case 2:  // bidirectional triangle
      t.edges = {{0, 1}, {1, 0}, {1, 2}, {2, 1}, {0, 2}, {2, 0}};
      break;
    default:  // 4-chain
      t.edges = {{0, 1}, {1, 2}, {2, 3}};
      break;
  }
  return t;
}

Result<Inputs> PrepareNway(uint64_t seed, const InputPaths& paths) {
  DHTJOIN_ASSIGN_OR_RETURN(
      datasets::YeastLikeDataset ds,
      datasets::GenerateYeastLike(
          datasets::YeastLikeConfig{.seed = kYeastGraphSeed}));
  DHTJOIN_RETURN_NOT_OK(SaveEdgeList(ds.graph, paths.graph()));
  DHTJOIN_ASSIGN_OR_RETURN(Graph g, LoadEdgeList(paths.graph()));
  std::vector<NodeSet> sets;
  for (std::size_t i = 0; i < ds.partitions.size(); ++i) {
    for (std::size_t size : {kPartialSetSize, kNestedSetSize}) {
      NodeSet top = ds.partitions[i].TopByDegree(g, size);
      sets.emplace_back("p" + std::to_string(i) + "_" + std::to_string(size),
                        top.nodes());
    }
  }
  DHTJOIN_RETURN_NOT_OK(SaveNodeSets(sets, paths.sets()));

  Rng pool_rng(kTemplateSeed);
  auto distinct_parts = [&] {
    std::vector<int> parts;
    while (parts.size() < 4) {
      const int p = static_cast<int>(pool_rng.Below(ds.partitions.size()));
      bool dup = false;
      for (int q : parts) dup = dup || q == p;
      if (!dup) parts.push_back(p);
    }
    return parts;
  };
  Inputs in;
  // Sum aggregates only on 3-chains: on 4-set shapes PJ-i's rank join
  // under sum pulls nearly every pair (~1.8 s a query), which would
  // turn the mix into a few giant queries.
  for (int i = 0; i < kPartialTemplates; ++i) {
    const int shape = i % 4;
    in.templates.push_back(NwayTemplate(Template::Kind::kPartialJoin, shape,
                                        shape == 0 && (i / 4) % 2 == 1,
                                        distinct_parts(), kPartialSetSize));
  }
  for (int i = 0; i < kNestedTemplates; ++i) {
    in.templates.push_back(NwayTemplate(Template::Kind::kNestedLoop, i % 4,
                                        i % 2 == 1, distinct_parts(),
                                        kNestedSetSize));
  }
  // Per block of 100: 80 PJ-i and 20 NL requests, each Zipf over its
  // templates.
  constexpr std::size_t kPartialShare = kZipfStreamBlock * 4 / 5;
  std::vector<std::size_t> quota =
      ZipfQuotas(kPartialTemplates, 1.0, kPartialShare);
  for (std::size_t q : ZipfQuotas(kNestedTemplates, 1.0,
                                  kZipfStreamBlock - kPartialShare)) {
    quota.push_back(q);
  }
  in.stream = StratifiedStream(quota, seed);
  return in;
}

/// Answers every template once on a cold library — the byte-identity
/// oracle the served answers are checked against.
Result<std::vector<std::string>> ReferenceAnswers(
    const Graph& g, const std::vector<ResolvedTemplate>& templates) {
  const DhtParams params = BenchParams();
  std::vector<std::string> refs;
  for (const ResolvedTemplate& t : templates) {
    const Aggregate& f = AggregateFor(t.sum_aggregate);
    if (t.kind == Template::Kind::kTwoWay) {
      BIdjJoin join;
      DHTJOIN_ASSIGN_OR_RETURN(auto pairs,
                               join.Run(g, params, kDepth, t.P, t.Q, kTopK));
      refs.push_back(CanonicalAnswer(pairs));
    } else if (t.kind == Template::Kind::kPartialJoin) {
      PartialJoin join(
          PartialJoin::Options{.m = kPartialM, .incremental = true});
      DHTJOIN_ASSIGN_OR_RETURN(auto tuples,
                               join.Run(g, params, kDepth, t.query, f, kTopK));
      refs.push_back(CanonicalAnswer(tuples));
    } else {
      NestedLoopJoin join;
      DHTJOIN_ASSIGN_OR_RETURN(auto tuples,
                               join.Run(g, params, kDepth, t.query, f, kTopK));
      refs.push_back(CanonicalAnswer(tuples));
    }
  }
  return refs;
}

Status Prepare(const WorkloadSpec& spec, uint64_t seed,
               const InputPaths& paths) {
  Inputs in;
  if (spec.dataset == Dataset::kDblp) {
    DHTJOIN_ASSIGN_OR_RETURN(in, PrepareTwoWay(spec, seed, paths));
  } else {
    DHTJOIN_ASSIGN_OR_RETURN(in, PrepareNway(seed, paths));
  }
  DHTJOIN_RETURN_NOT_OK(WriteTemplates(in.templates, paths.templates()));
  DHTJOIN_RETURN_NOT_OK(WriteStream(in.stream, paths.stream()));

  DHTJOIN_ASSIGN_OR_RETURN(Graph g, LoadEdgeList(paths.graph()));
  DHTJOIN_ASSIGN_OR_RETURN(std::vector<NodeSet> sets,
                           LoadNodeSets(paths.sets()));
  DHTJOIN_ASSIGN_OR_RETURN(std::vector<ResolvedTemplate> templates,
                           ResolveTemplates(in.templates, sets));
  DHTJOIN_ASSIGN_OR_RETURN(std::vector<std::string> refs,
                           ReferenceAnswers(g, templates));
  return WriteLines(refs, paths.references());
}

/// Prints the workload's measured sizes as one JSON line: graph nodes
/// and edges, templates, the cache working set (resident bytes after
/// every template ran once on an unbounded cache) and the autotuned
/// cache budget the serving runs use.
Status Sizes(const InputPaths& paths) {
  DHTJOIN_ASSIGN_OR_RETURN(Graph g, LoadEdgeList(paths.graph()));
  DHTJOIN_ASSIGN_OR_RETURN(std::vector<NodeSet> sets,
                           LoadNodeSets(paths.sets()));
  DHTJOIN_ASSIGN_OR_RETURN(std::vector<Template> raw,
                           ReadTemplates(paths.templates()));
  DHTJOIN_ASSIGN_OR_RETURN(std::vector<ResolvedTemplate> templates,
                           ResolveTemplates(raw, sets));
  serve::DhtJoinService::Options unbounded;
  unbounded.num_threads = 1;
  unbounded.cache_budget_bytes = std::size_t{1} << 36;
  serve::DhtJoinService service(g, BenchParams(), kDepth, unbounded);
  for (const ResolvedTemplate& t : templates) {
    Status st;
    if (t.kind == Template::Kind::kTwoWay) {
      st = service.TwoWay(t.P, t.Q, kTopK).status();
    } else {
      st = service
               .Nway(t.query, AggregateFor(t.sum_aggregate), kTopK,
                     t.kind == Template::Kind::kNestedLoop
                         ? serve::DhtJoinService::NwayAlgo::kNestedLoop
                         : serve::DhtJoinService::NwayAlgo::
                               kPartialJoinIncremental)
               .status();
    }
    DHTJOIN_RETURN_NOT_OK(st);
  }
  serve::DhtJoinService::Options autotuned;
  autotuned.num_threads = 1;
  serve::DhtJoinService budget(g, BenchParams(), kDepth, autotuned);
  std::printf("{\"nodes\": %lld, \"edges\": %lld, \"templates\": %zu, "
              "\"working_set_bytes\": %zu, \"cache_budget_bytes\": %zu}\n",
              static_cast<long long>(g.num_nodes()),
              static_cast<long long>(g.num_edges()), templates.size(),
              service.cache_stats().resident_bytes, budget.cache().max_bytes());
  return Status::OK();
}

struct Args {
  std::string command;
  std::string workload;
  std::string dir;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Result<Args> ParseArgs(int argc, char** argv) {
  if (argc < 2) return Status::InvalidArgument("missing command");
  Args args;
  args.command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--dir") {
      args.dir = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else {
      return Status::InvalidArgument("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || args.dir.empty()) {
    return Status::InvalidArgument("--workload and --dir are required");
  }
  return args;
}

int Main(int argc, char** argv) {
  Result<Args> args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr,
                 "usage: perfbench prepare --workload W --seed N --dir D\n"
                 "       perfbench serve --workload W --dir D --seconds S "
                 "--trace 0|1\n"
                 "       perfbench sizes --workload W --dir D\n(%s)\n",
                 args.status().ToString().c_str());
    return 2;
  }
  Result<WorkloadSpec> spec = FindWorkload(args->workload);
  Status status = spec.status();
  if (status.ok() && args->command == "prepare") {
    status = Prepare(*spec, args->seed, InputPaths(args->dir));
  } else if (status.ok() && args->command == "sizes") {
    status = Sizes(InputPaths(args->dir));
  } else if (status.ok() && args->command == "serve") {
    status = Serve(*spec, InputPaths(args->dir), args->seconds, args->trace);
  } else if (status.ok()) {
    status = Status::InvalidArgument("unknown command " + args->command);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench %s: %s\n", args->command.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace dhtjoin::perfbench

int main(int argc, char** argv) { return dhtjoin::perfbench::Main(argc, argv); }
