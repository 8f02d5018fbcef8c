/// \file perfbench/inputs.h
/// \brief Workload definitions and the on-disk inputs of the repository
/// benchmark: the files `perfbench prepare` generates from a seed and
/// `perfbench serve` is handed — graph, node sets, query templates, the
/// request stream, and the reference answer of every template.
///
/// The serving side sees nothing but these files. Reference answers
/// are stored as canonical strings (node ids plus the raw IEEE-754 bits
/// of every score), so comparing a served answer with its reference is
/// a byte comparison, never a tolerance check.

#ifndef DHTJOIN_PERFBENCH_INPUTS_H_
#define DHTJOIN_PERFBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/query_graph.h"
#include "dht/params.h"
#include "graph/graph.h"
#include "graph/node_set.h"
#include "join2/two_way_join.h"
#include "rankjoin/aggregate.h"
#include "rankjoin/pbrj.h"
#include "util/status.h"

namespace dhtjoin::perfbench {

/// Measure and query parameters shared by every workload.
inline DhtParams BenchParams() { return DhtParams::Lambda(0.2); }
constexpr int kDepth = 8;
constexpr std::size_t kTopK = 50;
constexpr std::size_t kPartialM = 50;

/// Client threads of the closed loop and pool threads of the service.
/// One of each keeps one query running at a time on one core. On a
/// shared 4-vCPU virtual machine, two clients on two pool threads drew
/// 8-20 % host CPU steal where one drew 2-4 % in the same minutes, and
/// lost up to half their throughput to it.
constexpr int kClients = 1;
constexpr int kPoolThreads = 1;
constexpr int kClusterWorkers = 2;
constexpr int kWorkerPoolThreads = 1;

enum class Dataset { kDblp, kYeast };

struct WorkloadSpec {
  std::string name;
  Dataset dataset = Dataset::kDblp;
  /// Zipf exponent over templates (0 = uniform).
  double zipf_s = 1.0;
  /// Two-way templates drawn; 0 for the n-way mix.
  std::size_t two_way_templates = 0;
};

/// The named workloads; kInvalidArgument for an unknown name.
Result<WorkloadSpec> FindWorkload(const std::string& name);

/// Requests per block of the stratified request stream: every block
/// holds each template exactly its share of the mix. A uniform mix
/// serves every template once per block; a Zipf mix is apportioned over
/// kZipfStreamBlock requests.
constexpr std::size_t kZipfStreamBlock = 100;
inline std::size_t StreamBlock(const WorkloadSpec& spec,
                               std::size_t num_templates) {
  return spec.zipf_s == 0.0 ? num_templates : kZipfStreamBlock;
}

/// One query template. Two-way templates name (P, Q); n-way templates
/// name their node sets, directed edges over set positions, the
/// aggregate, and the algorithm.
struct Template {
  enum class Kind { kTwoWay, kPartialJoin, kNestedLoop };
  Kind kind = Kind::kTwoWay;
  bool sum_aggregate = false;
  std::vector<std::string> sets;
  std::vector<std::pair<int, int>> edges;
};

/// The template kind's name in the templates file ("twoway", "pji", "nl").
const char* KindName(Template::Kind kind);

/// The aggregate an n-way template names: sum, or min otherwise.
const Aggregate& AggregateFor(bool sum_aggregate);

/// Files of one prepared input directory.
struct InputPaths {
  explicit InputPaths(std::string dir) : dir(std::move(dir)) {}
  std::string graph() const { return dir + "/graph.txt"; }
  std::string sets() const { return dir + "/sets.txt"; }
  std::string templates() const { return dir + "/templates.txt"; }
  std::string stream() const { return dir + "/stream.txt"; }
  std::string references() const { return dir + "/references.txt"; }
  std::string dir;
};

Status WriteTemplates(const std::vector<Template>& templates,
                      const std::string& path);
Result<std::vector<Template>> ReadTemplates(const std::string& path);

/// The request stream: template ids in submission order.
Status WriteStream(const std::vector<std::size_t>& stream,
                   const std::string& path);
Result<std::vector<std::size_t>> ReadStream(const std::string& path);

/// One canonical answer string per template, one per line.
Status WriteLines(const std::vector<std::string>& lines,
                  const std::string& path);
Result<std::vector<std::string>> ReadLines(const std::string& path);

/// Canonical byte-exact renderings of join answers.
std::string CanonicalAnswer(const std::vector<ScoredPair>& pairs);
std::string CanonicalAnswer(const std::vector<TupleAnswer>& tuples);

/// A template resolved against loaded node sets.
struct ResolvedTemplate {
  Template::Kind kind = Template::Kind::kTwoWay;
  bool sum_aggregate = false;
  NodeSet P;  ///< two-way operands
  NodeSet Q;
  QueryGraph query;  ///< n-way query graph
};

Result<std::vector<ResolvedTemplate>> ResolveTemplates(
    const std::vector<Template>& templates, const std::vector<NodeSet>& sets);

}  // namespace dhtjoin::perfbench

#endif  // DHTJOIN_PERFBENCH_INPUTS_H_
