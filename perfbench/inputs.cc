#include "inputs.h"

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace dhtjoin::perfbench {

Result<WorkloadSpec> FindWorkload(const std::string& name) {
  if (name == "uniform_cold") {
    // 90 = every ordered pair of the ten DBLP-like areas.
    return WorkloadSpec{name, Dataset::kDblp, 0.0, 90};
  }
  if (name == "nway_mix") {
    return WorkloadSpec{name, Dataset::kYeast, 1.0, 0};
  }
  return Status::InvalidArgument("unknown workload '" + name + "'");
}

const char* KindName(Template::Kind kind) {
  switch (kind) {
    case Template::Kind::kTwoWay:
      return "twoway";
    case Template::Kind::kPartialJoin:
      return "pji";
    case Template::Kind::kNestedLoop:
      return "nl";
  }
  return "?";
}

const Aggregate& AggregateFor(bool sum_aggregate) {
  static const MinAggregate kMin;
  static const SumAggregate kSum;
  return sum_aggregate ? static_cast<const Aggregate&>(kSum)
                       : static_cast<const Aggregate&>(kMin);
}

namespace {

Status OpenForWrite(std::ofstream& out, const std::string& path) {
  out.open(path, std::ios::trunc);
  if (!out) return Status::IOError("cannot open '" + path + "' for writing");
  return Status::OK();
}

Status Flushed(std::ofstream& out, const std::string& path) {
  out.flush();
  if (!out) return Status::IOError("write to '" + path + "' failed");
  return Status::OK();
}

void AppendBits(std::string* out, double v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, std::bit_cast<uint64_t>(v));
  *out += buf;
}

}  // namespace

Status WriteTemplates(const std::vector<Template>& templates,
                      const std::string& path) {
  std::ofstream out;
  DHTJOIN_RETURN_NOT_OK(OpenForWrite(out, path));
  for (const Template& t : templates) {
    out << KindName(t.kind) << ' ' << (t.sum_aggregate ? "sum" : "min") << ' '
        << t.sets.size();
    for (const std::string& s : t.sets) out << ' ' << s;
    out << ' ' << t.edges.size();
    for (const auto& [from, to] : t.edges) out << ' ' << from << ' ' << to;
    out << '\n';
  }
  return Flushed(out, path);
}

Result<std::vector<Template>> ReadTemplates(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open '" + path + "'");
  std::vector<Template> templates;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string kind, agg;
    std::size_t num_sets = 0, num_edges = 0;
    Template t;
    fields >> kind >> agg >> num_sets;
    if (kind == "twoway") {
      t.kind = Template::Kind::kTwoWay;
    } else if (kind == "pji") {
      t.kind = Template::Kind::kPartialJoin;
    } else if (kind == "nl") {
      t.kind = Template::Kind::kNestedLoop;
    } else {
      return Status::InvalidArgument("bad template kind in: " + line);
    }
    t.sum_aggregate = agg == "sum";
    t.sets.resize(num_sets);
    for (std::string& s : t.sets) fields >> s;
    fields >> num_edges;
    t.edges.resize(num_edges);
    for (auto& [from, to] : t.edges) fields >> from >> to;
    if (!fields || num_sets < 2 || num_edges < 1) {
      return Status::InvalidArgument("malformed template: " + line);
    }
    templates.push_back(std::move(t));
  }
  return templates;
}

Status WriteStream(const std::vector<std::size_t>& stream,
                   const std::string& path) {
  std::ofstream out;
  DHTJOIN_RETURN_NOT_OK(OpenForWrite(out, path));
  for (std::size_t id : stream) out << id << '\n';
  return Flushed(out, path);
}

Result<std::vector<std::size_t>> ReadStream(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open '" + path + "'");
  std::vector<std::size_t> stream;
  std::size_t id = 0;
  while (in >> id) stream.push_back(id);
  if (stream.empty()) return Status::InvalidArgument("empty stream " + path);
  return stream;
}

Status WriteLines(const std::vector<std::string>& lines,
                  const std::string& path) {
  std::ofstream out;
  DHTJOIN_RETURN_NOT_OK(OpenForWrite(out, path));
  for (const std::string& l : lines) out << l << '\n';
  return Flushed(out, path);
}

Result<std::vector<std::string>> ReadLines(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open '" + path + "'");
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string CanonicalAnswer(const std::vector<ScoredPair>& pairs) {
  std::string out;
  for (const ScoredPair& sp : pairs) {
    out += std::to_string(sp.p) + ',' + std::to_string(sp.q) + ',';
    AppendBits(&out, sp.score);
    out += ';';
  }
  return out;
}

std::string CanonicalAnswer(const std::vector<TupleAnswer>& tuples) {
  std::string out;
  for (const TupleAnswer& t : tuples) {
    for (NodeId u : t.nodes) out += std::to_string(u) + ',';
    for (double s : t.edge_scores) {
      AppendBits(&out, s);
      out += ',';
    }
    AppendBits(&out, t.f);
    out += ';';
  }
  return out;
}

Result<std::vector<ResolvedTemplate>> ResolveTemplates(
    const std::vector<Template>& templates, const std::vector<NodeSet>& sets) {
  auto find = [&](const std::string& name) -> const NodeSet* {
    for (const NodeSet& s : sets) {
      if (s.name() == name) return &s;
    }
    return nullptr;
  };
  std::vector<ResolvedTemplate> out;
  out.reserve(templates.size());
  for (const Template& t : templates) {
    ResolvedTemplate r;
    r.kind = t.kind;
    r.sum_aggregate = t.sum_aggregate;
    for (const std::string& name : t.sets) {
      if (find(name) == nullptr) {
        return Status::InvalidArgument("template names unknown set " + name);
      }
    }
    if (t.kind == Template::Kind::kTwoWay) {
      r.P = *find(t.sets[0]);
      r.Q = *find(t.sets[1]);
    } else {
      for (const std::string& name : t.sets) r.query.AddNodeSet(*find(name));
      for (const auto& [from, to] : t.edges) {
        DHTJOIN_RETURN_NOT_OK(r.query.AddEdge(from, to));
      }
    }
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace dhtjoin::perfbench
