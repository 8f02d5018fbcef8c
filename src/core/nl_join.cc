#include "core/nl_join.h"

#include <algorithm>
#include <limits>

#include "dht/forward.h"
#include "dht/forward_batch.h"
#include "util/timer.h"

namespace dhtjoin {

Result<std::vector<TupleAnswer>> NestedLoopJoin::Run(
    const Graph& g, const DhtParams& params, int d, const QueryGraph& query,
    const Aggregate& f, std::size_t k) {
  DHTJOIN_RETURN_NOT_OK(params.Validate());
  DHTJOIN_RETURN_NOT_OK(query.Validate(g));
  if (k == 0) return Status::InvalidArgument("k must be positive");
  stats_ = Stats();

  // The clock is read only under a budget that can run out (the
  // default +inf never does), at every step of the nested loops.
  WallTimer timer;
  const bool timed = options_.time_budget_seconds <
                     std::numeric_limits<double>::infinity();
  auto out_of_time = [&] {
    return timed && timer.Seconds() > options_.time_budget_seconds;
  };
  const int n = query.num_sets();
  const auto& edges = query.edges();

  // Dense tables need sum_e |L| * |R| doubles; above the ceiling, fall
  // back to the seed's O(1)-memory per-tuple walker instead of OOMing.
  std::size_t table_bytes = 0;
  for (const JoinEdge& edge : edges) {
    table_bytes += query.set(edge.left).size() *
                   query.set(edge.right).size() * sizeof(double);
  }
  const bool use_tables = table_bytes <= options_.max_table_bytes;

  // Score every query edge's pair table up front on the batched forward
  // engine (kLaneWidth source lanes per out-CSR pass). The seed NL
  // recomputed h_d per TUPLE, so a pair shared by many tuples was walked
  // many times; one batched pass per edge keeps NL the same brute-force
  // baseline (every pair walked, no pruning) minus the redundancy.
  // A serving-cache provider (Options::tables) short-circuits the walks
  // entirely for edges whose table an earlier query already computed —
  // byte-equal by the engine's determinism (DESIGN.md §3).
  ForwardWalkerBatch batch(g);
  std::vector<std::shared_ptr<const std::vector<double>>> tables(edges.size());
  bool budget_exceeded = out_of_time();
  for (std::size_t e = 0; use_tables && e < edges.size() && !budget_exceeded;
       ++e) {
    const NodeSet& L = query.set(edges[e].left);
    const NodeSet& R = query.set(edges[e].right);
    if (options_.tables != nullptr) {
      auto cached = options_.tables->Fetch(L, R);
      if (cached != nullptr && cached->size() == L.size() * R.size()) {
        tables[e] = std::move(cached);
        stats_.table_hits++;
        continue;
      }
    }
    auto table = std::make_shared<std::vector<double>>(L.size() * R.size());
    // Small pair slices so the wall-clock budget is enforced between
    // batch runs: one slice (at most kMaxPairsPerSlice walks) is the
    // overshoot bound, standing in for the seed's per-tuple check, and
    // it must not scale with |L| or |R|.
    const std::size_t src_chunk = ForwardWalkerBatch::kLaneWidth;
    constexpr std::size_t kMaxPairsPerSlice = 4096;
    const std::size_t tgt_chunk =
        std::max<std::size_t>(1, kMaxPairsPerSlice / src_chunk);
    for (std::size_t sb = 0; sb < L.size() && !budget_exceeded;
         sb += src_chunk) {
      const std::size_t scount = std::min(src_chunk, L.size() - sb);
      for (std::size_t tb = 0; tb < R.size() && !budget_exceeded;
           tb += tgt_chunk) {
        const std::size_t tcount = std::min(tgt_chunk, R.size() - tb);
        std::vector<double> scores = batch.Run(
            params, d,
            std::span<const ExtNodeId>(L.nodes()).subspan(sb, scount),
            std::span<const ExtNodeId>(R.nodes()).subspan(tb, tcount));
        for (std::size_t li = 0; li < scount; ++li) {
          std::copy(scores.begin() + static_cast<std::ptrdiff_t>(li * tcount),
                    scores.begin() +
                        static_cast<std::ptrdiff_t>((li + 1) * tcount),
                    table->data() + (sb + li) * R.size() + tb);
        }
        stats_.dht_computations += static_cast<int64_t>(scount * tcount);
        budget_exceeded = out_of_time();
      }
    }
    tables[e] = table;
    // Only fully-walked tables are offered back; a budget-truncated one
    // would poison future queries.
    if (!budget_exceeded && options_.tables != nullptr) {
      options_.tables->Store(L, R, tables[e]);
    }
  }

  ForwardWalker walker(g);  // the per-tuple fallback scorer
  TupleTopK best(k);
  std::vector<NodeId> tuple(static_cast<std::size_t>(n), kInvalidNode);
  std::vector<std::size_t> tuple_index(static_cast<std::size_t>(n), 0);
  std::vector<double> edge_scores(edges.size(), 0.0);

  // Edge e is scored at the loop of its later-bound endpoint, once per
  // binding of that prefix, and a prefix holding an invalid pair is
  // skipped whole: block[a] tuples share each prefix bound through a.
  std::vector<std::vector<std::size_t>> edges_at(static_cast<std::size_t>(n));
  for (std::size_t e = 0; e < edges.size(); ++e) {
    edges_at[static_cast<std::size_t>(
                 std::max(edges[e].left, edges[e].right))]
        .push_back(e);
  }
  std::vector<int64_t> block(static_cast<std::size_t>(n), 1);
  for (int a = n - 2; a >= 0; --a) {
    block[static_cast<std::size_t>(a)] =
        block[static_cast<std::size_t>(a) + 1] *
        static_cast<int64_t>(query.set(a + 1).size());
  }

  // Scores the edges bound last at `attr`; false once one is invalid.
  auto score_level = [&](int attr) -> bool {
    for (std::size_t e : edges_at[static_cast<std::size_t>(attr)]) {
      const auto l = static_cast<std::size_t>(edges[e].left);
      const auto r = static_cast<std::size_t>(edges[e].right);
      if (tuple[l] == tuple[r]) return false;  // self pair: h undefined
      double score;
      if (use_tables) {
        const std::size_t row = query.set(edges[e].right).size();
        score = (*tables[e])[tuple_index[l] * row + tuple_index[r]];
      } else {
        score = walker.Compute(params, d, ExtNodeId(tuple[l]),
                               ExtNodeId(tuple[r]));
        stats_.dht_computations++;
      }
      if (score <= params.beta) return false;  // unreachable within d steps
      edge_scores[e] = score;
    }
    return true;
  };

  // n nested loops, expressed recursively over attribute position. Every
  // valid tuple is scored and tested against the heap; an answer is
  // built only for one the heap keeps (TopK::Rejects is Offer's test).
  auto enumerate = [&](auto&& self, int attr) -> void {
    const NodeSet& set = query.set(attr);
    for (std::size_t i = 0; i < set.size(); ++i) {
      tuple[static_cast<std::size_t>(attr)] = set[i].value();
      tuple_index[static_cast<std::size_t>(attr)] = i;
      if (!score_level(attr)) {
        stats_.tuples_enumerated += block[static_cast<std::size_t>(attr)];
      } else if (attr + 1 < n) {
        self(self, attr + 1);
      } else {
        stats_.tuples_enumerated++;
        const double score = f.Apply(edge_scores);
        if (!best.Rejects(score, tuple)) {
          best.Offer(score, TupleAnswer{tuple, edge_scores, score});
        }
      }
      if (budget_exceeded || out_of_time()) {
        budget_exceeded = true;
        return;
      }
    }
  };
  if (!budget_exceeded) enumerate(enumerate, 0);

  if (budget_exceeded) {
    return Status::OutOfRange(
        "NL exceeded its time budget after " +
        std::to_string(stats_.tuples_enumerated) + " tuples");
  }
  stats_.completed = true;

  // At most k answers, already in TupleAnswerGreater order (key f, ties
  // by node vector).
  std::vector<TupleAnswer> out;
  for (auto& entry : best.TakeSortedDescending()) {
    out.push_back(std::move(entry.item));
  }
  return out;
}

}  // namespace dhtjoin
