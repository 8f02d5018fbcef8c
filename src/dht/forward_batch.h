/// \file dht/forward_batch.h
/// \brief Batched multi-source forward evaluation (SpMM-style).
///
/// Forward first-hit walks are inherently per-PAIR: absorption at the
/// target entangles the mass trajectory with the target, so one walk
/// yields one h_d(p, q) — the reason the forward join family (F-BJ,
/// F-IDJ) is the slow side of the paper's Fig. 9(a). What CAN be shared
/// is the edge stream: this evaluator fixes one absorption target q per
/// block and advances kLaneWidth SOURCE walkers together, the mass state
/// an n x W row-major matrix pushed over the out-CSR one pass per step.
/// Per pair this divides edge traffic by W and turns the scattered
/// per-walk pushes into cache-line-wide lane updates — the forward
/// analogue of BackwardWalkerBatch, with the lane axis transposed
/// (W sources x 1 target instead of W targets x all sources). Blocks
/// are independent and fan out across a ThreadPool.
///
/// The block machinery (lane workspace, pooling, the frontier-adaptive
/// blocked step, level grouping, write-back-under-budget) is the shared
/// core in dht/batch_core.h; this engine supplies the forward direction
/// policy (push over out-rows; "dense" only changes billing, because a
/// forward push already visits exactly the nonzero rows in canonical
/// order) and is a template on the lane width W: ForwardWalkerBatch is
/// the 8-lane default, ForwardWalkerBatchT<4> the narrow-lane option —
/// bit-identical results at half the workspace bytes per block.
///
/// The union support is put in canonical order before every push, so
/// per-lane summation order equals the dense sweep's CSR order: scores
/// are bit-identical across modes, lane groupings, lane widths, thread
/// counts, and restarted vs resumed walks (DESIGN.md §3), and match the
/// scalar ForwardWalker exactly.
///
/// Resumable deepening: F-IDJ revisits the same (p, q) pairs at levels
/// 1, 2, 4, ..., d. ForwardBatchStates holds per-pair sparse snapshots
/// so the advance entry points continue each pair from its saved level
/// instead of restarting — O(d) total steps per surviving pair instead
/// of O(2d) — under a byte budget with transparent bit-identical
/// restarts on eviction.
///
/// FUSED SCHEDULING: the historical entry point advanced ONE target's
/// pairs per call — its own ParallelFor barrier — so a deepening round
/// over |Q| targets paid |Q| fork/joins even when the live set had
/// shrunk to a handful of near-empty blocks. AdvanceMany() takes every
/// live (target, sources) plan of the round at once, builds all
/// (plan, level-group, lane-block) blocks into one flat list, and
/// dispatches a SINGLE ParallelFor. AdvancePairs remains as a thin
/// one-plan wrapper. Block enumeration order inside each plan is
/// exactly the per-target call's, so scores are byte-identical either
/// way (DESIGN.md §8; gated in bench_scheduler and the parity tests).
///
/// Memory contract: like the backward batch, each concurrent block owns
/// 2 * n * kLaneWidth doubles, pooled between runs up to
/// Options::max_pooled_bytes (the pool is trimmed to the cap at run
/// boundaries; workspaces_discarded counts the frees).
///
/// Node ids crossing the public interface (sources, targets) are
/// EXTERNAL ids; the engine translates to the graph's physical layout
/// (graph/reorder.h) at entry and keeps its union support sorted in
/// CANONICAL (external) order, so scores are bit-identical across
/// layouts. Dense billing and the adaptive policy use the block's
/// weak-component sweep plan (Graph::PlanDenseSweep), mirroring the
/// backward batch. ForwardBatchStates' snapshot mass node ids are
/// INTERNAL and only meaningful on the graph/layout they were saved
/// from.

#ifndef DHTJOIN_DHT_FORWARD_BATCH_H_
#define DHTJOIN_DHT_FORWARD_BATCH_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dht/batch_core.h"
#include "dht/params.h"
#include "dht/propagate.h"
#include "graph/graph.h"
#include "obs/trace.h"
#include "util/deadline.h"
#include "util/thread_pool.h"

namespace dhtjoin {

/// Per-pair resumable walk states for the forward batch engines, keyed
/// by a caller-stable slot id (F-IDJ uses source_index * |Q| +
/// target_index, i.e. a PairKey over the original grid). Storage is a
/// SPARSE hash map: only pairs that actually saved a state pay
/// anything, so a huge |P| x |Q| pair space resumes under budget with
/// no upfront dense allocation. Retention is best-effort under the byte
/// budget: a dropped state restarts from scratch on the next advance
/// with bit-identical results. When the budget came from the autotuner,
/// callers fold the observed hit/eviction counters back into it between
/// rounds via the inherited Retune() (batch_core::BatchStateBudget).
class ForwardBatchStates : public batch_core::BatchStateBudget {
 public:
  explicit ForwardBatchStates(std::size_t max_bytes = kDefaultMaxBytes)
      : BatchStateBudget(max_bytes) {}

  static constexpr std::size_t kDefaultMaxBytes = std::size_t{256} << 20;

  /// Walked depth of `slot`; 0 means no saved state (fresh or evicted).
  int level(std::size_t slot) const {
    const Slot* s = FindSlot(slot);
    return s == nullptr ? 0 : s->level;
  }

  /// Drops the saved state of `slot` (e.g. a pruned source's pairs).
  void Drop(std::size_t slot) {
    auto it = slots_.find(slot);
    if (it == slots_.end()) return;
    bytes_.fetch_sub(it->second.bytes, std::memory_order_relaxed);
    slots_.erase(it);
  }

  /// Number of pairs currently holding a saved state.
  std::size_t size() const { return slots_.size(); }

 private:
  template <int>
  friend class ForwardWalkerBatchT;

  struct Slot {
    int level = 0;
    double lambda_pow = 1.0;
    double score = 0.0;  // h_level(p, q); meaningless while level == 0
    // Nonzero, in the saved block's support order (the last push's
    // emission order, not sorted); a resumed block's first push sorts.
    std::vector<std::pair<NodeId, double>> mass;
    std::size_t bytes = 0;

    /// Includes the hash-map node the slot occupies, so the byte budget
    /// reflects the sparse container's real footprint.
    std::size_t ApproxBytes() const {
      return sizeof(*this) + kMapEntryOverheadBytes +
             mass.capacity() * sizeof(mass[0]);
    }
  };

  /// Rough per-entry cost of an unordered_map node (key, hash link,
  /// allocator overhead) on mainstream implementations.
  static constexpr std::size_t kMapEntryOverheadBytes = 64;

  const Slot* FindSlot(std::size_t slot) const {
    auto it = slots_.find(slot);
    return it == slots_.end() ? nullptr : &it->second;
  }
  Slot* FindSlot(std::size_t slot) {
    auto it = slots_.find(slot);
    return it == slots_.end() ? nullptr : &it->second;
  }

  std::unordered_map<std::size_t, Slot> slots_;
};

/// One target's share of a fused forward round (AdvanceMany): advance
/// the pairs (sources[i], target) from their saved levels (states slot
/// slots[i]) to the round's level, writing h(sources[i], target) into
/// out[i]. Slot ids must be distinct across the plans of one call —
/// plans are advanced concurrently.
struct ForwardTargetPlan {
  ExtNodeId target;
  std::span<const ExtNodeId> sources;
  std::span<const std::size_t> slots;     // parallel to sources
  double* out = nullptr;                  // |sources| scores
};

/// Advances many forward pair-walkers at once; see file comment.
/// W is the lane width (source walkers advanced together per block, all
/// absorbed at the block's common target); use the ForwardWalkerBatch
/// alias (W = 8) unless workspace memory is the constraint.
template <int W>
class ForwardWalkerBatchT {
  static_assert(W > 0, "lane width must be positive");

 public:
  static constexpr int kLaneWidth = W;

  struct Options {
    PropagationMode mode = PropagationMode::kAdaptive;
    /// Worker threads; 0 means ThreadPool::DefaultThreadCount().
    int num_threads = 0;
    /// Use the walk's weak-component sweep plan for dense billing and
    /// the adaptive threshold (see file comment); results are
    /// bit-identical either way.
    bool restrict_dense = true;
    /// Byte cap on idle block workspaces retained between runs.
    std::size_t max_pooled_bytes = kDefaultMaxPooledBytes;
  };

  /// Default workspace-pool cap, as in BackwardWalkerBatch.
  static constexpr std::size_t kDefaultMaxPooledBytes = std::size_t{1} << 30;

  explicit ForwardWalkerBatchT(const Graph& g)
      : ForwardWalkerBatchT(g, Options()) {}
  ForwardWalkerBatchT(const Graph& g, Options options)
      : g_(g),
        options_(options),
        pool_(options.num_threads > 0 ? options.num_threads
                                      : ThreadPool::DefaultThreadCount()),
        workspaces_(g.num_nodes(), options.max_pooled_bytes) {}

  /// Runs a d-step forward walk for every (source, target) pair and
  /// returns the scores row-major by SOURCE:
  ///   result[s * targets.size() + t] = h_d(sources[s], targets[t]).
  /// Self pairs (sources[s] == targets[t]) are present but meaningless —
  /// callers must skip them, mirroring the backward batch.
  ///
  /// The matrix is dense: slice huge source sets to MaxSourcesPerRun()
  /// per call (RunChunked does this for you).
  std::vector<double> Run(const DhtParams& params, int d,
                          std::span<const ExtNodeId> sources,
                          std::span<const ExtNodeId> targets) {
    DHTJOIN_CHECK(params.Validate().ok());
    DHTJOIN_CHECK_GE(d, 1);
    for (ExtNodeId p : sources) DHTJOIN_CHECK(g_.ContainsNode(p));
    for (ExtNodeId q : targets) DHTJOIN_CHECK(g_.ContainsNode(q));

    std::vector<NodeId> source_storage, target_storage;
    std::span<const NodeId> isources =
        g_.MapToInternal(sources, source_storage);
    std::span<const NodeId> itargets =
        g_.MapToInternal(targets, target_storage);

    std::vector<double> out(sources.size() * targets.size(), params.beta);
    const std::size_t source_blocks = (sources.size() + W - 1) / W;
    const std::size_t num_blocks = source_blocks * targets.size();
    pool_.ParallelFor(static_cast<int64_t>(num_blocks), [&](int64_t block) {
      const std::size_t ti = static_cast<std::size_t>(block) / source_blocks;
      const std::size_t first =
          (static_cast<std::size_t>(block) % source_blocks) * W;
      const int width =
          static_cast<int>(std::min<std::size_t>(W, sources.size() - first));
      auto state = workspaces_.Acquire();
      RunBlock(*state, params, d, isources, first, width, itargets[ti], ti,
               targets.size(), out.data());
      workspaces_.Release(std::move(state));
    });
    workspaces_.Trim();
    return out;
  }

  /// Largest source count per Run() that keeps the returned matrix near
  /// 32 MB; never less than one full lane block.
  static std::size_t MaxSourcesPerRun(std::size_t num_targets) {
    constexpr std::size_t kMaxMatrixDoubles = std::size_t{4} << 20;
    std::size_t cap = kMaxMatrixDoubles / (num_targets == 0 ? 1 : num_targets);
    return cap < static_cast<std::size_t>(W) ? static_cast<std::size_t>(W)
                                             : cap;
  }

  /// Run() with MaxSourcesPerRun slicing applied: walks every pair,
  /// invoking consume(source_index, row) with the |targets|-wide score
  /// row of sources[source_index]. Rows are only valid during the
  /// callback. `max_sources_per_run` forces a smaller slice (0 =
  /// MaxSourcesPerRun); tests use it to exercise the multi-chunk path.
  template <typename Consume>
  void RunChunked(const DhtParams& params, int d,
                  std::span<const ExtNodeId> sources,
                  std::span<const ExtNodeId> targets, Consume&& consume,
                  std::size_t max_sources_per_run = 0) {
    const std::size_t chunk = max_sources_per_run > 0
                                  ? max_sources_per_run
                                  : MaxSourcesPerRun(targets.size());
    for (std::size_t base = 0; base < sources.size(); base += chunk) {
      const std::size_t count = std::min(chunk, sources.size() - base);
      std::vector<double> scores =
          Run(params, d, sources.subspan(base, count), targets);
      for (std::size_t i = 0; i < count; ++i) {
        consume(base + i, scores.data() + i * targets.size());
      }
    }
  }

  /// The resumable per-target form: advances the pairs (sources[i],
  /// target) from their saved levels (states slot slots[i]) to
  /// `to_level`, then invokes consume(i, score) with
  /// h_{to_level}(sources[i], target). Pairs saved at different levels
  /// are grouped and advanced separately, so evictions and fresh pairs
  /// mix freely. `save_states = false` skips the write-back for a FINAL
  /// advance whose states would never be read. Returns the number of
  /// pair walks started from scratch. A thin one-plan wrapper over
  /// AdvanceMany — schedulers advancing MANY targets per round should
  /// call AdvanceMany directly and pay one barrier, not |targets|.
  template <typename Consume>
  int64_t AdvancePairs(const DhtParams& params, int to_level,
                       std::span<const ExtNodeId> sources,
                       std::span<const std::size_t> slots, ExtNodeId target,
                       ForwardBatchStates& states, Consume&& consume,
                       bool save_states = true) {
    DHTJOIN_CHECK_EQ(sources.size(), slots.size());
    std::vector<double> scores(sources.size());
    ForwardTargetPlan plan;
    plan.target = target;
    plan.sources = sources;
    plan.slots = slots;
    plan.out = scores.data();
    int64_t fresh = AdvanceMany(params, to_level, {&plan, 1}, states,
                                save_states);
    for (std::size_t i = 0; i < sources.size(); ++i) consume(i, scores[i]);
    return fresh;
  }

  /// The fused multi-target scheduler (see file comment): advances
  /// every plan's pairs to `to_level` in ONE ParallelFor. Beyond the
  /// barrier elimination, the fused enumeration packs lanes ACROSS
  /// plans: a shrunken live set leaves every target a partial lane
  /// block (4 live sources = half the SIMD rows dead), so the flat
  /// (plan, pair) list is chunked into FULL W-wide blocks whose lanes
  /// carry per-lane absorption targets — the same per-lane device the
  /// backward engine uses for targets. A 4-source round over |Q|
  /// targets runs |Q|/2 full blocks instead of |Q| half-empty ones,
  /// halving the edge-stream passes. Scores stay bit-identical to the
  /// per-target loop: lanes are independent columns, a lane sums the
  /// same contributions in the same canonical support order whatever
  /// its block-mates are (extra union-support rows contribute exact
  /// zeros), and sparse/dense mode flips never change values
  /// (DESIGN.md §3, §8; gated in the parity tests and
  /// bench_scheduler). Callers size the union of `out` buffers (slice
  /// the plan list across calls when a round's scores cannot all be
  /// held). Returns the number of pair walks started from scratch.
  ///
  /// Cooperative stop (util/deadline.h): when `exec` is set, each block
  /// polls exec->CheckBlockGroup() once before running (per block
  /// group, never per edge). On a stop, not-yet-started blocks are
  /// skipped (their slots keep their previous saved level; their output
  /// cells are garbage) and `*interrupted` is set; the caller must then
  /// DISCARD the round and degrade at its last completed level
  /// (DESIGN.md §9).
  int64_t AdvanceMany(const DhtParams& params, int to_level,
                      std::span<const ForwardTargetPlan> plans,
                      ForwardBatchStates& states, bool save_states,
                      const ExecContext* exec = nullptr,
                      bool* interrupted = nullptr) {
    DHTJOIN_CHECK(params.Validate().ok());
    DHTJOIN_CHECK_GE(to_level, 1);
    // One span per fused round (never per block); see the backward
    // engine's AdvanceMany for the attr meanings.
    obs::Trace* const obs_trace = obs::TraceOf(exec);
    obs::ScopedSpan obs_span(obs_trace, "f.advance_many");
    const int64_t obs_edges_before =
        obs_trace != nullptr ? workspaces_.edges_relaxed() : 0;

    struct PlanCtx {
      std::vector<NodeId> source_storage;
      std::span<const NodeId> isources;
      NodeId itarget = kInvalidNode;  // raw internal id
    };
    struct Item {
      std::size_t plan;
      std::size_t idx;  // pair index within the plan
    };
    std::vector<PlanCtx> ctx(plans.size());
    // Level-major (ascending), plan-major within a level, pair order
    // within a plan — the per-target loop's enumeration, flattened.
    std::map<int, std::vector<Item>> by_level;
    int64_t fresh = 0;
    for (std::size_t pi = 0; pi < plans.size(); ++pi) {
      const ForwardTargetPlan& plan = plans[pi];
      DHTJOIN_CHECK(g_.ContainsNode(plan.target));
      DHTJOIN_CHECK(plan.out != nullptr || plan.sources.empty());
      DHTJOIN_CHECK_EQ(plan.sources.size(), plan.slots.size());
      // Schedulers typically pass ONE live source list for every
      // target of the round; validate and translate it once, not once
      // per plan.
      if (pi > 0 && plan.sources.data() == plans[pi - 1].sources.data() &&
          plan.sources.size() == plans[pi - 1].sources.size()) {
        ctx[pi].isources = ctx[pi - 1].isources;
      } else {
        for (ExtNodeId p : plan.sources) DHTJOIN_CHECK(g_.ContainsNode(p));
        ctx[pi].isources =
            g_.MapToInternal(plan.sources, ctx[pi].source_storage);
      }
      ctx[pi].itarget = g_.ToInternal(plan.target).value();

      for (std::size_t i = 0; i < plan.sources.size(); ++i) {
        const ForwardBatchStates::Slot* slot = states.FindSlot(plan.slots[i]);
        const int level = slot == nullptr ? 0 : slot->level;
        DHTJOIN_CHECK_LE(level, to_level);
        if (level == 0) {
          plan.out[i] = params.beta;
          ++fresh;
          states.misses_.fetch_add(1, std::memory_order_relaxed);
        } else {
          plan.out[i] = slot->score;
          states.hits_.fetch_add(1, std::memory_order_relaxed);
        }
        if (level < to_level) {
          by_level[level].push_back(Item{pi, i});
          // Materialize the map entry now: the parallel write-back
          // below only assigns through pre-existing entries, so the
          // hash map is never structurally mutated from worker threads.
          if (save_states && slot == nullptr) states.slots_[plan.slots[i]];
        }
      }
    }

    struct Block {
      int from_level;
      std::size_t first;  // into the flat item array
      int width;
    };
    std::vector<Item> items;
    std::vector<Block> blocks;
    for (auto& [level, level_items] : by_level) {
      for (std::size_t base = 0; base < level_items.size();
           base += static_cast<std::size_t>(W)) {
        const std::size_t count = std::min<std::size_t>(
            static_cast<std::size_t>(W), level_items.size() - base);
        blocks.push_back(Block{level, items.size() + base,
                               static_cast<int>(count)});
      }
      items.insert(items.end(), level_items.begin(), level_items.end());
    }

    // ONE fork/join for the whole round, every plan and level mixed;
    // blocks are independent (disjoint slots, disjoint output cells).
    std::atomic<bool> stopped{false};
    pool_.ParallelFor(
        static_cast<int64_t>(blocks.size()), [&](int64_t bi) {
          if (exec != nullptr) {
            if (stopped.load(std::memory_order_relaxed) ||
                exec->CheckBlockGroup() != StatusCode::kOk) {
              stopped.store(true, std::memory_order_relaxed);
              return;
            }
          }
          const Block& blk = blocks[static_cast<std::size_t>(bi)];
          const int width = blk.width;
          NodeId lane_source[W];
          NodeId lane_target[W];
          std::size_t lane_slot[W];
          double* lane_out[W];
          for (int b = 0; b < width; ++b) {
            const Item& item = items[blk.first + static_cast<std::size_t>(b)];
            lane_source[b] = ctx[item.plan].isources[item.idx];
            lane_target[b] = ctx[item.plan].itarget;
            lane_slot[b] = plans[item.plan].slots[item.idx];
            lane_out[b] = plans[item.plan].out + item.idx;
          }
          auto state = workspaces_.Acquire();
          AdvanceBlock(*state, params, blk.from_level, to_level, lane_source,
                       lane_target, lane_slot, lane_out, width, states,
                       save_states);
          workspaces_.Release(std::move(state));
        });
    workspaces_.Trim();
    if (interrupted != nullptr) {
      *interrupted = stopped.load(std::memory_order_relaxed);
    }

    // Entries whose write-back was refused by the budget (or that were
    // only materialized for the parallel phase) hold no state; erase
    // them so the sparse map never accumulates empty nodes.
    if (save_states) {
      for (const Item& item : items) {
        auto it = states.slots_.find(plans[item.plan].slots[item.idx]);
        if (it != states.slots_.end() && it->second.level == 0) {
          states.slots_.erase(it);
        }
      }
    }
    if (obs_trace != nullptr) {
      int64_t lanes = 0;
      for (const Block& blk : blocks) lanes += blk.width;
      obs_span.SetAttr("plans", static_cast<int64_t>(plans.size()));
      obs_span.SetAttr("blocks", static_cast<int64_t>(blocks.size()));
      obs_span.SetAttr("lanes", lanes);
      obs_span.SetAttr("fresh", fresh);
      obs_span.SetAttr("bytes",
                       (workspaces_.edges_relaxed() - obs_edges_before) *
                           static_cast<int64_t>(sizeof(OutEdge)));
      if (stopped.load(std::memory_order_relaxed)) {
        obs_span.SetAttr("interrupted", int64_t{1});
      }
    }
    return fresh;
  }

  /// Per-walker edges relaxed, summed over all lanes and runs,
  /// comparable with the scalar ForwardWalker's edges_relaxed: a sparse
  /// step bills each lane only for frontier nodes where that lane has
  /// mass; a dense pass bills every lane its sweep plan's edges.
  int64_t edges_relaxed() const { return workspaces_.edges_relaxed(); }

  /// Fork/join barriers dispatched by this engine so far (one per Run
  /// chunk or AdvanceMany round); see BackwardWalkerBatchT.
  int64_t scheduler_barriers() const { return pool_.scheduler_barriers(); }

  /// Workspace-pool observability (Options::max_pooled_bytes).
  std::size_t pooled_workspaces() const {
    return workspaces_.pooled_workspaces();
  }
  std::size_t pooled_workspace_bytes() const {
    return workspaces_.pooled_workspace_bytes();
  }
  int64_t workspaces_discarded() const {
    return workspaces_.workspaces_discarded();
  }

 private:
  using Workspace = batch_core::BlockWorkspace<W>;

  void Step(Workspace& st, int width) const {
    batch_core::StepLanes<batch_core::ForwardStepPolicy, W>(
        g_, options_.mode, /*soa_gather=*/false, st, width);
  }

  /// Walks one block of `width` sources to depth d with absorption at
  /// `target`, adding score contributions into out[(first + b)].
  // dhtlint: allow(raw-id-param): block kernel below the remap —
  // sources/target were translated to internal ids by the caller
  void RunBlock(Workspace& st, const DhtParams& params, int d,
                std::span<const NodeId> sources, std::size_t first_source,
                int width, NodeId target, std::size_t target_index,
                std::size_t num_targets, double* out) {
    // Seed: lane b walks from sources[first_source + b]; duplicates
    // share a support row with independent lanes.
    for (int b = 0; b < width; ++b) {
      NodeId p = sources[first_source + static_cast<std::size_t>(b)];
      st.mass[static_cast<std::size_t>(p) * W + static_cast<std::size_t>(b)] =
          1.0;
      st.support.push_back(p);
    }
    g_.SortCanonical(st.support);
    st.support.erase(std::unique(st.support.begin(), st.support.end()),
                     st.support.end());
    st.support_canonical = true;
    st.plan = options_.restrict_dense ? g_.PlanDenseSweep(st.support)
                                      : g_.FullSweepPlan();

    double lambda_pow = 1.0;
    for (int step = 0; step < d; ++step) {
      Step(st, width);
      // mass/next swap inside the step, so the row pointer is per-step.
      double* target_row = &st.mass[static_cast<std::size_t>(target) * W];
      lambda_pow *= params.lambda;
      const double coeff = params.alpha * lambda_pow;
      for (int b = 0; b < width; ++b) {
        out[(first_source + static_cast<std::size_t>(b)) * num_targets +
            target_index] += coeff * target_row[b];
      }
      // First-hit absorption: every lane of this block absorbs at the
      // shared target, so the whole row goes dark.
      if (params.first_hit) std::fill(target_row, target_row + width, 0.0);
    }

    st.RestoreZeroInvariant();
  }

  /// Advances one uniform-level lane block from `from_level` to
  /// `to_level`. Lanes carry independent (source, target) PAIRS — the
  /// cross-plan packing device — so absorption and scoring are
  /// per-lane, mirroring the backward engine's per-lane targets: loads
  /// fresh seeds or saved snapshots, steps, scores each lane at its own
  /// target, and writes the per-lane states back under the byte budget.
  void AdvanceBlock(Workspace& st, const DhtParams& params, int from_level,
                    int to_level, const NodeId* lane_source,
                    const NodeId* lane_target, const std::size_t* lane_slot,
                    double* const* lane_out, int width,
                    ForwardBatchStates& states, bool save_states) {
    // Load: fresh lanes seed unit mass at their source; resumed lanes
    // replay their sparse snapshot (mass stays inside the sources'
    // components, so the plan from the lane sources covers both).
    batch_core::LoadLaneMass<W>(
        st, from_level, lane_source, width,
        [&](int b) -> const std::vector<std::pair<NodeId, double>>& {
          return states.FindSlot(lane_slot[b])->mass;
        });
    st.plan = options_.restrict_dense
                  ? g_.PlanDenseSweep({lane_source,
                                       static_cast<std::size_t>(width)})
                  : g_.FullSweepPlan();

    // Resume the discount where the walk stopped (lane 0 speaks for the
    // uniform-level block; equal levels have bit-equal saved lambda^l
    // products); fresh blocks start at lambda^0.
    double lambda_pow =
        from_level == 0 ? 1.0
                        : states.FindSlot(lane_slot[0])->lambda_pow;

    for (int step = from_level; step < to_level; ++step) {
      Step(st, width);
      lambda_pow *= params.lambda;
      const double coeff = params.alpha * lambda_pow;
      for (int b = 0; b < width; ++b) {
        // Each lane reads (and, under first-hit, darkens) its OWN
        // absorption target's mass slot.
        double& cell = st.mass[static_cast<std::size_t>(lane_target[b]) * W +
                               static_cast<std::size_t>(b)];
        *lane_out[b] += coeff * cell;
        if (params.first_hit) cell = 0.0;
      }
    }

    // Write back per-lane states under the byte budget. As in the
    // backward batch, the old (lower-level) snapshot is kept whenever
    // the new one does not fit, so budget pressure degrades resume
    // gracefully instead of to a full restart every level. A final
    // advance (save_states off) skips the snapshots entirely.
    for (int b = 0; save_states && b < width; ++b) {
      ForwardBatchStates::Slot& slot = *states.FindSlot(lane_slot[b]);
      ForwardBatchStates::Slot cand;
      cand.level = to_level;
      cand.lambda_pow = lambda_pow;
      cand.score = *lane_out[b];
      batch_core::CollectLaneMass(st, b, cand.mass);
      cand.bytes = cand.ApproxBytes();
      states.TryCommit(slot, std::move(cand));
    }

    st.RestoreZeroInvariant();
  }

  const Graph& g_;
  Options options_;
  ThreadPool pool_;
  batch_core::WorkspacePool<W> workspaces_;
};

/// The default 8-lane engine (one cache line of doubles per node).
using ForwardWalkerBatch = ForwardWalkerBatchT<8>;

extern template class ForwardWalkerBatchT<8>;
extern template class ForwardWalkerBatchT<4>;

}  // namespace dhtjoin

#endif  // DHTJOIN_DHT_FORWARD_BATCH_H_
