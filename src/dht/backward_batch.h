/// \file dht/backward_batch.h
/// \brief Batched multi-target backward evaluation (SpMM-style).
///
/// The backward join algorithms (B-BJ, B-IDJ) advance one BackwardWalker
/// per target q in Q — |Q| independent sparse matrix-vector products
/// that each re-stream the whole edge array. This evaluator advances
/// blocks of kLaneWidth targets TOGETHER: the mass state is an n x W
/// row-major matrix (one contiguous W-lane row per node), so one pass
/// over the edges relaxes W walkers at once. Per walker this divides
/// the edge-stream traffic by W and turns the random 8-byte gather of
/// mass[e.to] into a single cache line carrying all W lanes — the
/// classic SpMV -> SpMM win. Blocks are independent and fan out across
/// a ThreadPool for multicore scaling on top.
///
/// The block machinery (lane workspace, pooling, the frontier-adaptive
/// blocked step, level grouping, write-back-under-budget) is the shared
/// core in dht/batch_core.h, templated on direction and lane width;
/// this engine supplies the backward direction policy (sparse push over
/// transposed in-rows, dense sequential gather over the sweep plan's
/// out-rows) and is itself a template on the lane width W:
/// BackwardWalkerBatch is the 8-lane default (one cache line of
/// doubles); BackwardWalkerBatchT<4> is the narrow-lane option — half
/// the workspace bytes with twice the blocks in flight, bit-identical
/// results.
///
/// Steps are frontier-adaptive exactly like dht/propagate.h, and the
/// union support of a block is put in canonical order before every
/// push (the one step that consumes its order), so the per-lane
/// summation order is identical to the dense gather's CSR order —
/// scores are bit-identical across modes, lane groupings, lane WIDTHS,
/// thread counts, and restarted vs resumed walks (DESIGN.md §3).
///
/// Scores are only materialized for a caller-provided source set P
/// (joins never read anything else), which keeps the output |Q| x |P|
/// instead of |Q| x n.
///
/// Resumable deepening: the IDJ schedule walks the same targets at
/// levels 1, 2, 4, ..., d. BackwardBatchStates holds per-target sparse
/// snapshots (mass + score row + depth) so the advance entry points
/// continue each target from its saved level instead of restarting —
/// O(d) total steps per surviving target instead of O(2d). States live
/// under a byte budget; a target whose state was evicted (or never
/// saved) is transparently restarted, producing bit-identical scores.
/// A walk that reached the truncation depth d never advances again (h_d
/// is final), so an advance to d can save it row-only (SaveStates).
///
/// FUSED SCHEDULING: AdvanceMany() takes a whole round's worth of
/// advance groups — each its own target list, pinned source set, states
/// pool, and output rows — builds every (group, level-group,
/// lane-block) into ONE flat block list, and dispatches a single
/// ParallelFor. The per-group entry points (AdvanceChunked, and Run's
/// from-scratch schedule) are thin wrappers over the same machinery, so
/// every caller shares one code path and the fork/join barrier count
/// per deepening round is 1, not |groups| (DESIGN.md §8; the barrier
/// reduction is gated in bench_scheduler).
///
/// Memory contract: each concurrently-running block owns a workspace of
/// 2 * n * kLaneWidth doubles (128 bytes/node at W = 8). Peak transient
/// memory is num_threads x 2 * W * 8 bytes x n, plus whatever
/// BackwardBatchStates' budget admits. Between runs, workspaces are
/// pooled up to Options::max_pooled_bytes; the pool is trimmed to the
/// cap at every run boundary (workspaces_discarded counts the frees).
///
/// Node ids crossing the public interface (targets, sources) are
/// EXTERNAL ids; the engine translates to the graph's physical layout
/// (graph/reorder.h) at entry, keeps its union support sorted in
/// CANONICAL (external) order, and restricts dense gathers to the
/// walk's weak components (Graph::PlanDenseSweep) — so scores are
/// bit-identical across layouts AND the dense fallback of a saturated-
/// but-local walk costs O(|ball|), not O(n + m). Snapshot mass node ids
/// (BackwardBatchSnapshot::mass) are INTERNAL and only meaningful on
/// the graph/layout they were saved from; the serving cache enforces
/// that via the layout-aware GraphFingerprint.

#ifndef DHTJOIN_DHT_BACKWARD_BATCH_H_
#define DHTJOIN_DHT_BACKWARD_BATCH_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
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

/// Portable snapshot of one saved target walk: depth, discount, sparse
/// mass, and the score row over the pinned source set. The serving
/// layer (src/serve/) moves these between a query's BackwardBatchStates
/// and a cross-query cache via Import/Take; the engine itself only ever
/// sees slots.
struct BackwardBatchSnapshot {
  int level = 0;
  double lambda_pow = 1.0;
  /// Nonzero masses in the saved block's support order: the last
  /// step's emission order (a push's first-touch order or a gather's
  /// row order), not sorted. A resumed block's first push sorts. Empty
  /// in two cases: a walk whose mass died (no edge enters the target's
  /// ball), which resumes exactly from nothing, and a state saved
  /// row-only at the truncation depth d (SaveStates::kRowOnly), which
  /// is only ever scored from `row`, never advanced.
  std::vector<std::pair<NodeId, double>> mass;
  /// Score DELTAS over the pinned sources: h_level(p, q) - beta per
  /// source p. Kept beta-exclusive so a resumed row continues the exact
  /// floating-point sum the scalar BackwardWalker's score_delta_
  /// accumulates — the engines add beta only at output, which is what
  /// makes batch and scalar scores BIT-identical (DESIGN.md §3).
  std::vector<double> row;

  std::size_t ApproxBytes() const {
    return sizeof(*this) + mass.capacity() * sizeof(mass[0]) +
           row.capacity() * sizeof(double);
  }
};

/// Per-target resumable walk states for the backward batch engines,
/// indexed by a caller-stable slot id (B-IDJ uses the target's index
/// within Q). Retention is best-effort under the byte budget: a state
/// that does not fit is dropped and its walk restarts from scratch on
/// the next advance, with bit-identical results (see file comment).
/// When the budget came from the autotuner, callers fold the observed
/// hit/eviction counters back into it between rounds via the inherited
/// Retune() (batch_core::BatchStateBudget).
class BackwardBatchStates : public batch_core::BatchStateBudget {
 public:
  explicit BackwardBatchStates(std::size_t num_slots,
                               std::size_t max_bytes = kDefaultMaxBytes)
      : BatchStateBudget(max_bytes), slots_(num_slots) {}

  /// Default budget mirrors WalkerStatePool::kDefaultMaxBytes.
  static constexpr std::size_t kDefaultMaxBytes = std::size_t{256} << 20;

  /// Walked depth of `slot`; 0 means no saved state (fresh or evicted).
  int level(std::size_t slot) const { return slots_[slot].level; }

  /// Drops the saved state of `slot` (e.g. a pruned target).
  void Drop(std::size_t slot) {
    Slot& s = slots_[slot];
    bytes_.fetch_sub(s.bytes, std::memory_order_relaxed);
    s = Slot{};
  }

  /// Score DELTA row of `slot` over the pinned source set, at depth
  /// level(slot): h_level - beta per source (BackwardBatchSnapshot::row
  /// semantics — add beta to read scores). Empty when the slot holds no
  /// state. Valid until the slot is next advanced, dropped, or taken.
  std::span<const double> Row(std::size_t slot) const {
    return slots_[slot].row;
  }

  /// Moves the state of `slot` out into `out`, clearing the slot.
  /// Returns false (leaving `out` untouched) when the slot is empty.
  bool Take(std::size_t slot, BackwardBatchSnapshot* out) {
    Slot& s = slots_[slot];
    if (s.level == 0) return false;
    out->level = s.level;
    out->lambda_pow = s.lambda_pow;
    out->mass = std::move(s.mass);
    out->row = std::move(s.row);
    bytes_.fetch_sub(s.bytes, std::memory_order_relaxed);
    s = Slot{};
    return true;
  }

  /// Copies `snap` into `slot` (replacing any saved state). Returns
  /// false — slot left empty — when the copy would not fit the budget;
  /// the walk then simply restarts from scratch, bit-identically. A
  /// row-only snapshot costs its |P| row doubles and nothing else.
  bool Import(std::size_t slot, const BackwardBatchSnapshot& snap) {
    Drop(slot);
    if (snap.level == 0) return false;
    Slot cand;
    cand.level = snap.level;
    cand.lambda_pow = snap.lambda_pow;
    cand.mass = snap.mass;
    cand.row = snap.row;
    cand.bytes = cand.ApproxBytes();
    return TryCommit(slots_[slot], std::move(cand));
  }

 private:
  template <int>
  friend class BackwardWalkerBatchT;

  struct Slot {
    int level = 0;
    double lambda_pow = 1.0;
    std::vector<std::pair<NodeId, double>> mass;  // as in the snapshot
    std::vector<double> row;  // score row over the pinned source set
    std::size_t bytes = 0;

    std::size_t ApproxBytes() const {
      return sizeof(*this) + mass.capacity() * sizeof(mass[0]) +
             row.capacity() * sizeof(double);
    }
  };

  std::vector<Slot> slots_;
};

/// What an advance writes back into the states of the targets it
/// walked.
enum class SaveStates {
  /// Nothing: a final advance whose states are never read again.
  kNone,
  /// Depth, discount, lane mass and score row: the walk can resume.
  kResumable,
  /// Depth, discount and score row, no mass: for an advance to the
  /// truncation depth d, where h_d is final. The state can be scored
  /// from its row but never advanced past d.
  kRowOnly,
};

/// One group of the fused backward scheduler (AdvanceMany): advance
/// `targets` (whose resumable states live in `states` at `slots`) to
/// `to_level`, writing each target's score row over `sources` into
/// `out` (row-major, |targets| x |sources|). The source set must be
/// identical across every advance sharing a states object (rows are
/// resumed, not recomputed). Slot ids must be distinct across groups
/// that share one states object — groups are advanced concurrently.
struct BackwardAdvanceGroup {
  int to_level = 0;
  std::span<const ExtNodeId> targets;
  std::span<const std::size_t> slots;     // parallel to targets
  std::span<const ExtNodeId> sources;
  BackwardBatchStates* states = nullptr;
  /// kNone for a FINAL advance whose states would never be read again —
  /// spares the snapshot copies; kRowOnly for one whose rows are.
  SaveStates save_states = SaveStates::kResumable;
  double* out = nullptr;
};

/// Advances many backward walkers at once; see file comment.
/// W is the lane width (walkers advanced together per block, also the
/// SIMD-friendly row width of the mass matrix); use the
/// BackwardWalkerBatch alias (W = 8, one cache line of doubles) unless
/// workspace memory is the constraint.
template <int W>
class BackwardWalkerBatchT {
  static_assert(W > 0, "lane width must be positive");

 public:
  static constexpr int kLaneWidth = W;

  struct Options {
    PropagationMode mode = PropagationMode::kAdaptive;
    /// Worker threads; 0 means ThreadPool::DefaultThreadCount().
    int num_threads = 0;
    /// Restrict dense gathers to the walk's weak components (see file
    /// comment). Off = the seed engine's all-rows sweep; results are
    /// bit-identical either way (benchmark baseline switch).
    bool restrict_dense = true;
    /// Stream the split SoA (to[], prob[]) arrays in the dense gather
    /// instead of the 16-byte AoS OutEdge stream (bit-identical either
    /// way; bench_reorder A/Bs this). Default OFF here: at W = 8 the
    /// per-edge work is eight madds, which amortizes the AoS stream,
    /// and the second address stream measurably costs more than the 4
    /// saved bytes/edge. The SCALAR engine (one madd/edge, truly
    /// stream-bound) defaults to SoA, where the cut wins.
    bool soa_gather = false;
    /// Byte cap on idle block workspaces retained between runs; a
    /// workspace released over the cap is freed instead of pooled.
    std::size_t max_pooled_bytes = kDefaultMaxPooledBytes;
  };

  /// Default workspace-pool cap: generous for bench-scale graphs, yet
  /// bounds a many-core engine on a huge graph to ~8 idle workspaces.
  static constexpr std::size_t kDefaultMaxPooledBytes = std::size_t{1} << 30;

  explicit BackwardWalkerBatchT(const Graph& g)
      : BackwardWalkerBatchT(g, Options()) {}
  BackwardWalkerBatchT(const Graph& g, Options options)
      : g_(g),
        options_(options),
        pool_(options.num_threads > 0 ? options.num_threads
                                      : ThreadPool::DefaultThreadCount()),
        workspaces_(g.num_nodes(), options.max_pooled_bytes) {}

  /// Runs a d-step backward walk from every target and returns the
  /// scores of the requested sources, row-major:
  ///   result[t * sources.size() + s] = h_d(sources[s], targets[t]).
  /// Self pairs (sources[s] == targets[t]) are present but meaningless,
  /// mirroring BackwardWalker::Score — callers must skip them.
  ///
  /// The matrix is dense: callers with huge target sets must slice them
  /// to MaxTargetsPerRun() per call or the allocation alone defeats the
  /// engine (50k x 50k doubles is 20 GB).
  std::vector<double> Run(const DhtParams& params, int d,
                          std::span<const ExtNodeId> targets,
                          std::span<const ExtNodeId> sources) {
    DHTJOIN_CHECK(params.Validate().ok());
    DHTJOIN_CHECK_GE(d, 1);
    for (ExtNodeId q : targets) DHTJOIN_CHECK(g_.ContainsNode(q));
    for (ExtNodeId p : sources) DHTJOIN_CHECK(g_.ContainsNode(p));

    // External -> layout ids, once per call; all block work is internal.
    std::vector<NodeId> target_storage, source_storage;
    std::span<const NodeId> itargets =
        g_.MapToInternal(targets, target_storage);
    std::span<const NodeId> isources =
        g_.MapToInternal(sources, source_storage);

    // Blocks accumulate beta-EXCLUSIVE score deltas (the scalar
    // walker's score_delta_ sum, in the same step order); beta joins
    // once at the end, so every cell is bit-identical to
    // BackwardWalker::Score (DESIGN.md §3).
    std::vector<double> out(targets.size() * sources.size(), 0.0);
    const std::size_t num_blocks = (targets.size() + W - 1) / W;
    pool_.ParallelFor(static_cast<int64_t>(num_blocks), [&](int64_t block) {
      const std::size_t first = static_cast<std::size_t>(block) * W;
      const int width =
          static_cast<int>(std::min<std::size_t>(W, targets.size() - first));
      auto state = workspaces_.Acquire();
      RunBlock(*state, params, d, itargets, first, width, isources,
               out.data());
      workspaces_.Release(std::move(state));
    });
    workspaces_.Trim();
    for (double& cell : out) cell += params.beta;
    return out;
  }

  /// Largest target count per Run() that keeps the returned matrix near
  /// 32 MB; never less than one full lane block.
  static std::size_t MaxTargetsPerRun(std::size_t num_sources) {
    constexpr std::size_t kMaxMatrixDoubles = std::size_t{4} << 20;
    std::size_t cap = kMaxMatrixDoubles / (num_sources == 0 ? 1 : num_sources);
    return cap < static_cast<std::size_t>(W) ? static_cast<std::size_t>(W)
                                             : cap;
  }

  /// Run() with the MaxTargetsPerRun slicing applied: walks every
  /// target, invoking consume(target_index, row) with the |sources|-wide
  /// score row of targets[target_index]. Rows are only valid during the
  /// callback. This is the form the broad joins use — memory stays
  /// bounded regardless of |targets| x |sources|. `max_targets_per_run`
  /// forces a smaller slice (0 = MaxTargetsPerRun); tests use it to
  /// exercise the multi-chunk path at toy sizes.
  template <typename Consume>
  void RunChunked(const DhtParams& params, int d,
                  std::span<const ExtNodeId> targets,
                  std::span<const ExtNodeId> sources, Consume&& consume,
                  std::size_t max_targets_per_run = 0) {
    const std::size_t chunk = max_targets_per_run > 0
                                  ? max_targets_per_run
                                  : MaxTargetsPerRun(sources.size());
    for (std::size_t base = 0; base < targets.size(); base += chunk) {
      const std::size_t count = std::min(chunk, targets.size() - base);
      std::vector<double> scores =
          Run(params, d, targets.subspan(base, count), sources);
      for (std::size_t i = 0; i < count; ++i) {
        // data() + offset, not operator[]: the row pointer is valid (if
        // useless) even for an empty source set.
        consume(base + i, scores.data() + i * sources.size());
      }
    }
  }

  /// The resumable form of RunChunked: advances targets[i] (whose state
  /// lives in states slot slots[i]) from its saved level to `to_level`,
  /// then invokes consume(i, row) with its h_{to_level} score row over
  /// `sources`. Targets saved at different levels are grouped and
  /// advanced separately, so evictions and fresh targets mix freely.
  /// `save_states` says what the write-back keeps (SaveStates).
  /// Returns the number of walks that started from scratch (fresh or
  /// evicted). A thin wrapper over AdvanceMany (one group per chunk).
  template <typename Consume>
  int64_t AdvanceChunked(const DhtParams& params, int to_level,
                         std::span<const ExtNodeId> targets,
                         std::span<const std::size_t> slots,
                         std::span<const ExtNodeId> sources,
                         BackwardBatchStates& states, Consume&& consume,
                         SaveStates save_states = SaveStates::kResumable,
                         std::size_t max_targets_per_run = 0,
                         const ExecContext* exec = nullptr,
                         bool* interrupted = nullptr) {
    DHTJOIN_CHECK_EQ(targets.size(), slots.size());
    const std::size_t chunk = max_targets_per_run > 0
                                  ? max_targets_per_run
                                  : MaxTargetsPerRun(sources.size());
    int64_t fresh = 0;
    for (std::size_t base = 0; base < targets.size(); base += chunk) {
      const std::size_t count = std::min(chunk, targets.size() - base);
      std::vector<double> scores(count * sources.size());
      BackwardAdvanceGroup group;
      group.to_level = to_level;
      group.targets = targets.subspan(base, count);
      group.slots = slots.subspan(base, count);
      group.sources = sources;
      group.states = &states;
      group.save_states = save_states;
      group.out = scores.data();
      fresh += AdvanceMany(params, {&group, 1}, exec, interrupted);
      if (interrupted != nullptr && *interrupted) return fresh;
      for (std::size_t i = 0; i < count; ++i) {
        consume(base + i, scores.data() + i * sources.size());
      }
    }
    return fresh;
  }

  /// The fused multi-group scheduler (see file comment): advances every
  /// group's targets in ONE ParallelFor across all (group, level-group,
  /// lane-block) blocks. Group enumeration order, per-group level
  /// grouping, and lane blocking are exactly those of sequential
  /// per-group AdvanceChunked calls, so the written rows are
  /// byte-identical to the per-group loop. Callers are responsible for
  /// sizing the union of `out` buffers (one round's rows must fit in
  /// memory; slice the groups across calls when they cannot). Returns
  /// the number of walks started from scratch.
  ///
  /// Cooperative stop (util/deadline.h): when `exec` is set, each block
  /// polls exec->CheckBlockGroup() ONCE before running — per block
  /// group, never per edge. On a stop, blocks that have not started are
  /// skipped (their slots keep their previous saved level; their output
  /// rows are garbage) and `*interrupted` is set; the caller must then
  /// DISCARD the round and degrade at its last completed level
  /// (DESIGN.md §9). Blocks already running finish normally — that
  /// bounds stop latency to one block group.
  int64_t AdvanceMany(const DhtParams& params,
                      std::span<const BackwardAdvanceGroup> groups,
                      const ExecContext* exec = nullptr,
                      bool* interrupted = nullptr) {
    DHTJOIN_CHECK(params.Validate().ok());
    // One span per fused round (never per block): blocks run, lanes
    // packed, fresh walks, and an edge-stream byte estimate.
    obs::Trace* const obs_trace = obs::TraceOf(exec);
    obs::ScopedSpan obs_span(obs_trace, "b.advance_many");
    const int64_t obs_edges_before =
        obs_trace != nullptr ? workspaces_.edges_relaxed() : 0;
    struct GroupCtx {
      std::vector<NodeId> target_storage, source_storage;
      std::span<const NodeId> itargets, isources;
    };
    std::vector<GroupCtx> ctx(groups.size());
    batch_core::BlockList blocks;
    int64_t fresh = 0;
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
      const BackwardAdvanceGroup& grp = groups[gi];
      DHTJOIN_CHECK_GE(grp.to_level, 1);
      DHTJOIN_CHECK(grp.states != nullptr);
      DHTJOIN_CHECK(grp.out != nullptr || grp.targets.empty());
      DHTJOIN_CHECK_EQ(grp.targets.size(), grp.slots.size());
      for (ExtNodeId q : grp.targets) DHTJOIN_CHECK(g_.ContainsNode(q));
      for (ExtNodeId p : grp.sources) DHTJOIN_CHECK(g_.ContainsNode(p));
      ctx[gi].itargets = g_.MapToInternal(grp.targets, ctx[gi].target_storage);
      ctx[gi].isources = g_.MapToInternal(grp.sources, ctx[gi].source_storage);

      // Initialize each target's output row from its saved delta row
      // (or zero when fresh) and enumerate still-advancing targets into
      // uniform-level lane blocks. Rows stay beta-exclusive until the
      // post-barrier pass below.
      BackwardBatchStates& states = *grp.states;
      const std::size_t num_sources = grp.sources.size();
      for (std::size_t i = 0; i < grp.targets.size(); ++i) {
        const BackwardBatchStates::Slot& slot = states.slots_[grp.slots[i]];
        DHTJOIN_CHECK_LE(slot.level, grp.to_level);
        double* row = grp.out + i * num_sources;
        if (slot.level == 0) {
          std::fill(row, row + num_sources, 0.0);
          ++fresh;
          states.misses_.fetch_add(1, std::memory_order_relaxed);
        } else {
          DHTJOIN_CHECK_EQ(slot.row.size(), num_sources);
          std::copy(slot.row.begin(), slot.row.end(), row);
          states.hits_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      batch_core::AppendLevelBlocks(
          gi, grp.targets.size(), grp.to_level, W,
          [&](std::size_t i) { return states.slots_[grp.slots[i]].level; },
          blocks);
    }

    // ONE fork/join for the whole round, every group and level mixed;
    // blocks are independent (disjoint slots, disjoint output rows).
    std::atomic<bool> stopped{false};
    pool_.ParallelFor(
        static_cast<int64_t>(blocks.blocks.size()), [&](int64_t bi) {
          if (exec != nullptr) {
            if (stopped.load(std::memory_order_relaxed) ||
                exec->CheckBlockGroup() != StatusCode::kOk) {
              stopped.store(true, std::memory_order_relaxed);
              return;
            }
          }
          const batch_core::LevelBlock& blk =
              blocks.blocks[static_cast<std::size_t>(bi)];
          const BackwardAdvanceGroup& grp = groups[blk.plan];
          std::span<const std::size_t> lanes = blocks.Lanes(blk);
          const int width = blk.width;
          NodeId lane_targets[W];
          std::size_t lane_slots[W];
          double* rows[W];
          for (int b = 0; b < width; ++b) {
            const std::size_t i = lanes[static_cast<std::size_t>(b)];
            lane_targets[b] = ctx[blk.plan].itargets[i];
            lane_slots[b] = grp.slots[i];
            rows[b] = grp.out + i * grp.sources.size();
          }
          auto state = workspaces_.Acquire();
          AdvanceBlock(*state, params, blk.from_level, grp.to_level,
                       {lane_targets, static_cast<std::size_t>(width)},
                       {lane_slots, static_cast<std::size_t>(width)},
                       ctx[blk.plan].isources, *grp.states, grp.save_states,
                       rows);
          workspaces_.Release(std::move(state));
        });
    workspaces_.Trim();
    if (interrupted != nullptr) {
      *interrupted = stopped.load(std::memory_order_relaxed);
    }
    // Rows (and the snapshots written back above) are beta-exclusive
    // deltas; hand callers real scores. beta + delta is exactly the
    // scalar walker's read, so the output is bit-identical to it.
    for (const BackwardAdvanceGroup& grp : groups) {
      const std::size_t cells = grp.targets.size() * grp.sources.size();
      for (std::size_t c = 0; c < cells; ++c) grp.out[c] += params.beta;
    }
    if (obs_trace != nullptr) {
      int64_t lanes = 0;
      for (const batch_core::LevelBlock& blk : blocks.blocks) {
        lanes += blk.width;
      }
      obs_span.SetAttr("groups", static_cast<int64_t>(groups.size()));
      obs_span.SetAttr("blocks", static_cast<int64_t>(blocks.blocks.size()));
      obs_span.SetAttr("lanes", lanes);
      obs_span.SetAttr("fresh", fresh);
      obs_span.SetAttr("bytes",
                       (workspaces_.edges_relaxed() - obs_edges_before) *
                           static_cast<int64_t>(sizeof(InEdge)));
      if (stopped.load(std::memory_order_relaxed)) {
        obs_span.SetAttr("interrupted", int64_t{1});
      }
    }
    return fresh;
  }

  /// Per-walker edges relaxed, summed over all lanes and runs,
  /// comparable with sequential BackwardWalker::edges_relaxed: a sparse
  /// step bills each lane only for frontier nodes where that lane has
  /// mass; a dense pass bills every lane its sweep plan's edges (all of
  /// |E| when unrestricted — the work the blocked kernel performs per
  /// lane).
  int64_t edges_relaxed() const { return workspaces_.edges_relaxed(); }

  /// Fork/join barriers dispatched by this engine so far (one per Run
  /// chunk or AdvanceMany round). The fused scheduler exists to keep
  /// this independent of |Q|; surfaced as TwoWayJoinStats::pool_barriers.
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
    batch_core::StepLanes<batch_core::BackwardStepPolicy, W>(
        g_, options_.mode, options_.soa_gather, st, width);
  }

  /// Walks one block of `width` targets to depth d, writing score rows
  /// for block-local target t into out[(first_target + t) * num_sources].
  void RunBlock(Workspace& st, const DhtParams& params, int d,
                std::span<const NodeId> targets, std::size_t first_target,
                int width, std::span<const NodeId> sources, double* out) {
    const auto num_sources = static_cast<std::size_t>(sources.size());

    // Seed: lane b carries the walker of targets[first_target + b].
    // Duplicate targets simply share a support node with two live lanes.
    NodeId lane_target[W];
    for (int b = 0; b < width; ++b) {
      NodeId q = targets[first_target + static_cast<std::size_t>(b)];
      lane_target[b] = q;
      st.mass[static_cast<std::size_t>(q) * W + static_cast<std::size_t>(b)] =
          1.0;
      st.support.push_back(q);
    }
    // Dedup in case two lanes share a target node (they stay independent
    // columns of the shared row).
    g_.SortCanonical(st.support);
    st.support.erase(std::unique(st.support.begin(), st.support.end()),
                     st.support.end());
    st.support_canonical = true;
    st.plan = options_.restrict_dense
                  ? g_.PlanDenseSweep({lane_target,
                                       static_cast<std::size_t>(width)})
                  : g_.FullSweepPlan();

    double lambda_pow = 1.0;
    for (int step = 0; step < d; ++step) {
      Step(st, width);

      // Score the requested sources: h grows by alpha * lambda^i * P_i.
      lambda_pow *= params.lambda;
      const double coeff = params.alpha * lambda_pow;
      for (std::size_t s = 0; s < num_sources; ++s) {
        const double* row =
            &st.mass[static_cast<std::size_t>(sources[s]) * W];
        for (int b = 0; b < width; ++b) {
          out[(first_target + static_cast<std::size_t>(b)) * num_sources +
              s] += coeff * row[b];
        }
      }

      // First-hit absorption, per lane: mass that reached the lane's own
      // target must not re-emit.
      if (params.first_hit) {
        for (int b = 0; b < width; ++b) {
          st.mass[static_cast<std::size_t>(lane_target[b]) * W +
                  static_cast<std::size_t>(b)] = 0.0;
        }
      }
    }

    st.RestoreZeroInvariant();
  }

  /// Walks one uniform-level block from `from_level` to `to_level`.
  /// Fresh lanes (from_level == 0) seed unit mass at their target;
  /// resumed lanes replay their sparse snapshot. Saves per-lane states
  /// back into `states` under its budget, as `save_states` says.
  void AdvanceBlock(Workspace& st, const DhtParams& params, int from_level,
                    int to_level, std::span<const NodeId> lane_targets,
                    std::span<const std::size_t> lane_slots,
                    std::span<const NodeId> sources,
                    BackwardBatchStates& states, SaveStates save_states,
                    double* const* rows) {
    const int width = static_cast<int>(lane_targets.size());
    const auto num_sources = static_cast<std::size_t>(sources.size());

    // Load: every lane's mass lives in its target's weak component, so
    // the plan from the lane targets covers resumed snapshots too.
    NodeId lane_target[W];
    for (int b = 0; b < width; ++b) {
      lane_target[b] = lane_targets[static_cast<std::size_t>(b)];
    }
    batch_core::LoadLaneMass<W>(
        st, from_level, lane_target, width,
        [&](int b) -> const std::vector<std::pair<NodeId, double>>& {
          return states.slots_[lane_slots[static_cast<std::size_t>(b)]].mass;
        });
    st.plan = options_.restrict_dense
                  ? g_.PlanDenseSweep({lane_target,
                                       static_cast<std::size_t>(width)})
                  : g_.FullSweepPlan();

    // Resume the discount where the walk stopped: all lanes share a
    // level (and thus bit-equal saved lambda^level values), so lane 0
    // speaks for the block; fresh blocks start at lambda^0.
    double lambda_pow =
        from_level == 0 ? 1.0 : states.slots_[lane_slots[0]].lambda_pow;

    for (int step = from_level; step < to_level; ++step) {
      Step(st, width);
      lambda_pow *= params.lambda;
      const double coeff = params.alpha * lambda_pow;
      for (std::size_t s = 0; s < num_sources; ++s) {
        const double* row = &st.mass[static_cast<std::size_t>(sources[s]) * W];
        for (int b = 0; b < width; ++b) rows[b][s] += coeff * row[b];
      }
      if (params.first_hit) {
        for (int b = 0; b < width; ++b) {
          st.mass[static_cast<std::size_t>(lane_target[b]) * W +
                  static_cast<std::size_t>(b)] = 0.0;
        }
      }
    }

    // Write back per-lane states under the byte budget. The old
    // snapshot is only released once the new one is known to fit: under
    // budget pressure a lane keeps its previous (lower-level) state, so
    // the next advance resumes from there instead of degrading to a
    // full restart (the level grouping handles mixed saved levels). A
    // final advance skips the snapshots entirely (kNone) or keeps only
    // their rows (kRowOnly).
    for (int b = 0; save_states != SaveStates::kNone && b < width; ++b) {
      BackwardBatchStates::Slot& slot =
          states.slots_[lane_slots[static_cast<std::size_t>(b)]];
      BackwardBatchStates::Slot cand;
      cand.level = to_level;
      cand.lambda_pow = lambda_pow;
      if (save_states == SaveStates::kResumable) {
        batch_core::CollectLaneMass(st, b, cand.mass);
      }
      cand.row.assign(rows[b], rows[b] + num_sources);
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
using BackwardWalkerBatch = BackwardWalkerBatchT<8>;

extern template class BackwardWalkerBatchT<8>;
extern template class BackwardWalkerBatchT<4>;

}  // namespace dhtjoin

#endif  // DHTJOIN_DHT_BACKWARD_BATCH_H_
