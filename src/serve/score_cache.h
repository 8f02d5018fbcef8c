/// \file serve/score_cache.h
/// \brief Cross-query walk-state / score cache for the serving layer.
///
/// Every join in the library is cold today at the process level: NL
/// rebuilds its per-edge tables per Run(), the IDJ engines' resumable
/// snapshots die with the join object, and the Y-bound sweep is repaid
/// per query. ScoreCache is the shared, thread-safe store that lets a
/// stream of queries amortize all of that: a sharded, byte-budgeted LRU
/// generalizing dht/walker_state.h's WalkerStatePool, keyed exactly by
/// everything a payload's bits depend on — graph fingerprint, DhtParams
/// coefficients, truncation depth d where it matters, walk direction,
/// and the seed node / seed node sets (see CacheKey).
///
/// Keying is EXACT, not probabilistic: besides the 64-bit content
/// digests used for hashing, a key carries shared_ptr copies of its
/// seed-set contents and equality compares them element-wise, so a
/// digest collision can never alias two different queries. Combined
/// with the engines' sorted-support determinism (DESIGN.md §3 and §6),
/// this is what makes a warm hit BYTE-safe: a resumed or reused payload
/// is bit-identical to what a cold query would recompute.
///
/// Eviction is always safe (the WalkerStatePool argument): a dropped
/// entry costs the next query time, never correctness. Entries are
/// handed out as shared_ptr<const ...>, so a reader holding a payload
/// is unaffected by concurrent eviction.

#ifndef DHTJOIN_SERVE_SCORE_CACHE_H_
#define DHTJOIN_SERVE_SCORE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "dht/backward.h"
#include "dht/backward_batch.h"
#include "dht/bounds.h"
#include "dht/params.h"
#include "graph/graph.h"

namespace dhtjoin::serve {

/// Content hash of a graph's CSR (nodes, degrees, targets, probability
/// bits). Two graphs with equal fingerprints are — for all practical
/// purposes — the same graph, and any cached walk state computed on one
/// is valid on the other. O(n + m); compute once per served graph.
uint64_t GraphFingerprint(const Graph& g);

/// Order-sensitive content digest of an external-id list
/// (NodeSet::nodes() is sorted/deduped, so equal sets digest equally).
/// Used for HASHING keys only; equality always compares contents.
uint64_t DigestNodes(std::span<const ExtNodeId> nodes);

/// What a cache entry holds; part of the key, so one cache serves all
/// payload kinds without any chance of cross-kind aliasing.
enum class CachePayload : uint8_t {
  kBackwardSnapshot,  ///< scalar BackwardWalkerState of one target
  kBatchState,        ///< BackwardBatchSnapshot of (target, source set)
  kEdgeTable,         ///< NL's |L| x |R| forward score table
  kYBound,            ///< YBoundTable of (P, Q) at depth d
};

/// Exact cache key. `d` is set only for payloads whose key must name
/// the truncation depth (kEdgeTable, kYBound); level-carrying walk
/// states (kBackwardSnapshot, kBatchState) carry their depth as their
/// level and leave it 0. They need no d in the key because a cache
/// belongs to one service, which runs one d, and checkpoints
/// fingerprint d: a walk state at the service's d is final and holds
/// only its score row or deltas (DESIGN.md §6). Seed sets are carried
/// by shared_ptr and compared by CONTENT — the pointers just keep one
/// copy alive per key instead of one per comparison.
struct CacheKey {
  uint64_t graph_fp = 0;
  CachePayload kind = CachePayload::kBackwardSnapshot;
  DhtParams params;
  int d = 0;
  /// Seed/target node (EXTERNAL id), when the payload has one. Keys
  /// are layout-independent; graph_fp pins the layout separately.
  ExtNodeId seed = kInvalidExtNode;
  std::shared_ptr<const std::vector<ExtNodeId>> set_a;  ///< e.g. P / L
  std::shared_ptr<const std::vector<ExtNodeId>> set_b;  ///< e.g. Q / R
  uint64_t digest_a = 0;  ///< DigestNodes(*set_a); 0 when unset
  uint64_t digest_b = 0;

  bool operator==(const CacheKey& other) const;
  uint64_t Hash() const;
};

/// Base of every cached payload; ApproxBytes feeds the byte budget.
class CacheEntry {
 public:
  virtual ~CacheEntry() = default;
  virtual std::size_t ApproxBytes() const = 0;
  /// Depth of the walk the payload holds; 0 for a payload that holds
  /// no walk (a whole table). ScoreCache::PutDeepest arbitrates by it.
  virtual int WalkLevel() const { return 0; }
};

/// Scalar backward-walker snapshot (IncrementalTwoWayJoin / PJ-i).
struct CachedBackwardSnapshot final : CacheEntry {
  explicit CachedBackwardSnapshot(BackwardWalkerState s)
      : state(std::move(s)) {}
  BackwardWalkerState state;
  std::size_t ApproxBytes() const override {
    return sizeof(*this) + state.ApproxBytes();
  }
  int WalkLevel() const override { return state.level; }
};

/// Batched backward walk state of one (target, pinned source set) pair
/// (the serving two-way executor's unit of warmth).
struct CachedBatchState final : CacheEntry {
  explicit CachedBatchState(BackwardBatchSnapshot s) : snap(std::move(s)) {}
  BackwardBatchSnapshot snap;
  std::size_t ApproxBytes() const override {
    return sizeof(*this) + snap.ApproxBytes();
  }
  int WalkLevel() const override { return snap.level; }
};

/// NL's per-edge forward score table (|L| x |R| row-major h_d).
struct CachedTable final : CacheEntry {
  explicit CachedTable(std::shared_ptr<const std::vector<double>> t)
      : table(std::move(t)) {}
  std::shared_ptr<const std::vector<double>> table;
  std::size_t ApproxBytes() const override {
    return sizeof(*this) + (table == nullptr
                                ? 0
                                : table->capacity() * sizeof(double));
  }
};

/// Y_l^+(P, q) table of one (P, Q, d) triple (B-IDJ-Y's up-front sweep).
struct CachedYBound final : CacheEntry {
  explicit CachedYBound(YBoundTable t) : table(std::move(t)) {}
  YBoundTable table;
  std::size_t ApproxBytes() const override {
    // d+1 doubles per target plus vector headers.
    return sizeof(*this) +
           static_cast<std::size_t>(table.d() + 1) * sizeof(double) *
               num_targets_hint +
           num_targets_hint * sizeof(std::vector<double>);
  }
  /// |Q| of the construction, recorded because YBoundTable does not
  /// expose it; set by the inserter.
  std::size_t num_targets_hint = 0;
};

/// Aggregate counters; readable while the cache is in use.
struct CacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t insertions = 0;
  int64_t evictions = 0;
  /// Puts turned away by the admission policy (first touch of a small
  /// payload; see Options::admission_bypass_bytes).
  int64_t admission_rejects = 0;
  std::size_t resident_bytes = 0;
  std::size_t entries = 0;
};

/// Sharded, thread-safe, byte-budgeted LRU over CacheKey -> CacheEntry.
///
/// Each shard owns an independent mutex, LRU list, and an equal slice
/// of the byte budget, so concurrent query sessions contend only when
/// they hash to the same shard. A budget of 0 disables retention
/// entirely (every Put is immediately evicted) — the "cold" serving
/// configuration used by benchmarks and the budget-0 equivalence tests.
class ScoreCache {
 public:
  struct Options {
    /// Total byte budget across shards. 0 = hold nothing.
    std::size_t max_bytes = std::size_t{256} << 20;
    /// Power of two recommended; clamped to >= 1.
    int num_shards = 8;
    /// Admission policy (first-touch bypass with a size floor): a
    /// payload SMALLER than this is only admitted once its key has
    /// been offered before — one-shot tiny queries then never enter
    /// the LRU, so they stop churning it, while any repeated key is
    /// admitted on its second offer. Payloads at or above the floor
    /// are always admitted (recomputing them is what the cache is
    /// for). 0 (default) admits everything. Rejects are surfaced as
    /// CacheStats::admission_rejects.
    std::size_t admission_bypass_bytes = 0;
  };

  explicit ScoreCache(Options options);

  /// Returns the entry under `key` (bumping it in its shard's LRU) or
  /// nullptr. The returned pointer keeps the payload alive regardless
  /// of later eviction.
  std::shared_ptr<const CacheEntry> Get(const CacheKey& key);

  /// Typed Get; returns nullptr on miss. The key's `kind` field keeps
  /// payload types disjoint, so the cast cannot mismatch for callers
  /// that pair kinds and types consistently (all of serve/ does).
  template <typename T>
  std::shared_ptr<const T> GetAs(const CacheKey& key) {
    return std::dynamic_pointer_cast<const T>(Get(key));
  }

  /// Get without the LRU bump or hit/miss accounting — for write-back
  /// guards ("is the cached state already deeper than mine?") that
  /// should not distort serving metrics or recency.
  std::shared_ptr<const CacheEntry> Peek(const CacheKey& key);

  template <typename T>
  std::shared_ptr<const T> PeekAs(const CacheKey& key) {
    return std::dynamic_pointer_cast<const T>(Peek(key));
  }

  /// Inserts (or replaces) `entry` under `key`, then evicts the shard's
  /// LRU tail to its budget slice. An entry larger than the slice is
  /// not retained.
  void Put(const CacheKey& key, std::shared_ptr<const CacheEntry> entry);

  /// Put under the cache's one rule for keys that may already be
  /// resident (DESIGN.md §6): an entry replaces a resident one only
  /// when it holds a strictly deeper walk (CacheEntry::WalkLevel). The
  /// decision and the insert are one step under the shard lock, so
  /// racing sessions converge on the deepest walk either of them did.
  /// Whole tables (level 0) are resident-wins.
  void PutDeepest(const CacheKey& key,
                  std::shared_ptr<const CacheEntry> entry);

  void Erase(const CacheKey& key);
  void Clear();

  /// One resident entry, as exported for persistence.
  struct ExportedEntry {
    CacheKey key;
    std::shared_ptr<const CacheEntry> entry;
  };

  /// Point-in-time copy of every resident (key, entry) pair, in shard
  /// order, most-recently-used first within a shard — so a size-capped
  /// checkpoint keeps the hottest payloads. Shared_ptr copies keep the
  /// payloads alive independent of later eviction; recency and the
  /// hit/miss counters are untouched (this is an observer, not a
  /// reader). Each shard is locked only while being copied.
  std::vector<ExportedEntry> Export();

  CacheStats stats() const;
  std::size_t max_bytes() const { return options_.max_bytes; }
  int num_shards() const { return static_cast<int>(shards_.size()); }

 private:
  /// Put, unless `keep_existing(current)` returns true for an entry
  /// already under `key`. The predicate runs under the shard lock.
  void PutIf(const CacheKey& key, std::shared_ptr<const CacheEntry> entry,
             const std::function<bool(const CacheEntry&)>& keep_existing);

  struct KeyHash {
    std::size_t operator()(const CacheKey& k) const {
      return static_cast<std::size_t>(k.Hash());
    }
  };

  struct Node {
    CacheKey key;
    std::shared_ptr<const CacheEntry> entry;
    std::size_t bytes = 0;
  };

  struct Shard {
    std::mutex mu;
    std::list<Node> lru;  // front = most recent
    std::unordered_map<CacheKey, std::list<Node>::iterator, KeyHash> index;
    std::size_t bytes = 0;
    /// Admission doorkeeper: key hashes offered at least once. Hash
    /// collisions only ever admit EARLY (harmless — admission is a
    /// heuristic; keying stays exact). Cleared when it outgrows its
    /// bound so memory stays O(1) per shard.
    std::unordered_set<uint64_t> seen;
  };

  /// Doorkeeper entry bound per shard. A node-based unordered_set
  /// costs ~32-40 bytes per entry (node + bucket share), so this caps
  /// the doorkeeper near 0.5 MB per shard — a few MB per cache,
  /// deliberately outside the payload byte budget.
  static constexpr std::size_t kMaxSeenPerShard = std::size_t{1} << 14;

  Shard& ShardFor(const CacheKey& key);

  Options options_;
  std::size_t shard_budget_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> insertions_{0};
  std::atomic<int64_t> evictions_{0};
  std::atomic<int64_t> admission_rejects_{0};
};

}  // namespace dhtjoin::serve

#endif  // DHTJOIN_SERVE_SCORE_CACHE_H_
