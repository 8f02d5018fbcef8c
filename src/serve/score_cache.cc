#include "serve/score_cache.h"

#include <bit>

#include "util/rng.h"

namespace dhtjoin::serve {

namespace {

/// Chained SplitMix64 over a stream of 64-bit words.
class HashStream {
 public:
  explicit HashStream(uint64_t seed) : state_(seed) { Mix(seed); }

  void Mix(uint64_t word) {
    state_ ^= word + 0x9e3779b97f4a7c15ULL;
    hash_ = SplitMix64(state_) ^ (hash_ * 0x100000001b3ULL);
  }

  void MixDouble(double v) { Mix(std::bit_cast<uint64_t>(v)); }

  uint64_t hash() const { return hash_; }

 private:
  uint64_t state_;
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

bool SameNodes(const std::shared_ptr<const std::vector<ExtNodeId>>& a,
               const std::shared_ptr<const std::vector<ExtNodeId>>& b) {
  if (a == b) return true;  // same vector (or both null)
  if (a == nullptr || b == nullptr) return false;
  return *a == *b;
}

bool SameParams(const DhtParams& a, const DhtParams& b) {
  // Exact coefficient equality: cached bits depend on the exact
  // doubles, so "close" params must not alias.
  return a.alpha == b.alpha && a.beta == b.beta && a.lambda == b.lambda &&
         a.first_hit == b.first_hit;
}

}  // namespace

uint64_t GraphFingerprint(const Graph& g) {
  HashStream h(0x6a09e667f3bcc909ULL);
  h.Mix(static_cast<uint64_t>(g.num_nodes()));
  h.Mix(static_cast<uint64_t>(g.num_edges()));
  // Layout epoch: cached payloads carry INTERNAL node ids, so two
  // layouts of the same logical graph must never alias — even if their
  // CSR bits coincide (a permutation of a symmetric graph).
  h.Mix(g.layout_epoch());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    h.Mix(static_cast<uint64_t>(g.OutDegree(IntNodeId(u))));
    for (const OutEdge& e : g.OutEdges(IntNodeId(u))) {
      h.Mix(static_cast<uint64_t>(static_cast<uint32_t>(e.to)));
      h.MixDouble(e.prob);
    }
  }
  return h.hash();
}

uint64_t DigestNodes(std::span<const ExtNodeId> nodes) {
  HashStream h(0xbb67ae8584caa73bULL);
  h.Mix(nodes.size());
  for (ExtNodeId u : nodes) {
    h.Mix(static_cast<uint64_t>(static_cast<uint32_t>(u.value())));
  }
  return h.hash();
}

bool CacheKey::operator==(const CacheKey& other) const {
  return graph_fp == other.graph_fp && kind == other.kind &&
         d == other.d && seed == other.seed &&
         digest_a == other.digest_a && digest_b == other.digest_b &&
         SameParams(params, other.params) && SameNodes(set_a, other.set_a) &&
         SameNodes(set_b, other.set_b);
}

uint64_t CacheKey::Hash() const {
  HashStream h(0x3c6ef372fe94f82bULL);
  h.Mix(graph_fp);
  h.Mix(static_cast<uint64_t>(kind));
  h.MixDouble(params.alpha);
  h.MixDouble(params.beta);
  h.MixDouble(params.lambda);
  h.Mix(params.first_hit ? 1 : 0);
  h.Mix(static_cast<uint64_t>(d));
  h.Mix(static_cast<uint64_t>(static_cast<uint32_t>(seed.value())));
  h.Mix(digest_a);
  h.Mix(digest_b);
  return h.hash();
}

ScoreCache::ScoreCache(Options options) : options_(options) {
  const int shards = options.num_shards < 1 ? 1 : options.num_shards;
  shards_.reserve(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  shard_budget_ = options_.max_bytes / static_cast<std::size_t>(shards);
}

ScoreCache::Shard& ScoreCache::ShardFor(const CacheKey& key) {
  // Shard on the high hash bits; the map uses the full hash below them.
  const uint64_t h = key.Hash();
  return *shards_[(h >> 48) % shards_.size()];
}

std::shared_ptr<const CacheEntry> ScoreCache::Get(const CacheKey& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->entry;
}

std::shared_ptr<const CacheEntry> ScoreCache::Peek(const CacheKey& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  return it == shard.index.end() ? nullptr : it->second->entry;
}

void ScoreCache::Put(const CacheKey& key,
                     std::shared_ptr<const CacheEntry> entry) {
  PutIf(key, std::move(entry),
        [](const CacheEntry&) { return false; });
}

void ScoreCache::PutIf(
    const CacheKey& key, std::shared_ptr<const CacheEntry> entry,
    const std::function<bool(const CacheEntry&)>& keep_existing) {
  if (entry == nullptr) return;
  const std::size_t bytes = entry->ApproxBytes();
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  // First-touch bypass for small payloads (Options::
  // admission_bypass_bytes): a tiny payload is only admitted once its
  // key was offered before. Resident keys update as usual — rejecting
  // those would stale the entry, not save memory.
  if (bytes < options_.admission_bypass_bytes && it == shard.index.end()) {
    if (shard.seen.size() >= kMaxSeenPerShard) shard.seen.clear();
    if (shard.seen.insert(key.Hash()).second) {
      admission_rejects_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  if (it != shard.index.end()) {
    if (keep_existing(*it->second->entry)) return;
    shard.bytes -= it->second->bytes;
    shard.lru.erase(it->second);
    shard.index.erase(it);
  }
  shard.lru.push_front(Node{key, std::move(entry), bytes});
  shard.index[key] = shard.lru.begin();
  shard.bytes += bytes;
  insertions_.fetch_add(1, std::memory_order_relaxed);
  while (shard.bytes > shard_budget_ && !shard.lru.empty()) {
    Node& victim = shard.lru.back();
    shard.bytes -= victim.bytes;
    shard.index.erase(victim.key);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ScoreCache::PutDeepest(const CacheKey& key,
                            std::shared_ptr<const CacheEntry> entry) {
  if (entry == nullptr) return;
  const int level = entry->WalkLevel();
  PutIf(key, std::move(entry), [level](const CacheEntry& existing) {
    return existing.WalkLevel() >= level;
  });
}

void ScoreCache::Erase(const CacheKey& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) return;
  shard.bytes -= it->second->bytes;
  shard.lru.erase(it->second);
  shard.index.erase(it);
}

void ScoreCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->lru.clear();
    shard->index.clear();
    shard->bytes = 0;
  }
}

std::vector<ScoreCache::ExportedEntry> ScoreCache::Export() {
  std::vector<ExportedEntry> out;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    out.reserve(out.size() + shard->lru.size());
    for (const Node& node : shard->lru) {
      out.push_back(ExportedEntry{node.key, node.entry});
    }
  }
  return out;
}

CacheStats ScoreCache::stats() const {
  CacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.insertions = insertions_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.admission_rejects = admission_rejects_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    s.resident_bytes += shard->bytes;
    s.entries += shard->lru.size();
  }
  return s;
}

}  // namespace dhtjoin::serve
