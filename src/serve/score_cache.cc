#include "serve/score_cache.h"

#include <algorithm>
#include <bit>

#include "util/check.h"
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

bool SameNodes(const NodeList& a, const NodeList& b) {
  // Interned keys share one vector per set: the pointer decides on the
  // hot path, the contents otherwise.
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

std::size_t ScoreCache::ShardIndex(uint64_t hash) const {
  // Shard on the high hash bits; the map uses the full hash below them.
  return (hash >> 48) % shards_.size();
}

NodeList ScoreCache::Intern(std::span<const ExtNodeId> nodes,
                            uint64_t digest) {
  InternTable& table = *interned_;
  std::lock_guard<std::mutex> lock(table.mu);
  auto [lo, hi] = table.sets.equal_range(digest);
  for (auto it = lo; it != hi; ++it) {
    // A listed vector is still allocated, expired or not (InternTable).
    const std::vector<ExtNodeId>& held = *it->second.ptr;
    const bool same =
        (held.data() == nodes.data() && held.size() == nodes.size()) ||
        std::ranges::equal(held, nodes);
    if (!same) continue;
    if (NodeList live = it->second.weak.lock()) return live;
  }
  auto* fresh = new std::vector<ExtNodeId>(nodes.begin(), nodes.end());
  NodeList out(fresh, [owner = interned_,
                       digest](const std::vector<ExtNodeId>* v) {
    {
      std::lock_guard<std::mutex> guard(owner->mu);
      auto [first, last] = owner->sets.equal_range(digest);
      for (auto entry = first; entry != last; ++entry) {
        if (entry->second.ptr == v) {
          owner->sets.erase(entry);
          break;
        }
      }
    }
    delete v;
  });
  table.sets.emplace(digest, InternTable::Interned{fresh, out});
  return out;
}

std::size_t ScoreCache::interned_sets() const {
  std::lock_guard<std::mutex> lock(interned_->mu);
  return interned_->sets.size();
}

void ScoreCache::GetMany(std::span<const CacheKey> keys,
                         std::span<std::shared_ptr<const CacheEntry>> out) {
  DHTJOIN_CHECK_EQ(keys.size(), out.size());
  // Group the keys by shard, stably (a counting sort): `order` lists
  // shard 0's keys in their given order, then shard 1's, and so on.
  std::vector<uint64_t> hashes(keys.size());
  std::vector<std::size_t> start(shards_.size() + 1, 0);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    hashes[i] = keys[i].Hash();
    ++start[ShardIndex(hashes[i]) + 1];
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) start[s + 1] += start[s];
  std::vector<std::size_t> order(keys.size());
  {
    std::vector<std::size_t> next(start.begin(), start.end() - 1);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      order[next[ShardIndex(hashes[i])]++] = i;
    }
  }
  int64_t hits = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (start[s] == start[s + 1]) continue;
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (std::size_t j = start[s]; j < start[s + 1]; ++j) {
      const std::size_t i = order[j];
      auto it = shard.index.find(IndexKey{&keys[i], hashes[i]});
      if (it == shard.index.end()) {
        out[i] = nullptr;
        continue;
      }
      ++hits;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      out[i] = it->second->entry;
    }
  }
  hits_.fetch_add(hits, std::memory_order_relaxed);
  misses_.fetch_add(static_cast<int64_t>(keys.size()) - hits,
                    std::memory_order_relaxed);
}

std::shared_ptr<const CacheEntry> ScoreCache::Get(const CacheKey& key) {
  std::shared_ptr<const CacheEntry> entry;
  GetMany({&key, 1}, {&entry, 1});
  return entry;
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
  // An entry over the shard's slice could only be held by evicting every
  // other entry, and then itself: refuse it before touching the shard.
  // A resident entry under `key` stays; every resident state is
  // bit-safe (DESIGN.md §6). The refusal counts as the entry's eviction.
  if (bytes > shard_budget_) {
    evictions_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // The stored key holds the interned sets; intern before the shard
  // lock, since a set's last release takes the intern lock under it.
  CacheKey stored = key;
  if (key.set_a != nullptr) stored.set_a = Intern(*key.set_a, key.digest_a);
  if (key.set_b != nullptr) stored.set_b = Intern(*key.set_b, key.digest_b);
  const IndexKey probe{&key, key.Hash()};
  Shard& shard = *shards_[ShardIndex(probe.hash)];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(probe);
  // First-touch bypass for small payloads (Options::
  // admission_bypass_bytes): a tiny payload is only admitted once its
  // key was offered before. Resident keys update as usual — rejecting
  // those would stale the entry, not save memory.
  if (bytes < options_.admission_bypass_bytes && it == shard.index.end()) {
    if (shard.seen.size() >= kMaxSeenPerShard) shard.seen.clear();
    if (shard.seen.insert(probe.hash).second) {
      admission_rejects_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  if (it != shard.index.end()) {
    if (keep_existing(*it->second->entry)) return;
    // Unindex before the node goes: the index key points into it.
    const auto node = it->second;
    shard.bytes -= node->bytes;
    shard.index.erase(it);
    shard.lru.erase(node);
  }
  shard.lru.push_front(
      Node{std::move(stored), probe.hash, std::move(entry), bytes});
  shard.index.emplace(IndexKey{&shard.lru.front().key, probe.hash},
                      shard.lru.begin());
  shard.bytes += bytes;
  insertions_.fetch_add(1, std::memory_order_relaxed);
  while (shard.bytes > shard_budget_ && !shard.lru.empty()) {
    Node& victim = shard.lru.back();
    shard.bytes -= victim.bytes;
    shard.index.erase(IndexKey{&victim.key, victim.hash});
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
  const IndexKey probe{&key, key.Hash()};
  Shard& shard = *shards_[ShardIndex(probe.hash)];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(probe);
  if (it == shard.index.end()) return;
  const auto node = it->second;
  shard.bytes -= node->bytes;
  shard.index.erase(it);
  shard.lru.erase(node);
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
