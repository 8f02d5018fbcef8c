/// \file serve/warm_state.h
/// \brief Serialization of ScoreCache records for the durability layer
/// (persist/snapshot.h): one snapshot section per cached payload.
///
/// Byte-identity discipline matches the wire (util/bytes.h): every
/// double crosses the disk as raw IEEE-754 bits via F64Bits, node ids
/// as raw values, so a warm-restored payload is bit-for-bit the one
/// that was checkpointed — and, by the engines' determinism, answers
/// resumed from it are byte-identical to cold execution (gated in
/// tests/persist_test.cc and bench_recovery).
///
/// A record's key context (graph fingerprint, DhtParams) is NOT stored
/// per record — the snapshot header carries the fingerprints once, and
/// the loading service stamps its own graph_fp/params into every
/// rebuilt key AFTER validating those fingerprints. A snapshot from a
/// different graph or measure therefore cannot smuggle records in.
///
/// Decoding is fail-closed: any underflow, trailing bytes, unknown or
/// retired section kind, or structurally impossible field — a node id
/// outside the graph, a walk level outside [1, d], a walk row or a
/// Y-bound table not shaped like its key — yields kInvalidArgument,
/// never a partially-filled record.

#ifndef DHTJOIN_SERVE_WARM_STATE_H_
#define DHTJOIN_SERVE_WARM_STATE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "serve/score_cache.h"

namespace dhtjoin::serve {

/// Snapshot section kind of a cached payload (stable on-disk values;
/// never reorder).
uint32_t SectionKindFor(CachePayload kind);

/// Encodes one (key, entry) pair as a snapshot section payload.
/// `entry` must match `key.kind` (all of serve/ pairs them
/// consistently); a mismatch returns an empty buffer.
std::vector<uint8_t> EncodeCacheRecord(const CacheKey& key,
                                       const CacheEntry& entry);

struct DecodedCacheRecord {
  CacheKey key;
  std::shared_ptr<const CacheEntry> entry;
};

/// Rebuilds a record from a section. `graph_fp`, `params`, `num_nodes`
/// and the truncation depth `d` come from the LOADING service (the
/// caller validated the snapshot header's fingerprints against them);
/// the record carries everything else. Beyond structure, the decoder
/// checks what the engine will index or walk: every node id of a mass
/// list lies in [0, num_nodes), a walk state's level lies in [1, d]
/// and its row has one cell per member of its key's P, and a Y-bound
/// table has one row per member of its key's Q and the key's d. A
/// decoded walk state's best_cell is computed from its row, P and seed.
/// An empty mass is legal at any level: below d it is a walk whose
/// mass died, at d a state saved row-only.
Result<DecodedCacheRecord> DecodeCacheRecord(uint32_t section_kind,
                                             std::span<const uint8_t> payload,
                                             uint64_t graph_fp,
                                             const DhtParams& params,
                                             NodeId num_nodes, int d);

}  // namespace dhtjoin::serve

#endif  // DHTJOIN_SERVE_WARM_STATE_H_
