#include "serve/warm_state.h"

#include <string>
#include <utility>

#include "util/bytes.h"

namespace dhtjoin::serve {

namespace {

// Stable on-disk section kinds (decoupled from the enum's numeric
// values so reordering CachePayload can never silently re-type disk
// records).
constexpr uint32_t kSectionBackwardSnapshot = 1;
constexpr uint32_t kSectionBatchState = 2;
constexpr uint32_t kSectionEdgeTable = 3;
constexpr uint32_t kSectionYBound = 4;

void WriteNodeList(ByteWriter& w,
                   const std::shared_ptr<const std::vector<ExtNodeId>>& set) {
  if (set == nullptr) {
    w.U8(0);
    return;
  }
  w.U8(1);
  w.U64(set->size());
  for (ExtNodeId u : *set) w.I64(u.value());
}

void WriteKeyCommon(ByteWriter& w, const CacheKey& key) {
  w.I64(key.d);
  w.I64(key.seed.value());
  WriteNodeList(w, key.set_a);
  WriteNodeList(w, key.set_b);
}

void WriteMass(ByteWriter& w,
               const std::vector<std::pair<NodeId, double>>& mass) {
  w.U64(mass.size());
  for (const auto& [node, value] : mass) {
    w.I64(node);
    w.F64Bits(value);
  }
}

void WriteDoubles(ByteWriter& w, std::span<const double> values) {
  w.U64(values.size());
  for (double v : values) w.F64Bits(v);
}

/// Bounds a declared element count by what the remaining bytes could
/// possibly encode, so a corrupted count can never drive a giant
/// allocation (the ByteReader would catch the underflow anyway, but
/// only after the reserve).
bool PlausibleCount(const ByteReader& r, uint64_t count,
                    std::size_t min_elem_bytes) {
  return count <= r.remaining() / min_elem_bytes;
}

Status ReadNodeList(ByteReader& r,
                    std::shared_ptr<const std::vector<ExtNodeId>>* out,
                    uint64_t* digest) {
  *out = nullptr;
  *digest = 0;
  if (r.U8() == 0) return r.status();
  const uint64_t count = r.U64();
  if (!r.ok() || !PlausibleCount(r, count, sizeof(int64_t))) {
    return Status::InvalidArgument("warm record corrupt: node list count");
  }
  auto nodes = std::make_shared<std::vector<ExtNodeId>>();
  nodes->reserve(static_cast<std::size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    nodes->push_back(ExtNodeId(static_cast<NodeId>(r.I64())));
  }
  DHTJOIN_RETURN_NOT_OK(r.status());
  *digest = DigestNodes(*nodes);
  *out = std::move(nodes);
  return Status::OK();
}

/// Reads a sparse (INTERNAL id, value) list. The engines index n-sized
/// vectors with these ids unchecked (BackwardWalker::Restore,
/// batch_core::LoadLaneMass; Propagator::RestoreState only DCHECKs), so
/// an id outside [0, num_nodes) is refused here.
Status ReadMass(ByteReader& r, NodeId num_nodes,
                std::vector<std::pair<NodeId, double>>* out) {
  const uint64_t count = r.U64();
  if (!r.ok() ||
      !PlausibleCount(r, count, sizeof(int64_t) + sizeof(double))) {
    return Status::InvalidArgument("warm record corrupt: mass count");
  }
  out->clear();
  out->reserve(static_cast<std::size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    const int64_t node = r.I64();
    const double value = r.F64Bits();
    if (node < 0 || node >= num_nodes) {
      return Status::InvalidArgument("warm record corrupt: node id " +
                                     std::to_string(node) + " outside [0, " +
                                     std::to_string(num_nodes) + ")");
    }
    out->emplace_back(static_cast<NodeId>(node), value);
  }
  return r.status();
}

/// Score deltas are saved strictly ascending by id and nonzero
/// (BackwardWalkerState::score_delta); PJ-i's warm read searches them.
Status CheckScoreDeltas(const std::vector<std::pair<NodeId, double>>& deltas) {
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    if (deltas[i].second == 0.0 ||
        (i > 0 && deltas[i].first <= deltas[i - 1].first)) {
      return Status::InvalidArgument(
          "warm record corrupt: score deltas not strictly ascending and "
          "nonzero");
    }
  }
  return Status::OK();
}

/// A walk state's level must lie in [1, d] for the loading service's
/// d: the engines resume a state from its level (a level <= 0 would
/// walk a negative number of steps) and never walk past d.
Status CheckWalkLevel(int64_t level, int d) {
  if (level < 1 || level > d) {
    return Status::InvalidArgument(
        "warm record corrupt: walk level " + std::to_string(level) +
        " outside [1, " + std::to_string(d) + "]");
  }
  return Status::OK();
}

Status ReadDoubles(ByteReader& r, std::vector<double>* out) {
  const uint64_t count = r.U64();
  if (!r.ok() || !PlausibleCount(r, count, sizeof(double))) {
    return Status::InvalidArgument("warm record corrupt: double count");
  }
  out->clear();
  out->reserve(static_cast<std::size_t>(count));
  for (uint64_t i = 0; i < count; ++i) out->push_back(r.F64Bits());
  return r.status();
}

}  // namespace

uint32_t SectionKindFor(CachePayload kind) {
  switch (kind) {
    case CachePayload::kBackwardSnapshot: return kSectionBackwardSnapshot;
    case CachePayload::kBatchState: return kSectionBatchState;
    case CachePayload::kEdgeTable: return kSectionEdgeTable;
    case CachePayload::kYBound: return kSectionYBound;
  }
  return 0;
}

std::vector<uint8_t> EncodeCacheRecord(const CacheKey& key,
                                       const CacheEntry& entry) {
  ByteWriter w;
  WriteKeyCommon(w, key);
  switch (key.kind) {
    case CachePayload::kBackwardSnapshot: {
      const auto* snap = dynamic_cast<const CachedBackwardSnapshot*>(&entry);
      if (snap == nullptr) return {};
      w.I64(snap->state.target.value());
      w.I64(snap->state.level);
      w.F64Bits(snap->state.lambda_pow);
      WriteMass(w, snap->state.engine.mass);
      WriteMass(w, snap->state.score_delta);
      break;
    }
    case CachePayload::kBatchState: {
      const auto* batch = dynamic_cast<const CachedBatchState*>(&entry);
      if (batch == nullptr) return {};
      w.I64(batch->snap.level);
      w.F64Bits(batch->snap.lambda_pow);
      WriteMass(w, batch->snap.mass);
      WriteDoubles(w, batch->snap.row);
      break;
    }
    case CachePayload::kEdgeTable: {
      const auto* table = dynamic_cast<const CachedTable*>(&entry);
      if (table == nullptr || table->table == nullptr) return {};
      WriteDoubles(w, *table->table);
      break;
    }
    case CachePayload::kYBound: {
      const auto* bound = dynamic_cast<const CachedYBound*>(&entry);
      if (bound == nullptr || !bound->table.complete()) return {};
      w.I64(bound->table.d());
      w.I64(bound->table.edges_relaxed());
      w.U64(bound->num_targets_hint);
      const auto& rows = bound->table.suffix_rows();
      w.U64(rows.size());
      for (const auto& row : rows) {
        for (double v : row) w.F64Bits(v);
      }
      break;
    }
  }
  return w.Take();
}

Result<DecodedCacheRecord> DecodeCacheRecord(uint32_t section_kind,
                                             std::span<const uint8_t> payload,
                                             uint64_t graph_fp,
                                             const DhtParams& params,
                                             NodeId num_nodes, int d) {
  ByteReader r(payload);
  DecodedCacheRecord record;
  record.key.graph_fp = graph_fp;
  record.key.params = params;
  record.key.d = static_cast<int>(r.I64());
  record.key.seed = ExtNodeId(static_cast<NodeId>(r.I64()));
  DHTJOIN_RETURN_NOT_OK(
      ReadNodeList(r, &record.key.set_a, &record.key.digest_a));
  DHTJOIN_RETURN_NOT_OK(
      ReadNodeList(r, &record.key.set_b, &record.key.digest_b));

  switch (section_kind) {
    case kSectionBackwardSnapshot: {
      record.key.kind = CachePayload::kBackwardSnapshot;
      BackwardWalkerState state;
      state.target = ExtNodeId(static_cast<NodeId>(r.I64()));
      const int64_t level = r.I64();
      DHTJOIN_RETURN_NOT_OK(CheckWalkLevel(level, d));
      state.level = static_cast<int>(level);
      state.lambda_pow = r.F64Bits();
      DHTJOIN_RETURN_NOT_OK(ReadMass(r, num_nodes, &state.engine.mass));
      DHTJOIN_RETURN_NOT_OK(ReadMass(r, num_nodes, &state.score_delta));
      DHTJOIN_RETURN_NOT_OK(CheckScoreDeltas(state.score_delta));
      record.entry =
          std::make_shared<CachedBackwardSnapshot>(std::move(state));
      break;
    }
    case kSectionBatchState: {
      record.key.kind = CachePayload::kBatchState;
      BackwardBatchSnapshot snap;
      const int64_t level = r.I64();
      DHTJOIN_RETURN_NOT_OK(CheckWalkLevel(level, d));
      snap.level = static_cast<int>(level);
      snap.lambda_pow = r.F64Bits();
      DHTJOIN_RETURN_NOT_OK(ReadMass(r, num_nodes, &snap.mass));
      DHTJOIN_RETURN_NOT_OK(ReadDoubles(r, &snap.row));
      record.entry = std::make_shared<CachedBatchState>(std::move(snap));
      break;
    }
    case kSectionEdgeTable: {
      record.key.kind = CachePayload::kEdgeTable;
      auto table = std::make_shared<std::vector<double>>();
      DHTJOIN_RETURN_NOT_OK(ReadDoubles(r, table.get()));
      record.entry = std::make_shared<CachedTable>(std::move(table));
      break;
    }
    case kSectionYBound: {
      record.key.kind = CachePayload::kYBound;
      const int table_d = static_cast<int>(r.I64());
      const int64_t edges_relaxed = r.I64();
      const uint64_t hint = r.U64();
      const uint64_t num_rows = r.U64();
      if (!r.ok() || table_d < 0 || table_d > (1 << 20) ||
          !PlausibleCount(r, num_rows, sizeof(double))) {
        return Status::InvalidArgument("warm record corrupt: ybound shape");
      }
      const std::size_t row_len = static_cast<std::size_t>(table_d) + 1;
      if (num_rows > r.remaining() / sizeof(double) / row_len + 1) {
        return Status::InvalidArgument("warm record corrupt: ybound rows");
      }
      // YBoundTable::Bound(l, qi) reads row qi < |Q| at l <= the key's d
      // unchecked: the table must have exactly the key's shape.
      if (record.key.set_b == nullptr ||
          num_rows != record.key.set_b->size() || table_d != record.key.d) {
        return Status::InvalidArgument(
            "warm record corrupt: ybound shape differs from its key");
      }
      std::vector<std::vector<double>> rows(
          static_cast<std::size_t>(num_rows));
      for (auto& row : rows) {
        row.reserve(row_len);
        for (std::size_t l = 0; l < row_len; ++l) row.push_back(r.F64Bits());
      }
      DHTJOIN_RETURN_NOT_OK(r.status());
      auto bound = std::make_shared<CachedYBound>(
          YBoundTable::FromSuffixRows(table_d, edges_relaxed,
                                      std::move(rows)));
      bound->num_targets_hint = static_cast<std::size_t>(hint);
      record.entry = std::move(bound);
      break;
    }
    default:
      return Status::InvalidArgument("warm record corrupt: unknown section "
                                     "kind " + std::to_string(section_kind));
  }
  DHTJOIN_RETURN_NOT_OK(r.Finish());
  return record;
}

}  // namespace dhtjoin::serve
