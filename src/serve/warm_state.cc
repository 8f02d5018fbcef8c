#include "serve/warm_state.h"

#include <string>
#include <utility>

#include "util/bytes.h"

namespace dhtjoin::serve {

namespace {

// Stable on-disk section kinds (decoupled from the enum's numeric
// values so reordering CachePayload can never silently re-type disk
// records). Kind 1 held scalar walk snapshots and is retired: the
// decoder refuses it like any unknown kind, so a checkpoint holding one
// loads cold.
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

/// One (I64 node, F64 bits) entry per mass entry, in saved order.
void WriteMass(ByteWriter& w, const batch_core::SparseMass& mass) {
  w.U64(mass.size());
  for (std::size_t i = 0; i < mass.size(); ++i) {
    w.I64(mass.nodes[i]);
    w.F64Bits(mass.values[i]);
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

/// Reads a sparse (INTERNAL id, value) list. The engine indexes n-sized
/// vectors with these ids unchecked (batch_core::LoadLaneMass), so an
/// id outside [0, num_nodes) is refused here.
Status ReadMass(ByteReader& r, NodeId num_nodes,
                batch_core::SparseMass* out) {
  const uint64_t count = r.U64();
  if (!r.ok() ||
      !PlausibleCount(r, count, sizeof(int64_t) + sizeof(double))) {
    return Status::InvalidArgument("warm record corrupt: mass count");
  }
  *out = batch_core::SparseMass{};
  out->nodes.reserve(static_cast<std::size_t>(count));
  out->values.reserve(static_cast<std::size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    const int64_t node = r.I64();
    const double value = r.F64Bits();
    if (node < 0 || node >= num_nodes) {
      return Status::InvalidArgument("warm record corrupt: node id " +
                                     std::to_string(node) + " outside [0, " +
                                     std::to_string(num_nodes) + ")");
    }
    out->nodes.push_back(static_cast<NodeId>(node));
    out->values.push_back(value);
  }
  return r.status();
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
    case CachePayload::kBatchState: return kSectionBatchState;
    case CachePayload::kEdgeTable: return kSectionEdgeTable;
    case CachePayload::kYBound: return kSectionYBound;
  }
  return 0;
}

std::vector<uint8_t> EncodeCacheRecord(const CacheKey& key,
                                       const CacheEntry& entry) {
  if (entry.kind() != key.kind) return {};
  ByteWriter w;
  WriteKeyCommon(w, key);
  switch (key.kind) {
    case CachePayload::kBatchState: {
      const BackwardBatchSnapshot& snap =
          *static_cast<const CachedBatchState&>(entry).snap;
      w.I64(snap.level);
      w.F64Bits(snap.lambda_pow);
      WriteMass(w, snap.mass);
      WriteDoubles(w, snap.row);
      break;
    }
    case CachePayload::kEdgeTable: {
      const auto& table = static_cast<const CachedTable&>(entry);
      if (table.table == nullptr) return {};
      WriteDoubles(w, *table.table);
      break;
    }
    case CachePayload::kYBound: {
      const auto& bound = static_cast<const CachedYBound&>(entry);
      if (!bound.table.complete()) return {};
      const auto& rows = bound.table.suffix_rows();
      w.I64(bound.table.d());
      w.I64(bound.table.edges_relaxed());
      // The slot of the retired target-count hint: the row count, which
      // the decoder requires it to equal.
      w.U64(rows.size());
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
    case kSectionBatchState: {
      record.key.kind = CachePayload::kBatchState;
      auto snap = std::make_shared<BackwardBatchSnapshot>();
      const int64_t level = r.I64();
      DHTJOIN_RETURN_NOT_OK(CheckWalkLevel(level, d));
      snap->level = static_cast<int>(level);
      snap->lambda_pow = r.F64Bits();
      DHTJOIN_RETURN_NOT_OK(ReadMass(r, num_nodes, &snap->mass));
      DHTJOIN_RETURN_NOT_OK(ReadDoubles(r, &snap->row));
      // The row covers the key's P, cell for cell; the joins read it
      // through its best cell other than the target (the key's seed).
      const NodeList& P = record.key.set_a;
      if (P == nullptr || snap->row.size() != P->size()) {
        return Status::InvalidArgument(
            "warm record corrupt: batch state row differs from its key's "
            "source set");
      }
      snap->best_cell =
          BestOtherCell(std::span<const double>(snap->row),
                        std::span<const ExtNodeId>(*P), record.key.seed);
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
      // The retired target-count hint: records hold the row count there.
      if (hint != num_rows) {
        return Status::InvalidArgument(
            "warm record corrupt: ybound target count " +
            std::to_string(hint) + " differs from its " +
            std::to_string(num_rows) + " rows");
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
      record.entry = std::make_shared<CachedYBound>(
          YBoundTable::FromSuffixRows(table_d, edges_relaxed,
                                      std::move(rows)));
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
