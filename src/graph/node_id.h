/// \file graph/node_id.h
/// \brief Strongly-typed node identifiers for the two id spaces.
///
/// The repo has exactly two node-id spaces (DESIGN.md §7, §10):
///  * EXTERNAL ids — construction-time ids. What datasets, node sets,
///    query specs, TopK results, CLI arguments, and serving cache keys
///    mean by "a node". Stable across physical reorderings.
///  * INTERNAL ids — physical CSR positions after an optional
///    cache-conscious reordering (graph/reorder.h). What the engines'
///    mass vectors and the Graph CSR accessors index by.
///
/// Since PR 4 made the layout a free variable, both spaces were the
/// same `int32_t`, so the compiler could not catch an external id
/// handed to an internal-space API (or vice versa) — a bug class that
/// silently reads the wrong node's edges on any reordered graph.
/// `ExtNodeId` / `IntNodeId` below make that mixing a COMPILE ERROR:
///
///  * construction from a raw integer is explicit;
///  * there is no implicit conversion back to an integer, and no
///    conversion of any kind between the two spaces;
///  * comparison operators exist only within one space;
///  * the only sanctioned space crossing is `Graph::ToInternal` /
///    `Graph::ToExternal` (and the bulk `Graph::MapToInternal`).
///
/// Both wrappers are zero-cost: same size, alignment, and triviality
/// as the raw `NodeId` (static_asserts below), so spans of them can be
/// reinterpreted over contiguous raw-id storage (`RawIds`, `AsExtIds`,
/// `AsIntIds`) without copying — hot interiors keep raw `NodeId`
/// arrays, the typed views exist at the API boundary only.
///
/// Layering note: code BELOW the remap boundary (the batch-core walk
/// kernels, SweepPlan, ReachIndex) deliberately stays on
/// raw `NodeId` — everything there is internal-space by construction
/// and indexes vectors on every line. The strong types guard the
/// boundaries where the two spaces meet, not the single-space inner
/// loops.

#ifndef DHTJOIN_GRAPH_NODE_ID_H_
#define DHTJOIN_GRAPH_NODE_ID_H_

#include <compare>
#include <cstdint>
#include <functional>
#include <span>
#include <type_traits>
#include <vector>

namespace dhtjoin {

/// Dense raw node identifier in [0, Graph::num_nodes()). The storage
/// type of both id spaces; by itself it names no space.
using NodeId = int32_t;

/// Invalid/absent node marker.
inline constexpr NodeId kInvalidNode = -1;

namespace node_id_internal {
struct ExtTag {};
struct IntTag {};
}  // namespace node_id_internal

/// Zero-cost strongly-typed node id; see file comment. `Tag` selects
/// the id space, and nothing converts between spaces implicitly or
/// explicitly — only Graph's remap accessors cross.
template <class Tag>
class StrongNodeId {
 public:
  /// Default-constructs the invalid id.
  constexpr StrongNodeId() = default;

  /// Explicit wrap of a raw id. This is the sanctioned ingestion point
  /// for ids entering the typed world (parsers, generators, tests);
  /// wrapping a value that belongs to the OTHER space is still a logic
  /// bug the types cannot catch — wrap at the point of origin, where
  /// the space is unambiguous.
  // dhtlint: allow(raw-id-param): the sanctioned explicit wrap itself
  constexpr explicit StrongNodeId(NodeId raw) : v_(raw) {}

  /// Raw value, for indexing storage owned by this id's space.
  constexpr NodeId value() const { return v_; }

  constexpr bool valid() const { return v_ >= 0; }

  /// Total order within the space (raw-id order).
  friend constexpr auto operator<=>(StrongNodeId, StrongNodeId) = default;

 private:
  NodeId v_ = kInvalidNode;
};

/// External (construction-time, layout-stable) node id.
using ExtNodeId = StrongNodeId<node_id_internal::ExtTag>;
/// Internal (physical CSR layout) node id.
using IntNodeId = StrongNodeId<node_id_internal::IntTag>;

inline constexpr ExtNodeId kInvalidExtNode{};
inline constexpr IntNodeId kInvalidIntNode{};

// Zero-cost layout guarantees that make the span reinterpretation
// below well-defined in practice (same representation as NodeId).
static_assert(sizeof(ExtNodeId) == sizeof(NodeId));
static_assert(alignof(ExtNodeId) == alignof(NodeId));
static_assert(std::is_trivially_copyable_v<ExtNodeId>);
static_assert(std::is_standard_layout_v<ExtNodeId>);
static_assert(sizeof(IntNodeId) == sizeof(NodeId));
static_assert(std::is_trivially_copyable_v<IntNodeId>);

// The safety contract: no implicit construction, no conversion to
// int, no cross-space conversion in either direction.
static_assert(!std::is_convertible_v<NodeId, ExtNodeId>);
static_assert(!std::is_convertible_v<NodeId, IntNodeId>);
static_assert(!std::is_convertible_v<ExtNodeId, NodeId>);
static_assert(!std::is_convertible_v<IntNodeId, NodeId>);
static_assert(!std::is_convertible_v<ExtNodeId, IntNodeId>);
static_assert(!std::is_convertible_v<IntNodeId, ExtNodeId>);
static_assert(!std::is_constructible_v<ExtNodeId, IntNodeId>);
static_assert(!std::is_constructible_v<IntNodeId, ExtNodeId>);

/// Reinterpret a typed id span as its raw storage (zero copy). For
/// handing a typed boundary argument to raw-id interior code.
template <class Tag>
inline std::span<const NodeId> RawIds(std::span<const StrongNodeId<Tag>> ids) {
  return {reinterpret_cast<const NodeId*>(ids.data()), ids.size()};
}
template <class Tag>
inline std::span<const NodeId> RawIds(
    const std::vector<StrongNodeId<Tag>>& ids) {
  return RawIds(std::span<const StrongNodeId<Tag>>(ids));
}

/// Reinterpret raw contiguous ids as EXTERNAL-typed (zero copy). Only
/// for storage that is documented to hold external ids.
inline std::span<const ExtNodeId> AsExtIds(std::span<const NodeId> raw) {
  return {reinterpret_cast<const ExtNodeId*>(raw.data()), raw.size()};
}

/// Reinterpret raw contiguous ids as INTERNAL-typed (zero copy). Only
/// for storage that is documented to hold internal ids.
inline std::span<const IntNodeId> AsIntIds(std::span<const NodeId> raw) {
  return {reinterpret_cast<const IntNodeId*>(raw.data()), raw.size()};
}

/// Copy-wrap a raw external-id vector (for call sites that need owned
/// typed storage, e.g. NodeSet ingestion).
inline std::vector<ExtNodeId> WrapExtIds(std::span<const NodeId> raw) {
  std::vector<ExtNodeId> out;
  out.reserve(raw.size());
  for (NodeId u : raw) out.push_back(ExtNodeId(u));
  return out;
}

}  // namespace dhtjoin

template <>
struct std::hash<dhtjoin::ExtNodeId> {
  std::size_t operator()(dhtjoin::ExtNodeId u) const noexcept {
    return std::hash<dhtjoin::NodeId>{}(u.value());
  }
};
template <>
struct std::hash<dhtjoin::IntNodeId> {
  std::size_t operator()(dhtjoin::IntNodeId u) const noexcept {
    return std::hash<dhtjoin::NodeId>{}(u.value());
  }
};

#endif  // DHTJOIN_GRAPH_NODE_ID_H_
