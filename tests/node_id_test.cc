/// \file tests/node_id_test.cc
/// \brief The strong-id safety contract (graph/node_id.h, DESIGN.md
/// §10): a mis-spaced call — an external id handed to an internal-space
/// API or vice versa — must be a COMPILE error. The static_asserts
/// below are the negative-compile suite: each one proves a forbidden
/// call does not instantiate. Runtime tests cover the sanctioned
/// crossings (ToInternal/ToExternal) and the zero-copy raw bridges.

#include <gtest/gtest.h>

#include <unordered_set>
#include <vector>

#include "dht/backward_batch.h"
#include "dht/forward_batch.h"
#include "graph/graph.h"
#include "graph/node_id.h"
#include "graph/node_set.h"
#include "graph/reorder.h"
#include "testing/reference.h"

namespace dhtjoin {
namespace {

// ------------------------------------------------- the typing contract
// (compile-time; mirrors the static_asserts in node_id.h and extends
// them to the engine boundaries)

// No implicit wrap, no unwrap, no cross-space conversion.
static_assert(!std::is_convertible_v<NodeId, ExtNodeId>);
static_assert(!std::is_convertible_v<NodeId, IntNodeId>);
static_assert(!std::is_convertible_v<ExtNodeId, NodeId>);
static_assert(!std::is_convertible_v<IntNodeId, NodeId>);
static_assert(!std::is_constructible_v<ExtNodeId, IntNodeId>);
static_assert(!std::is_constructible_v<IntNodeId, ExtNodeId>);

// CSR accessors are INTERNAL-space: external ids must not compile.
template <class Id>
concept OutDegreeTakes = requires(const Graph& g, Id u) { g.OutDegree(u); };
template <class Id>
concept OutEdgesTakes = requires(const Graph& g, Id u) { g.OutEdges(u); };
template <class IdA, class IdB>
concept HasEdgeTakes =
    requires(const Graph& g, IdA u, IdB v) { g.HasEdge(u, v); };
static_assert(OutDegreeTakes<IntNodeId>);
static_assert(!OutDegreeTakes<ExtNodeId>);
static_assert(!OutDegreeTakes<NodeId>);
static_assert(OutEdgesTakes<IntNodeId>);
static_assert(!OutEdgesTakes<ExtNodeId>);
static_assert(HasEdgeTakes<IntNodeId, IntNodeId>);
static_assert(!HasEdgeTakes<ExtNodeId, ExtNodeId>);
static_assert(!HasEdgeTakes<IntNodeId, ExtNodeId>);  // no half-mixing

// The remap crossings accept exactly one direction each.
template <class Id>
concept ToInternalTakes = requires(const Graph& g, Id u) { g.ToInternal(u); };
template <class Id>
concept ToExternalTakes = requires(const Graph& g, Id u) { g.ToExternal(u); };
static_assert(ToInternalTakes<ExtNodeId>);
static_assert(!ToInternalTakes<IntNodeId>);
static_assert(!ToInternalTakes<NodeId>);
static_assert(ToExternalTakes<IntNodeId>);
static_assert(!ToExternalTakes<ExtNodeId>);

// Walk engine boundaries are EXTERNAL-space: Run takes external ids
// (the kernels below it stay on raw internal ids by design; see the
// layering note in node_id.h).
template <class Id>
concept BackwardRunTakes =
    requires(BackwardWalkerBatch& b, const DhtParams& p,
             const std::vector<Id>& ids) { b.Run(p, 4, ids, ids); };
static_assert(BackwardRunTakes<ExtNodeId>);
static_assert(!BackwardRunTakes<IntNodeId>);
static_assert(!BackwardRunTakes<NodeId>);

template <class Id>
concept ForwardRunTakes =
    requires(ForwardWalkerBatch& f, const DhtParams& p,
             const std::vector<Id>& ids) { f.Run(p, 4, ids, ids); };
static_assert(ForwardRunTakes<ExtNodeId>);
static_assert(!ForwardRunTakes<IntNodeId>);
static_assert(!ForwardRunTakes<NodeId>);

// NodeSet is EXTERNAL-space.
template <class Id>
concept NodeSetContainsTakes =
    requires(const NodeSet& s, Id u) { s.Contains(u); };
static_assert(NodeSetContainsTakes<ExtNodeId>);
static_assert(!NodeSetContainsTakes<IntNodeId>);

// ------------------------------------------------------ runtime checks

TEST(NodeIdTest, DefaultIsInvalid) {
  ExtNodeId e;
  IntNodeId i;
  EXPECT_FALSE(e.valid());
  EXPECT_FALSE(i.valid());
  EXPECT_EQ(e.value(), kInvalidNode);
  EXPECT_TRUE(ExtNodeId(0).valid());
  EXPECT_FALSE(ExtNodeId(-3).valid());
}

TEST(NodeIdTest, OrderAndEqualityWithinASpace) {
  EXPECT_EQ(ExtNodeId(4), ExtNodeId(4));
  EXPECT_NE(ExtNodeId(4), ExtNodeId(5));
  EXPECT_LT(ExtNodeId(4), ExtNodeId(5));
  EXPECT_LT(IntNodeId(0), IntNodeId(1));
}

TEST(NodeIdTest, IdentityLayoutRoundTrips) {
  Graph g = testing::PathGraph(4);  // never reordered: identity remap
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(g.ToInternal(ExtNodeId(u)).value(), u);
    EXPECT_EQ(g.ToExternal(IntNodeId(u)).value(), u);
  }
}

TEST(NodeIdTest, ReorderedLayoutRoundTripsAndPreservesEdges) {
  Graph g = testing::TwoCommunityGraph();
  auto rg = ReorderGraph(g, ReorderKind::kDegree);
  ASSERT_TRUE(rg.ok());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const ExtNodeId ext(u);
    const IntNodeId in = rg->ToInternal(ext);
    EXPECT_EQ(rg->ToExternal(in), ext) << "roundtrip broke at " << u;
  }
  // Edge (u, v) in external terms must survive the relabeling.
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const OutEdge& e : g.OutEdges(IntNodeId(u))) {
      // Never-reordered g: internal == external, so u/e.to are both.
      EXPECT_TRUE(rg->HasEdge(rg->ToInternal(ExtNodeId(u)),
                              rg->ToInternal(ExtNodeId(e.to))));
    }
  }
}

TEST(NodeIdTest, RawBridgesAreZeroCopyViews) {
  std::vector<ExtNodeId> typed = {ExtNodeId(3), ExtNodeId(1), ExtNodeId(2)};
  std::span<const NodeId> raw = RawIds(typed);
  ASSERT_EQ(raw.size(), 3u);
  EXPECT_EQ(raw[0], 3);
  EXPECT_EQ(static_cast<const void*>(raw.data()),
            static_cast<const void*>(typed.data()));

  std::vector<NodeId> storage = {7, 8};
  std::span<const ExtNodeId> ext_view = AsExtIds(storage);
  std::span<const IntNodeId> int_view = AsIntIds(storage);
  EXPECT_EQ(ext_view[1].value(), 8);
  EXPECT_EQ(int_view[0].value(), 7);
  EXPECT_EQ(static_cast<const void*>(ext_view.data()),
            static_cast<const void*>(storage.data()));
}

TEST(NodeIdTest, WrapExtIdsCopies) {
  std::vector<NodeId> raw = {5, 0, 5};
  std::vector<ExtNodeId> typed = WrapExtIds(raw);
  ASSERT_EQ(typed.size(), 3u);
  EXPECT_EQ(typed[0], ExtNodeId(5));
  EXPECT_EQ(typed[2].value(), 5);
}

TEST(NodeIdTest, HashSupportsUnorderedContainers) {
  std::unordered_set<ExtNodeId> set;
  set.insert(ExtNodeId(1));
  set.insert(ExtNodeId(1));
  set.insert(ExtNodeId(2));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.contains(ExtNodeId(2)));
  EXPECT_FALSE(set.contains(ExtNodeId(3)));
}

TEST(NodeIdTest, ContainsNodeAcceptsBothSpaces) {
  Graph g = testing::PathGraph(3);
  EXPECT_TRUE(g.ContainsNode(ExtNodeId(2)));
  EXPECT_TRUE(g.ContainsNode(IntNodeId(2)));
  EXPECT_FALSE(g.ContainsNode(ExtNodeId(3)));
  EXPECT_FALSE(g.ContainsNode(IntNodeId(-1)));
}

}  // namespace
}  // namespace dhtjoin
