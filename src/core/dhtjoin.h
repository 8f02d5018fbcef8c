/// \file core/dhtjoin.h
/// \brief Umbrella header — the full public API of the dhtjoin library.
///
/// dhtjoin reproduces "Evaluating Multi-Way Joins over Discounted
/// Hitting Time" (Zhang, Cheng, Kao — ICDE 2014). Typical usage:
///
/// \code
///   #include "core/dhtjoin.h"
///   using namespace dhtjoin;
///
///   Graph g = ...;                            // GraphBuilder / datasets
///   DhtParams dht = DhtParams::Lambda(0.2);   // or ::Exponential()
///   int d = dht.StepsForEpsilon(1e-6);        // == 8
///
///   // Top-k 2-way join (best algorithm: B-IDJ-Y).
///   BIdjJoin two_way;
///   auto pairs = two_way.Run(g, dht, d, P, Q, /*k=*/50);
///
///   // Top-k n-way join (best algorithm: PJ-i).
///   QueryGraph query;
///   int a = query.AddNodeSet(P), b = query.AddNodeSet(Q);
///   query.AddBidirectionalEdge(a, b);
///   PartialJoin pji(PartialJoin::Options{.m = 50, .incremental = true});
///   MinAggregate min_f;
///   auto tuples = pji.Run(g, dht, d, query, min_f, /*k=*/50);
/// \endcode

#ifndef DHTJOIN_CORE_DHTJOIN_H_
#define DHTJOIN_CORE_DHTJOIN_H_

#include "core/ap_join.h"          // IWYU pragma: export
#include "core/nl_join.h"          // IWYU pragma: export
#include "core/nway_join.h"        // IWYU pragma: export
#include "core/partial_join.h"     // IWYU pragma: export
#include "core/query_graph.h"      // IWYU pragma: export
#include "dht/backward_batch.h"    // IWYU pragma: export
#include "dht/bounds.h"            // IWYU pragma: export
#include "dht/forward_batch.h"     // IWYU pragma: export
#include "dht/params.h"            // IWYU pragma: export
#include "graph/graph.h"           // IWYU pragma: export
#include "graph/graph_builder.h"   // IWYU pragma: export
#include "graph/graph_io.h"        // IWYU pragma: export
#include "graph/node_set.h"        // IWYU pragma: export
#include "join2/b_bj.h"            // IWYU pragma: export
#include "join2/b_idj.h"           // IWYU pragma: export
#include "join2/f_bj.h"            // IWYU pragma: export
#include "join2/f_idj.h"           // IWYU pragma: export
#include "join2/incremental.h"     // IWYU pragma: export
#include "join2/two_way_join.h"    // IWYU pragma: export
#include "rankjoin/aggregate.h"    // IWYU pragma: export
#include "rankjoin/pbrj.h"         // IWYU pragma: export
#include "util/status.h"           // IWYU pragma: export

#endif  // DHTJOIN_CORE_DHTJOIN_H_
