/// \file cluster/wire.h
/// \brief Payload encodings for the cluster protocol (DESIGN.md §12):
/// the message structs that ride inside cluster/frame.h frames, written
/// with the shared byte codec of util/bytes.h.
///
/// The encodings exist to preserve ONE invariant: a query answered by
/// a worker must be byte-identical to the same query answered by the
/// in-process DhtJoinService. Scores therefore cross the wire as raw
/// IEEE-754 bit patterns (never formatted/reparsed), node ids as their
/// raw external values, and the degradation epsilon as bits too. The
/// handshake carries content fingerprints of the graph and measure
/// parameters so a coordinator can refuse to route to a worker serving
/// different data — a wrong-graph answer would be well-formed yet
/// silently wrong, the one failure mode the tier must never have.
///
/// Decoding is fail-closed (util/bytes.h): any underflow or trailing
/// garbage yields kInvalidArgument, never a partially-filled message.

#ifndef DHTJOIN_CLUSTER_WIRE_H_
#define DHTJOIN_CLUSTER_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dht/params.h"
#include "join2/two_way_join.h"
#include "util/status.h"

namespace dhtjoin::cluster {

/// Content fingerprint of the measure configuration (parameter double
/// bits + first-hit flag + truncation depth d), paired with the graph
/// fingerprint in every handshake and request.
uint64_t ParamsFingerprint(const DhtParams& params, int d);

/// Worker identity, carried by kHelloAck and kPong frames.
struct HelloInfo {
  uint64_t graph_fp = 0;
  uint64_t params_fp = 0;
  int64_t d = 0;
  int64_t queries_served = 0;
  int64_t in_flight = 0;
};

/// A two-way join request as routed to a worker. Node ids are raw
/// EXTERNAL ids (the layout-stable space node sets are defined in).
struct TwoWayWireRequest {
  uint64_t graph_fp = 0;
  uint64_t params_fp = 0;
  std::vector<NodeId> p_ids;
  std::vector<NodeId> q_ids;
  uint64_t k = 0;
  /// Remaining deadline budget at send time; < 0 = no deadline. The
  /// coordinator re-derives this from the live ExecContext for every
  /// attempt, so retries and hedges carry the shrunken budget.
  int64_t deadline_micros = -1;
  /// ExecContext::effort_budget_blocks (0 = unlimited). Deterministic
  /// and clock-free, so a degraded answer cuts at the same level on
  /// every worker — the cross-process byte-identity anchor for
  /// degradation tests.
  int64_t effort_blocks = 0;
};

/// A worker's answer. `status_code` != kOk carries the typed error;
/// pairs are present only on kOk.
struct TwoWayWireReply {
  StatusCode status_code = StatusCode::kOk;
  std::string message;
  /// Admission retry-after hint (micros); 0 = none. Set alongside
  /// kResourceExhausted so the coordinator's backoff honors the
  /// worker's own load estimate.
  int64_t retry_after_micros = 0;
  /// Degradation record (join2/two_way_join.h PartialInfo).
  bool degraded = false;
  int64_t level_reached = 0;
  double eps_bound = 0.0;
  std::vector<ScoredPair> pairs;
  /// Worker-side execution counters surfaced to cluster stats.
  int64_t walk_steps = 0;
  int64_t warm_targets = 0;
  int64_t cold_targets = 0;
};

std::vector<uint8_t> EncodeHelloInfo(const HelloInfo& info);
Result<HelloInfo> DecodeHelloInfo(std::span<const uint8_t> payload);

std::vector<uint8_t> EncodeTwoWayRequest(const TwoWayWireRequest& req);
Result<TwoWayWireRequest> DecodeTwoWayRequest(
    std::span<const uint8_t> payload);

std::vector<uint8_t> EncodeTwoWayReply(const TwoWayWireReply& reply);
Result<TwoWayWireReply> DecodeTwoWayReply(std::span<const uint8_t> payload);

/// Rebuilds a typed Status from a wire (code, message) pair; kOk
/// ignores the message.
Status MakeStatus(StatusCode code, std::string message);

}  // namespace dhtjoin::cluster

#endif  // DHTJOIN_CLUSTER_WIRE_H_
