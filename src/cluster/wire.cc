#include "cluster/wire.h"

#include <cstring>

#include "util/bytes.h"

namespace dhtjoin::cluster {

// -------------------------------------------------------------- messages

namespace {

/// Upper bound sanity test for a decoded element count: each element
/// needs at least `elem_bytes` of remaining payload.
bool CountPlausible(const ByteReader& r, uint64_t count,
                    std::size_t elem_bytes) {
  return count <= r.remaining() / elem_bytes;
}

void WriteIdVector(ByteWriter& w, const std::vector<NodeId>& ids) {
  w.U32(static_cast<uint32_t>(ids.size()));
  for (NodeId id : ids) {
    w.U32(static_cast<uint32_t>(id));
  }
}

bool ReadIdVector(ByteReader& r, std::vector<NodeId>* out) {
  uint32_t n = r.U32();
  if (!r.ok() || !CountPlausible(r, n, 4)) return false;
  out->clear();
  out->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    out->push_back(static_cast<NodeId>(r.U32()));
  }
  return r.ok();
}

bool ValidStatusCode(uint16_t raw) {
  return raw <= static_cast<uint16_t>(StatusCode::kResourceExhausted);
}

}  // namespace

std::vector<uint8_t> EncodeHelloInfo(const HelloInfo& info) {
  ByteWriter w;
  w.U64(info.graph_fp);
  w.U64(info.params_fp);
  w.I64(info.d);
  w.I64(info.queries_served);
  w.I64(info.in_flight);
  return w.Take();
}

Result<HelloInfo> DecodeHelloInfo(std::span<const uint8_t> payload) {
  ByteReader r(payload);
  HelloInfo info;
  info.graph_fp = r.U64();
  info.params_fp = r.U64();
  info.d = r.I64();
  info.queries_served = r.I64();
  info.in_flight = r.I64();
  DHTJOIN_RETURN_NOT_OK(r.Finish());
  return info;
}

std::vector<uint8_t> EncodeTwoWayRequest(const TwoWayWireRequest& req) {
  ByteWriter w;
  w.U64(req.graph_fp);
  w.U64(req.params_fp);
  WriteIdVector(w, req.p_ids);
  WriteIdVector(w, req.q_ids);
  w.U64(req.k);
  w.I64(req.deadline_micros);
  w.I64(req.effort_blocks);
  return w.Take();
}

Result<TwoWayWireRequest> DecodeTwoWayRequest(
    std::span<const uint8_t> payload) {
  ByteReader r(payload);
  TwoWayWireRequest req;
  req.graph_fp = r.U64();
  req.params_fp = r.U64();
  if (!ReadIdVector(r, &req.p_ids) || !ReadIdVector(r, &req.q_ids)) {
    return Status::InvalidArgument("two-way request: bad id vector");
  }
  req.k = r.U64();
  req.deadline_micros = r.I64();
  req.effort_blocks = r.I64();
  DHTJOIN_RETURN_NOT_OK(r.Finish());
  return req;
}

std::vector<uint8_t> EncodeTwoWayReply(const TwoWayWireReply& reply) {
  ByteWriter w;
  w.U16(static_cast<uint16_t>(reply.status_code));
  w.Str(reply.message);
  w.I64(reply.retry_after_micros);
  w.U8(reply.degraded ? 1 : 0);
  w.I64(reply.level_reached);
  w.F64Bits(reply.eps_bound);
  w.U32(static_cast<uint32_t>(reply.pairs.size()));
  for (const ScoredPair& pr : reply.pairs) {
    w.U32(static_cast<uint32_t>(pr.p));
    w.U32(static_cast<uint32_t>(pr.q));
    w.F64Bits(pr.score);
  }
  w.I64(reply.walk_steps);
  w.I64(reply.warm_targets);
  w.I64(reply.cold_targets);
  return w.Take();
}

Result<TwoWayWireReply> DecodeTwoWayReply(std::span<const uint8_t> payload) {
  ByteReader r(payload);
  TwoWayWireReply reply;
  uint16_t raw_code = r.U16();
  if (r.ok() && !ValidStatusCode(raw_code)) {
    return Status::InvalidArgument("two-way reply: unknown status code " +
                                   std::to_string(raw_code));
  }
  reply.status_code = static_cast<StatusCode>(raw_code);
  reply.message = r.Str();
  reply.retry_after_micros = r.I64();
  reply.degraded = r.U8() != 0;
  reply.level_reached = r.I64();
  reply.eps_bound = r.F64Bits();
  uint32_t n = r.U32();
  if (!r.ok() || !CountPlausible(r, n, 16)) {
    return Status::InvalidArgument("two-way reply: bad pair count");
  }
  reply.pairs.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    ScoredPair pr;
    pr.p = static_cast<NodeId>(r.U32());
    pr.q = static_cast<NodeId>(r.U32());
    pr.score = r.F64Bits();
    reply.pairs.push_back(pr);
  }
  reply.walk_steps = r.I64();
  reply.warm_targets = r.I64();
  reply.cold_targets = r.I64();
  DHTJOIN_RETURN_NOT_OK(r.Finish());
  return reply;
}

Status MakeStatus(StatusCode code, std::string message) {
  switch (code) {
    case StatusCode::kOk:
      return Status::OK();
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(std::move(message));
    case StatusCode::kNotFound:
      return Status::NotFound(std::move(message));
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(std::move(message));
    case StatusCode::kIOError:
      return Status::IOError(std::move(message));
    case StatusCode::kAlreadyExists:
      return Status::AlreadyExists(std::move(message));
    case StatusCode::kUnimplemented:
      return Status::Unimplemented(std::move(message));
    case StatusCode::kInternal:
      return Status::Internal(std::move(message));
    case StatusCode::kDeadlineExceeded:
      return Status::DeadlineExceeded(std::move(message));
    case StatusCode::kCancelled:
      return Status::Cancelled(std::move(message));
    case StatusCode::kResourceExhausted:
      return Status::ResourceExhausted(std::move(message));
  }
  return Status::Internal("unknown status code");
}

}  // namespace dhtjoin::cluster
