#include "cluster/frame.h"

#include <cstring>
#include <string>

#include "util/bytes.h"

namespace dhtjoin::cluster {

namespace {

void PutU16(uint8_t* out, uint16_t v) {
  out[0] = static_cast<uint8_t>(v & 0xffu);
  out[1] = static_cast<uint8_t>((v >> 8) & 0xffu);
}

void PutU32(uint8_t* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out[i] = static_cast<uint8_t>((v >> (8 * i)) & 0xffu);
  }
}

void PutU64(uint8_t* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<uint8_t>((v >> (8 * i)) & 0xffu);
  }
}

uint16_t GetU16(const uint8_t* in) {
  return static_cast<uint16_t>(static_cast<uint16_t>(in[0]) |
                               static_cast<uint16_t>(in[1]) << 8);
}

uint32_t GetU32(const uint8_t* in) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(in[i]) << (8 * i);
  }
  return v;
}

uint64_t GetU64(const uint8_t* in) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(in[i]) << (8 * i);
  }
  return v;
}

}  // namespace

void EncodeFrameHeader(const FrameHeader& header, uint8_t* out) {
  PutU32(out + 0, header.magic);
  PutU16(out + 4, header.version);
  PutU16(out + 6, header.type);
  PutU64(out + 8, header.request_id);
  PutU32(out + 16, header.payload_len);
  PutU64(out + 20, header.checksum);
}

Result<FrameHeader> DecodeFrameHeader(std::span<const uint8_t> in) {
  if (in.size() < kFrameHeaderBytes) {
    return Status::InvalidArgument("frame header truncated: " +
                                   std::to_string(in.size()) + " bytes");
  }
  FrameHeader h;
  h.magic = GetU32(in.data() + 0);
  h.version = GetU16(in.data() + 4);
  h.type = GetU16(in.data() + 6);
  h.request_id = GetU64(in.data() + 8);
  h.payload_len = GetU32(in.data() + 16);
  h.checksum = GetU64(in.data() + 20);
  if (h.magic != kFrameMagic) {
    return Status::InvalidArgument("bad frame magic");
  }
  if (h.version != kProtocolVersion) {
    return Status::InvalidArgument(
        "protocol version mismatch: got " + std::to_string(h.version) +
        ", want " + std::to_string(kProtocolVersion));
  }
  if (h.payload_len > kMaxPayloadBytes) {
    return Status::InvalidArgument("frame payload length over cap: " +
                                   std::to_string(h.payload_len));
  }
  return h;
}

Status VerifyFramePayload(const FrameHeader& header,
                          std::span<const uint8_t> payload) {
  if (payload.size() != header.payload_len) {
    return Status::IOError("frame payload truncated: got " +
                           std::to_string(payload.size()) + " of " +
                           std::to_string(header.payload_len) + " bytes");
  }
  if (ByteChecksum(payload) != header.checksum) {
    return Status::IOError("frame checksum mismatch");
  }
  return Status::OK();
}

std::vector<uint8_t> EncodeFrame(FrameType type, uint64_t request_id,
                                 std::span<const uint8_t> payload) {
  FrameHeader h;
  h.type = static_cast<uint16_t>(type);
  h.request_id = request_id;
  h.payload_len = static_cast<uint32_t>(payload.size());
  h.checksum = ByteChecksum(payload);
  std::vector<uint8_t> frame(kFrameHeaderBytes + payload.size());
  EncodeFrameHeader(h, frame.data());
  if (!payload.empty()) {
    std::memcpy(frame.data() + kFrameHeaderBytes, payload.data(),
                payload.size());
  }
  return frame;
}

}  // namespace dhtjoin::cluster
