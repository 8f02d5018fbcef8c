/// \file util/bytes.h
/// \brief The byte codec every encoded format shares: a bounds-checked
/// little-endian writer/reader pair and a 64-bit checksum.
///
/// The cluster wire protocol (cluster/wire.h, cluster/frame.h) and the
/// warm-state snapshots (persist/snapshot.h, serve/warm_state.h) both
/// encode with these, so wire and disk corruption are caught by one
/// verified primitive. Doubles are written as raw IEEE-754 bits, never
/// formatted and reparsed, which keeps decoded scores byte-identical.
///
/// Decoding is fail-closed: every read is bounds-checked, and any
/// underflow or trailing garbage yields kInvalidArgument, never a
/// partially-filled message.

#ifndef DHTJOIN_UTIL_BYTES_H_
#define DHTJOIN_UTIL_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/status.h"

namespace dhtjoin {

/// Append-only little-endian encoder.
class ByteWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(v); }
  void U16(uint16_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  /// Raw IEEE-754 bits — the byte-identity-preserving double encoding.
  void F64Bits(double v);
  void Str(const std::string& s);

  std::span<const uint8_t> bytes() const { return buf_; }
  std::vector<uint8_t> Take() { return std::move(buf_); }

 private:
  std::vector<uint8_t> buf_;
};

/// Bounds-checked decoder: reads past the end set a sticky failure
/// flag and return zero values; callers check status() once at the end
/// (plus Finish() to reject trailing bytes).
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> data) : data_(data) {}

  uint8_t U8();
  uint16_t U16();
  uint32_t U32();
  uint64_t U64();
  int64_t I64() { return static_cast<int64_t>(U64()); }
  double F64Bits();
  std::string Str();

  bool ok() const { return ok_; }
  std::size_t remaining() const { return data_.size() - off_; }

  /// kOk if every read so far was in bounds.
  Status status() const;
  /// status(), additionally requiring the buffer fully consumed.
  Status Finish() const;

 private:
  bool Take(std::size_t n, const uint8_t** out);

  std::span<const uint8_t> data_;
  std::size_t off_ = 0;
  bool ok_ = true;
};

/// 64-bit checksum over a byte string (SplitMix64-chained over 8-byte
/// words, length-mixed). Not cryptographic — it exists to catch the
/// truncation/bit-flip faults the chaos harness injects, real
/// half-dead peers produce, and torn or rotted files hold.
uint64_t ByteChecksum(std::span<const uint8_t> bytes);

}  // namespace dhtjoin

#endif  // DHTJOIN_UTIL_BYTES_H_
