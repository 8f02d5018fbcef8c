#include "util/bytes.h"

#include <bit>
#include <cstring>

#include "util/rng.h"

namespace dhtjoin {

// ------------------------------------------------------------ ByteWriter

void ByteWriter::U16(uint16_t v) {
  U8(static_cast<uint8_t>(v & 0xffu));
  U8(static_cast<uint8_t>((v >> 8) & 0xffu));
}

void ByteWriter::U32(uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    U8(static_cast<uint8_t>((v >> (8 * i)) & 0xffu));
  }
}

void ByteWriter::U64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    U8(static_cast<uint8_t>((v >> (8 * i)) & 0xffu));
  }
}

void ByteWriter::F64Bits(double v) { U64(std::bit_cast<uint64_t>(v)); }

void ByteWriter::Str(const std::string& s) {
  U32(static_cast<uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

// ------------------------------------------------------------ ByteReader

bool ByteReader::Take(std::size_t n, const uint8_t** out) {
  if (!ok_ || data_.size() - off_ < n) {
    ok_ = false;
    return false;
  }
  *out = data_.data() + off_;
  off_ += n;
  return true;
}

uint8_t ByteReader::U8() {
  const uint8_t* p = nullptr;
  if (!Take(1, &p)) return 0;
  return p[0];
}

uint16_t ByteReader::U16() {
  const uint8_t* p = nullptr;
  if (!Take(2, &p)) return 0;
  return static_cast<uint16_t>(static_cast<uint16_t>(p[0]) |
                               static_cast<uint16_t>(p[1]) << 8);
}

uint32_t ByteReader::U32() {
  const uint8_t* p = nullptr;
  if (!Take(4, &p)) return 0;
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

uint64_t ByteReader::U64() {
  const uint8_t* p = nullptr;
  if (!Take(8, &p)) return 0;
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

double ByteReader::F64Bits() { return std::bit_cast<double>(U64()); }

std::string ByteReader::Str() {
  uint32_t n = U32();
  if (!ok_ || data_.size() - off_ < n) {
    ok_ = false;
    return std::string();
  }
  std::string s(reinterpret_cast<const char*>(data_.data() + off_), n);
  off_ += n;
  return s;
}

Status ByteReader::status() const {
  if (!ok_) return Status::InvalidArgument("wire message truncated");
  return Status::OK();
}

Status ByteReader::Finish() const {
  DHTJOIN_RETURN_NOT_OK(status());
  if (off_ != data_.size()) {
    return Status::InvalidArgument("wire message has trailing bytes");
  }
  return Status::OK();
}

// -------------------------------------------------------------- checksum

uint64_t ByteChecksum(std::span<const uint8_t> bytes) {
  // SplitMix64 chain over 8-byte words, then the tail, then the length.
  // Chained (each word is folded into the state through the full mixer)
  // so reordered or shifted bytes change the sum, unlike a XOR fold.
  uint64_t acc = 0x9e3779b97f4a7c15ULL ^ bytes.size();
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    uint64_t word = 0;
    std::memcpy(&word, bytes.data() + i, 8);
    uint64_t s = acc ^ word;
    acc = SplitMix64(s);
  }
  if (i < bytes.size()) {
    uint64_t tail = 0;
    std::memcpy(&tail, bytes.data() + i, bytes.size() - i);
    uint64_t s = acc ^ tail;
    acc = SplitMix64(s);
  }
  uint64_t fin = acc;
  return SplitMix64(fin);
}

}  // namespace dhtjoin
