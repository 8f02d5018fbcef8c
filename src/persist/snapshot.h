/// \file persist/snapshot.h
/// \brief Versioned, per-section-checksummed on-disk snapshots with a
/// crash-safe atomic writer — the durability substrate of the serving
/// tier (DESIGN.md §13).
///
/// A snapshot file is a fixed header (magic, format version, graph
/// fingerprint + layout epoch via GraphFingerprint, DhtParams bits via
/// ParamsFingerprint, section count, header checksum) followed by
/// length-prefixed sections, each carrying its own 64-bit checksum —
/// the same SplitMix64-chained ByteChecksum the wire frames use
/// (util/bytes.h), so disk corruption and wire corruption are caught
/// by one verified primitive.
///
/// The writer is crash-safe by construction: bytes go to a temp file
/// in the destination directory, are fsync'd, and reach `path` only
/// through rename(2) — POSIX-atomic — followed by a directory fsync.
/// A kill -9 at ANY byte offset of the write therefore leaves either
/// the previous snapshot (rename not reached) or the complete new one
/// (rename durable); the loader turns every other on-disk state —
/// truncation, bit flips, a stray partial temp file — into a typed
/// Status. There is no byte offset at which a crash yields a loadable
/// lie; that property is fuzzed at every section boundary in
/// tests/persist_test.cc and SIGKILL-hammered in bench_recovery.
///
/// CheckpointHook exposes the writer's internal phases so the chaos
/// harness (cluster/chaos.h) can kill a checkpointing worker at a
/// seeded phase, and tests can simulate a crash (return false =
/// abandon the write, as a kill at that byte offset would).

#ifndef DHTJOIN_PERSIST_SNAPSHOT_H_
#define DHTJOIN_PERSIST_SNAPSHOT_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "util/status.h"

namespace dhtjoin::persist {

/// "DHSP" read little-endian.
inline constexpr uint32_t kSnapshotMagic = 0x50534844u;

/// Bumped on any incompatible change to the header or section
/// encodings. A mismatch is a hard kInvalidArgument on load.
inline constexpr uint16_t kSnapshotVersion = 1;

/// Encoded header size: magic u32, version u16, reserved u16,
/// graph_fp u64, params_fp u64, section_count u64, header checksum u64.
inline constexpr std::size_t kSnapshotHeaderBytes = 40;

/// Per-section byte prefix: kind u32, reserved u32, length u64; the
/// payload is followed by a u64 checksum covering prefix AND payload.
inline constexpr std::size_t kSectionPrefixBytes = 16;

/// Upper bound on one section payload; a larger length field is
/// treated as corruption, not an allocation request.
inline constexpr uint64_t kMaxSectionBytes = uint64_t{1} << 30;

/// Upper bound on the section count for the same reason.
inline constexpr uint64_t kMaxSections = uint64_t{1} << 24;

/// One length-prefixed, checksummed section. `kind` is
/// caller-defined (the serving layer uses serve::CachePayload values).
struct SnapshotSection {
  uint32_t kind = 0;
  std::vector<uint8_t> payload;
};

/// A decoded snapshot: identity fingerprints + sections.
struct SnapshotFile {
  uint64_t graph_fp = 0;
  uint64_t params_fp = 0;
  std::vector<SnapshotSection> sections;
};

/// The atomic writer's observable phases, in execution order. A crash
/// before kAfterRename leaves the previous snapshot; at/after it, the
/// new one. There is no third outcome.
enum class CheckpointPhase : uint8_t {
  kAfterTempCreate = 0,  ///< temp file exists, empty
  kAfterTempWrite,       ///< all bytes written to the temp file
  kAfterFsync,           ///< temp file contents durable
  kBeforeRename,         ///< about to rename(temp, path)
  kAfterRename,          ///< snapshot visible under `path`
};
inline constexpr int kNumCheckpointPhases = 5;

const char* CheckpointPhaseName(CheckpointPhase phase);

/// Invoked by WriteFileAtomic at each phase. Returning false abandons
/// the write (temp file unlinked, Status{kCancelled}) — the unit-test
/// simulation of a kill at that byte offset. The chaos harness's hook
/// instead raises SIGKILL and never returns.
using CheckpointHook = std::function<bool(CheckpointPhase)>;

/// Serializes a snapshot (header + checksummed sections).
std::vector<uint8_t> EncodeSnapshot(const SnapshotFile& file);

/// Fail-closed decode: bad magic/version, a broken header or section
/// checksum, an out-of-bounds length, or trailing bytes all yield
/// kInvalidArgument — never a partially-filled snapshot.
Result<SnapshotFile> DecodeSnapshot(std::span<const uint8_t> bytes);

/// Crash-safely replaces `path` with `bytes`: temp file in the same
/// directory -> write -> fsync -> rename -> directory fsync. `hook`
/// (optional) observes each CheckpointPhase.
Status WriteFileAtomic(const std::string& path,
                       std::span<const uint8_t> bytes,
                       const CheckpointHook& hook = nullptr);

/// Reads a whole file. kNotFound when `path` does not exist (the
/// ordinary cold start), kIOError on any other failure.
Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path);

/// WriteFileAtomic of EncodeSnapshot(file).
Status WriteSnapshotFile(const std::string& path, const SnapshotFile& file,
                         const CheckpointHook& hook = nullptr);

/// ReadFileBytes + DecodeSnapshot: kNotFound for a missing file,
/// kInvalidArgument for a corrupt one, the snapshot otherwise.
Result<SnapshotFile> ReadSnapshotFile(const std::string& path);

}  // namespace dhtjoin::persist

#endif  // DHTJOIN_PERSIST_SNAPSHOT_H_
