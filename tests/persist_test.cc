/// \file tests/persist_test.cc
/// \brief Durability substrate (persist/* + serve warm state): the
/// snapshot codec fails closed on EVERY truncation offset and bit
/// flip, the atomic writer leaves last-good-or-new at every crash
/// phase, and a warm-restored service answers byte-identically to a
/// cold one (DESIGN.md §13).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "cluster/chaos.h"
#include "cluster/wire.h"
#include "persist/metrics.h"
#include "persist/snapshot.h"
#include "serve/session.h"
#include "serve/warm_state.h"
#include "testing/reference.h"

namespace dhtjoin {
namespace {

using persist::CheckpointPhase;
using persist::DecodeSnapshot;
using persist::EncodeSnapshot;
using persist::ReadSnapshotFile;
using persist::SnapshotFile;
using persist::SnapshotSection;
using persist::WriteSnapshotFile;
using serve::DhtJoinService;
using testing::ExpectSamePairs;
using testing::RandomGraph;
using testing::Range;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "persist_test_" + name;
}

void WriteRawFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

SnapshotFile SampleSnapshot() {
  SnapshotFile file;
  file.graph_fp = 0x1122334455667788ull;
  file.params_fp = 0x99aabbccddeeff00ull;
  file.sections.push_back(SnapshotSection{1, {10, 20, 30, 40, 50}});
  file.sections.push_back(SnapshotSection{2, {}});  // empty payload
  SnapshotSection big;
  big.kind = 4;
  for (int i = 0; i < 300; ++i) big.payload.push_back(uint8_t(i * 7));
  file.sections.push_back(std::move(big));
  return file;
}

// ----------------------------------------------------------- codec

TEST(SnapshotCodecTest, RoundTripsHeaderAndSections) {
  const SnapshotFile file = SampleSnapshot();
  const std::vector<uint8_t> bytes = EncodeSnapshot(file);
  Result<SnapshotFile> decoded = DecodeSnapshot(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->graph_fp, file.graph_fp);
  EXPECT_EQ(decoded->params_fp, file.params_fp);
  ASSERT_EQ(decoded->sections.size(), file.sections.size());
  for (std::size_t i = 0; i < file.sections.size(); ++i) {
    EXPECT_EQ(decoded->sections[i].kind, file.sections[i].kind);
    EXPECT_EQ(decoded->sections[i].payload, file.sections[i].payload);
  }
}

TEST(SnapshotCodecTest, EmptySnapshotRoundTrips) {
  SnapshotFile file;
  file.graph_fp = 7;
  file.params_fp = 8;
  Result<SnapshotFile> decoded = DecodeSnapshot(EncodeSnapshot(file));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->sections.empty());
}

TEST(SnapshotCodecTest, RejectsTruncationAtEveryByteOffset) {
  // A kill -9 can stop a non-atomic write at ANY byte. Every strict
  // prefix must decode to a typed error — never crash, never a
  // partially-filled snapshot.
  const std::vector<uint8_t> bytes = EncodeSnapshot(SampleSnapshot());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    Result<SnapshotFile> r =
        DecodeSnapshot(std::span<const uint8_t>(bytes.data(), len));
    ASSERT_FALSE(r.ok()) << "prefix of " << len << " bytes accepted";
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << "prefix of " << len << " bytes";
  }
}

TEST(SnapshotCodecTest, RejectsEverySingleBitFlip) {
  // Header bytes are covered by the header checksum, section bytes
  // (prefix AND payload) by the section checksum, and the checksum
  // fields by themselves: no byte may flip undetected.
  const std::vector<uint8_t> bytes = EncodeSnapshot(SampleSnapshot());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> mutated = bytes;
      mutated[i] = static_cast<uint8_t>(mutated[i] ^ (1u << bit));
      Result<SnapshotFile> r = DecodeSnapshot(mutated);
      EXPECT_FALSE(r.ok()) << "byte " << i << " bit " << bit << " accepted";
    }
  }
}

TEST(SnapshotCodecTest, RejectsTrailingBytesAndWrongVersion) {
  std::vector<uint8_t> bytes = EncodeSnapshot(SampleSnapshot());
  std::vector<uint8_t> trailing = bytes;
  trailing.push_back(0);
  EXPECT_FALSE(DecodeSnapshot(trailing).ok());

  // A future-version file must be refused outright, not half-parsed.
  std::vector<uint8_t> vnext = bytes;
  vnext[4] = static_cast<uint8_t>(persist::kSnapshotVersion + 1);
  Result<SnapshotFile> r = DecodeSnapshot(vnext);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("version"), std::string::npos);
}

// ---------------------------------------------------- atomic writer

TEST(AtomicWriterTest, AbandonAtEveryPhaseLeavesLastGoodOrNew) {
  const std::string path = TempPath("abandon.snap");
  SnapshotFile good;
  good.graph_fp = 1;
  good.params_fp = 2;
  good.sections.push_back(SnapshotSection{1, {1, 2, 3}});
  ASSERT_TRUE(WriteSnapshotFile(path, good).ok());

  SnapshotFile next;
  next.graph_fp = 1;
  next.params_fp = 2;
  next.sections.push_back(SnapshotSection{1, {9, 9, 9, 9}});

  for (int phase = 0; phase < persist::kNumCheckpointPhases; ++phase) {
    const auto kill_at = static_cast<CheckpointPhase>(phase);
    SCOPED_TRACE(persist::CheckpointPhaseName(kill_at));
    Status st = WriteSnapshotFile(path, next, [kill_at](CheckpointPhase p) {
      return p != kill_at;
    });
    EXPECT_EQ(st.code(), StatusCode::kCancelled);
    // The on-disk state must be a complete snapshot: the previous one
    // for any pre-rename crash, the new one at/after the rename.
    Result<SnapshotFile> loaded = ReadSnapshotFile(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    if (kill_at == CheckpointPhase::kAfterRename) {
      EXPECT_EQ(loaded->sections[0].payload, next.sections[0].payload);
    } else {
      EXPECT_EQ(loaded->sections[0].payload, good.sections[0].payload);
    }
    // No abandoned temp file may survive.
    EXPECT_FALSE(std::ifstream(path + ".tmp." + std::to_string(getpid()))
                     .good());
    // Reset to the known-good state for the next phase.
    ASSERT_TRUE(WriteSnapshotFile(path, good).ok());
  }
  std::remove(path.c_str());
}

TEST(AtomicWriterTest, MissingFileIsNotFoundNotError) {
  Result<SnapshotFile> r = ReadSnapshotFile(TempPath("never_written.snap"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

// ------------------------------------------------------- warm state

class WarmStateTest : public ::testing::Test {
 protected:
  WarmStateTest()
      : g_(RandomGraph(60, 200, 7)),
        params_(DhtParams::Lambda(0.2)),
        P_(Range("P", 0, 20)),
        Q_(Range("Q", 25, 55)) {}

  static constexpr int kD = 6;
  static constexpr std::size_t kK = 15;

  static DhtJoinService::Options ServiceOptions() {
    DhtJoinService::Options o;
    o.num_threads = 2;
    return o;
  }

  /// Every record of the checkpoint at `path`, decoded as `service`
  /// would load it.
  std::vector<serve::DecodedCacheRecord> SavedRecords(
      const DhtJoinService& service, const std::string& path) const {
    std::vector<serve::DecodedCacheRecord> records;
    Result<SnapshotFile> file = ReadSnapshotFile(path);
    EXPECT_TRUE(file.ok()) << file.status().ToString();
    if (!file.ok()) return records;
    for (const SnapshotSection& section : file->sections) {
      Result<serve::DecodedCacheRecord> record = serve::DecodeCacheRecord(
          section.kind, section.payload, service.graph_fingerprint(),
          params_, g_.num_nodes(), kD);
      EXPECT_TRUE(record.ok()) << record.status().ToString();
      if (record.ok()) records.push_back(std::move(record).value());
    }
    return records;
  }

  Graph g_;
  DhtParams params_;
  NodeSet P_;
  NodeSet Q_;
};

TEST_F(WarmStateTest, RestoredServiceAnswersByteIdenticallyAndWarm) {
  const std::string path = TempPath("warm_roundtrip.snap");
  DhtJoinService cold(g_, params_, kD, ServiceOptions());
  Result<std::vector<ScoredPair>> want = cold.TwoWay(P_, Q_, kK);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_TRUE(cold.SaveWarmState(path).ok());

  DhtJoinService warmed(g_, params_, kD, ServiceOptions());
  Result<int64_t> restored = warmed.LoadWarmState(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_GT(restored.value(), 0);

  serve::QueryStats qs;
  Result<std::vector<ScoredPair>> got = warmed.TwoWay(P_, Q_, kK, &qs);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectSamePairs(*got, *want, "restored warm");
  // The restored cache must actually be USED, not just loaded.
  EXPECT_GT(qs.warm_targets, 0);

  // Restore-into-warm is idempotent: loading again changes nothing
  // the next answer can observe.
  Result<int64_t> again = warmed.LoadWarmState(path);
  ASSERT_TRUE(again.ok());
  Result<std::vector<ScoredPair>> got2 = warmed.TwoWay(P_, Q_, kK);
  ASSERT_TRUE(got2.ok());
  ExpectSamePairs(*got2, *want, "restored twice");
  std::remove(path.c_str());
}

TEST_F(WarmStateTest, TwoWayWriteBackSavesDepthDStatesRowOnly) {
  // B-IDJ exactifies its survivors at d, where h_d is final, so their
  // write-back is the score row alone. Targets pruned below d keep the
  // mass a later query resumes them from.
  const std::string path = TempPath("warm_row_only.snap");
  DhtJoinService service(g_, params_, kD, ServiceOptions());
  ASSERT_TRUE(service.TwoWay(P_, Q_, kK).ok());
  ASSERT_TRUE(service.SaveWarmState(path).ok());
  int at_d = 0;
  int below_d = 0;
  for (const serve::DecodedCacheRecord& record : SavedRecords(service, path)) {
    if (record.key.kind != serve::CachePayload::kBatchState) continue;
    const BackwardBatchSnapshot& snap =
        static_cast<const serve::CachedBatchState&>(*record.entry).snap;
    const std::string label = "target " +
                              std::to_string(record.key.seed.value()) +
                              " level " + std::to_string(snap.level);
    EXPECT_EQ(snap.row.size(), P_.size()) << label;
    if (snap.level == kD) {
      ++at_d;
      EXPECT_TRUE(snap.mass.empty()) << label;
    } else {
      ++below_d;
      EXPECT_FALSE(snap.mass.empty()) << label;
    }
  }
  EXPECT_GT(at_d, 0);
  EXPECT_GT(below_d, 0);
  std::remove(path.c_str());
}

TEST_F(WarmStateTest, RestoredServiceAnswersPjiByteIdenticallyAndWarm) {
  // PJ-i's warm state is the serving cache's scalar walks (their score
  // deltas ascending by internal id) and the Y-bound tables of its
  // query edges. A restored service must read them back and answer a
  // 3-chain A -> B -> C exactly as the service that saved them.
  QueryGraph query;
  query.AddNodeSet(Range("A", 0, 20));
  query.AddNodeSet(Range("B", 20, 40));
  query.AddNodeSet(Range("C", 40, 60));
  ASSERT_TRUE(query.AddEdge(0, 1).ok());
  ASSERT_TRUE(query.AddEdge(1, 2).ok());
  const MinAggregate min_f;
  const SumAggregate sum_f;
  const std::vector<const Aggregate*> aggregates = {&min_f, &sum_f};

  const std::string path = TempPath("warm_pji.snap");
  DhtJoinService cold(g_, params_, kD, ServiceOptions());
  std::vector<std::vector<TupleAnswer>> want;
  for (const Aggregate* f : aggregates) {
    Result<std::vector<TupleAnswer>> answer = cold.Nway(query, *f, kK);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    ASSERT_FALSE(answer->empty());
    want.push_back(*answer);
  }
  ASSERT_TRUE(cold.SaveWarmState(path).ok());
  // A provider walk at d is only ever scored from its deltas, so it is
  // saved without its engine mass.
  int walks_at_d = 0;
  for (const serve::DecodedCacheRecord& record : SavedRecords(cold, path)) {
    if (record.key.kind != serve::CachePayload::kBackwardSnapshot) continue;
    const BackwardWalkerState& state =
        static_cast<const serve::CachedBackwardSnapshot&>(*record.entry).state;
    if (state.level != kD) continue;
    ++walks_at_d;
    EXPECT_TRUE(state.engine.mass.empty())
        << "target " << state.target.value();
  }
  EXPECT_GT(walks_at_d, 0);

  DhtJoinService warmed(g_, params_, kD, ServiceOptions());
  Result<int64_t> restored = warmed.LoadWarmState(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_GT(restored.value(), 0);
  for (std::size_t i = 0; i < aggregates.size(); ++i) {
    serve::QueryStats qs;
    Result<std::vector<TupleAnswer>> got = warmed.Nway(
        query, *aggregates[i], kK,
        DhtJoinService::NwayAlgo::kPartialJoinIncremental, &qs);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    testing::ExpectSameTuples(*got, want[i], "aggregate " + std::to_string(i));
    EXPECT_GT(qs.warm_targets, 0) << "aggregate " << i;
    EXPECT_EQ(qs.cold_targets, 0) << "aggregate " << i;
  }
  std::remove(path.c_str());
}

TEST_F(WarmStateTest, FingerprintMismatchFallsBackColdSilently) {
  const std::string path = TempPath("warm_mismatch.snap");
  DhtJoinService source(g_, params_, kD, ServiceOptions());
  ASSERT_TRUE(source.TwoWay(P_, Q_, kK).ok());
  ASSERT_TRUE(source.SaveWarmState(path).ok());

  // A service over a DIFFERENT graph must refuse the warm state (OK,
  // zero restored — a stale snapshot is an ordinary cold start) and
  // still answer ITS graph's queries correctly.
  Graph other = RandomGraph(60, 200, 8);
  DhtJoinService stranger(other, params_, kD, ServiceOptions());
  Result<int64_t> restored = stranger.LoadWarmState(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value(), 0);

  const obs::MetricsSnapshot snap = stranger.SnapshotMetrics();
  EXPECT_GE(snap.FindCounter("persist.restore.rejects")->value, 1);
  EXPECT_EQ(snap.FindCounter("persist.restore.hits")->value, 0);

  DhtJoinService reference(other, params_, kD, ServiceOptions());
  Result<std::vector<ScoredPair>> want = reference.TwoWay(P_, Q_, kK);
  Result<std::vector<ScoredPair>> got = stranger.TwoWay(P_, Q_, kK);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());
  ExpectSamePairs(*got, *want, "stranger snapshot");
  std::remove(path.c_str());
}

TEST_F(WarmStateTest, CorruptSnapshotIsTypedAndServiceStaysServing) {
  const std::string path = TempPath("warm_corrupt.snap");
  DhtJoinService source(g_, params_, kD, ServiceOptions());
  ASSERT_TRUE(source.TwoWay(P_, Q_, kK).ok());
  ASSERT_TRUE(source.SaveWarmState(path).ok());

  Result<std::vector<uint8_t>> bytes = persist::ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());

  // Fuzz the WHOLE file: every truncation boundary and a bit flip in
  // every byte must produce a typed load failure (or a silent cold
  // start — never a crash, never poisoned state), after which the
  // service still answers byte-identically.
  DhtJoinService cold_ref(g_, params_, kD, ServiceOptions());
  Result<std::vector<ScoredPair>> want = cold_ref.TwoWay(P_, Q_, kK);
  ASSERT_TRUE(want.ok());

  const std::size_t n = bytes->size();
  for (std::size_t len = 0; len < n; len += (n / 37) + 1) {
    std::vector<uint8_t> trunc(bytes->begin(),
                               bytes->begin() + static_cast<int64_t>(len));
    WriteRawFile(path, trunc);
    DhtJoinService victim(g_, params_, kD, ServiceOptions());
    Result<int64_t> r = victim.LoadWarmState(path);
    EXPECT_FALSE(r.ok()) << "truncation to " << len << " bytes accepted";
    Result<std::vector<ScoredPair>> got = victim.TwoWay(P_, Q_, kK);
    ASSERT_TRUE(got.ok());
    ExpectSamePairs(*got, *want, "truncated to " + std::to_string(len));
  }
  for (std::size_t i = 0; i < n; i += (n / 53) + 1) {
    std::vector<uint8_t> flipped = *bytes;
    flipped[i] = static_cast<uint8_t>(flipped[i] ^ 0x40u);
    WriteRawFile(path, flipped);
    DhtJoinService victim(g_, params_, kD, ServiceOptions());
    Result<int64_t> r = victim.LoadWarmState(path);
    EXPECT_FALSE(r.ok()) << "bit flip at byte " << i << " accepted";
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  std::remove(path.c_str());
}

TEST_F(WarmStateTest, GarbageSectionPayloadsAreRejectedByRecordDecode) {
  // Sections with VALID snapshot checksums but garbage record bytes:
  // the warm-record decoder's own bounds checks must refuse them.
  DhtJoinService service(g_, params_, kD, ServiceOptions());
  const std::string path = TempPath("warm_garbage.snap");
  SnapshotFile file;
  file.graph_fp = service.graph_fingerprint();
  file.params_fp = cluster::ParamsFingerprint(params_, kD);
  // kind 1 = backward snapshot, with a payload that is far too short.
  file.sections.push_back(SnapshotSection{1, {0xff, 0x01, 0x02}});
  ASSERT_TRUE(WriteSnapshotFile(path, file).ok());
  Result<int64_t> r = service.LoadWarmState(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

  // Unknown section kind: same typed refusal.
  file.sections[0] = SnapshotSection{77, {1, 2, 3, 4}};
  ASSERT_TRUE(WriteSnapshotFile(path, file).ok());
  Result<int64_t> r2 = service.LoadWarmState(path);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

/// Records with valid section checksums, encoded exactly as
/// SaveWarmState encodes them and keyed as the service keys them, whose
/// contents the engines would index out of bounds, search wrongly, or
/// walk from a level they cannot have.
enum class BadRecord {
  kDescendingScoreDeltas,
  kEngineMassIdN,
  kScoreDeltaIdN,
  kBatchMassIdN,
  kYBoundOneRowShort,
  kYBoundShallowerThanKey,
  kBatchLevelNegative,
  kBatchLevelPastD,
  kWalkLevelPastD,
};

std::string BadRecordName(const ::testing::TestParamInfo<BadRecord>& info) {
  switch (info.param) {
    case BadRecord::kDescendingScoreDeltas: return "DescendingScoreDeltas";
    case BadRecord::kEngineMassIdN: return "EngineMassIdN";
    case BadRecord::kScoreDeltaIdN: return "ScoreDeltaIdN";
    case BadRecord::kBatchMassIdN: return "BatchMassIdN";
    case BadRecord::kYBoundOneRowShort: return "YBoundOneRowShort";
    case BadRecord::kYBoundShallowerThanKey: return "YBoundShallowerThanKey";
    case BadRecord::kBatchLevelNegative: return "BatchLevelNegative";
    case BadRecord::kBatchLevelPastD: return "BatchLevelPastD";
    case BadRecord::kWalkLevelPastD: return "WalkLevelPastD";
  }
  return "Unknown";
}

class BadWarmRecordTest : public WarmStateTest,
                          public ::testing::WithParamInterface<BadRecord> {
 protected:
  /// One section holding the bad record, under the service's
  /// fingerprints.
  SnapshotFile BadSnapshot(const DhtJoinService& service) const {
    const NodeId n = g_.num_nodes();
    const double lambda_pow = params_.lambda * params_.lambda;
    serve::CacheKey key;
    key.params = params_;
    std::shared_ptr<const serve::CacheEntry> entry;
    auto walk = [&](std::vector<std::pair<NodeId, double>> mass,
                    std::vector<std::pair<NodeId, double>> deltas,
                    int level = 2) {
      key.kind = serve::CachePayload::kBackwardSnapshot;
      key.seed = Q_[0];
      BackwardWalkerState state;
      state.target = Q_[0];
      state.level = level;
      state.lambda_pow = lambda_pow;
      state.engine.mass = std::move(mass);
      state.score_delta = std::move(deltas);
      entry = std::make_shared<serve::CachedBackwardSnapshot>(std::move(state));
    };
    auto batch = [&](std::vector<std::pair<NodeId, double>> mass,
                     int level = 2) {
      key.kind = serve::CachePayload::kBatchState;
      key.seed = Q_[0];
      key.set_a = std::make_shared<const std::vector<ExtNodeId>>(P_.nodes());
      BackwardBatchSnapshot snap;
      snap.level = level;
      snap.lambda_pow = lambda_pow;
      snap.mass = std::move(mass);
      snap.row.assign(P_.size(), 0.0);
      entry = std::make_shared<serve::CachedBatchState>(std::move(snap));
    };
    auto ybound = [&](int d, std::size_t rows) {
      key.kind = serve::CachePayload::kYBound;
      key.d = kD;
      key.set_a = std::make_shared<const std::vector<ExtNodeId>>(P_.nodes());
      key.set_b = std::make_shared<const std::vector<ExtNodeId>>(Q_.nodes());
      std::vector<std::vector<double>> suffix(
          rows, std::vector<double>(static_cast<std::size_t>(d) + 1, 0.0));
      entry = std::make_shared<serve::CachedYBound>(
          YBoundTable::FromSuffixRows(d, 0, std::move(suffix)));
    };
    switch (GetParam()) {
      case BadRecord::kDescendingScoreDeltas:
        walk({{1, 0.5}}, {{7, 0.125}, {3, 0.25}});
        break;
      case BadRecord::kEngineMassIdN:
        walk({{1, 0.5}, {n, 0.5}}, {{3, 0.25}, {7, 0.125}});
        break;
      case BadRecord::kScoreDeltaIdN:
        walk({{1, 0.5}}, {{3, 0.25}, {n, 0.125}});
        break;
      case BadRecord::kBatchMassIdN:
        batch({{1, 0.5}, {n, 0.5}});
        break;
      case BadRecord::kYBoundOneRowShort:
        ybound(kD, Q_.size() - 1);
        break;
      case BadRecord::kYBoundShallowerThanKey:
        ybound(kD - 1, Q_.size());
        break;
      // A walk state is resumed from its level and never walked past
      // d: a level <= 0 would walk to_level - level steps from its mass.
      case BadRecord::kBatchLevelNegative:
        batch({{1, 0.5}}, -2);
        break;
      case BadRecord::kBatchLevelPastD:
        batch({{1, 0.5}}, kD + 1);
        break;
      case BadRecord::kWalkLevelPastD:
        walk({}, {{3, 0.25}}, kD + 1);
        break;
    }
    SnapshotFile file;
    file.graph_fp = service.graph_fingerprint();
    file.params_fp = cluster::ParamsFingerprint(params_, kD);
    file.sections.push_back(
        SnapshotSection{serve::SectionKindFor(key.kind),
                        serve::EncodeCacheRecord(key, *entry)});
    return file;
  }
};

TEST_P(BadWarmRecordTest, LoadIsRefusedAndServiceAnswersAsCold) {
  DhtJoinService cold_ref(g_, params_, kD, ServiceOptions());
  Result<std::vector<ScoredPair>> want = cold_ref.TwoWay(P_, Q_, kK);
  ASSERT_TRUE(want.ok());

  DhtJoinService service(g_, params_, kD, ServiceOptions());
  const SnapshotFile file = BadSnapshot(service);
  ASSERT_FALSE(file.sections[0].payload.empty());
  const std::string path = TempPath("warm_bad_record.snap");
  ASSERT_TRUE(WriteSnapshotFile(path, file).ok());
  Result<int64_t> r = service.LoadWarmState(path);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  for (int round = 0; round < 2; ++round) {  // cold, then warm
    Result<std::vector<ScoredPair>> got = service.TwoWay(P_, Q_, kK);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectSamePairs(*got, *want,
                    round == 0 ? "bad record, cold" : "bad record, warm");
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Records, BadWarmRecordTest,
    ::testing::Values(BadRecord::kDescendingScoreDeltas,
                      BadRecord::kEngineMassIdN, BadRecord::kScoreDeltaIdN,
                      BadRecord::kBatchMassIdN, BadRecord::kYBoundOneRowShort,
                      BadRecord::kYBoundShallowerThanKey,
                      BadRecord::kBatchLevelNegative,
                      BadRecord::kBatchLevelPastD, BadRecord::kWalkLevelPastD),
    BadRecordName);

TEST_F(WarmStateTest, PersistMetricsTickOnSaveAndRestore) {
  const std::string path = TempPath("warm_metrics.snap");
  DhtJoinService source(g_, params_, kD, ServiceOptions());
  ASSERT_TRUE(source.TwoWay(P_, Q_, kK).ok());
  ASSERT_TRUE(source.SaveWarmState(path).ok());
  {
    const obs::MetricsSnapshot snap = source.SnapshotMetrics();
    EXPECT_EQ(snap.FindCounter("persist.checkpoint.writes")->value, 1);
    EXPECT_GT(snap.FindCounter("persist.checkpoint.bytes")->value, 0);
    EXPECT_EQ(snap.FindCounter("persist.checkpoint.failures")->value, 0);
  }
  DhtJoinService warmed(g_, params_, kD, ServiceOptions());
  Result<int64_t> restored = warmed.LoadWarmState(path);
  ASSERT_TRUE(restored.ok());
  {
    const obs::MetricsSnapshot snap = warmed.SnapshotMetrics();
    EXPECT_EQ(snap.FindCounter("persist.restore.hits")->value,
              restored.value());
    EXPECT_EQ(snap.FindCounter("persist.restore.rejects")->value, 0);
  }
  // A missing file is a cold start, not a reject.
  DhtJoinService cold(g_, params_, kD, ServiceOptions());
  Result<int64_t> none = cold.LoadWarmState(TempPath("does_not_exist.snap"));
  EXPECT_FALSE(none.ok());
  EXPECT_EQ(none.status().code(), StatusCode::kNotFound);
  {
    const obs::MetricsSnapshot snap = cold.SnapshotMetrics();
    EXPECT_EQ(snap.FindCounter("persist.restore.rejects")->value, 0);
  }
  std::remove(path.c_str());
}

// -------------------------------------------------- chaos schedule

TEST(CheckpointChaosTest, DrawIsDeterministicAndCoversEveryPhase) {
  cluster::ChaosOptions opts;
  opts.seed = 1234;
  opts.p_kill_at_checkpoint = 1.0;
  bool phase_seen[persist::kNumCheckpointPhases] = {};
  for (uint64_t ordinal = 0; ordinal < 64; ++ordinal) {
    cluster::CheckpointFault a = cluster::DrawCheckpointFault(opts, ordinal);
    cluster::CheckpointFault b = cluster::DrawCheckpointFault(opts, ordinal);
    EXPECT_TRUE(a.armed);
    EXPECT_EQ(a.kill_phase, b.kill_phase) << "ordinal " << ordinal;
    phase_seen[static_cast<int>(a.kill_phase)] = true;
  }
  for (int p = 0; p < persist::kNumCheckpointPhases; ++p) {
    EXPECT_TRUE(phase_seen[p])
        << persist::CheckpointPhaseName(static_cast<CheckpointPhase>(p));
  }
  // Probability 0 (or chaos disabled) never arms.
  opts.p_kill_at_checkpoint = 0.0;
  EXPECT_FALSE(cluster::DrawCheckpointFault(opts, 0).armed);
  cluster::ChaosOptions off;
  off.p_kill_at_checkpoint = 1.0;  // seed 0 = disabled
  EXPECT_FALSE(cluster::DrawCheckpointFault(off, 0).armed);
}

}  // namespace
}  // namespace dhtjoin
