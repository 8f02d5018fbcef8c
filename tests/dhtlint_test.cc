/// \file tests/dhtlint_test.cc
/// \brief dhtlint rule coverage: every rule must trip on its fixture,
/// honor reasoned suppressions, reject reasonless ones, scope by path,
/// and survive in the JSON report — so the linter cannot silently rot.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "tools/dhtlint_lib.h"

namespace dhtjoin::lint {
namespace {

std::string ReadFixture(const std::string& name) {
  std::ifstream in(std::string(DHTJOIN_LINT_FIXTURE_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture " << name;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

int CountRule(const LintResult& r, const std::string& rule,
              bool suppressed) {
  int n = 0;
  for (const Finding& f : r.findings) {
    if (f.rule == rule && f.suppressed == suppressed) ++n;
  }
  return n;
}

TEST(DhtLintTest, UnorderedIterTripsAndSuppresses) {
  LintResult r =
      LintSource("src/dht/fixture.cc", ReadFixture("unordered_iter.cc"));
  EXPECT_EQ(CountRule(r, "unordered-iter", /*suppressed=*/false), 2);
  EXPECT_EQ(CountRule(r, "unordered-iter", /*suppressed=*/true), 1);
  for (const Finding& f : r.findings) {
    if (f.suppressed) {
      EXPECT_EQ(f.reason, "max-reduction is order-insensitive");
    }
  }
}

TEST(DhtLintTest, UnorderedIterScopedToEngineSources) {
  // The same content outside src/ (e.g. a tool) is not engine code.
  LintResult r =
      LintSource("tools/fixture.cc", ReadFixture("unordered_iter.cc"));
  EXPECT_EQ(CountRule(r, "unordered-iter", false), 0);
}

TEST(DhtLintTest, RawRngTripsEverySourceAndSuppresses) {
  LintResult r = LintSource("src/dht/fixture.cc", ReadFixture("raw_rng.cc"));
  // rand, srand, random_device, time(nullptr), system_clock = 5 trips;
  // the string-literal rand() must not count.
  EXPECT_EQ(CountRule(r, "raw-rng", false), 5);
  EXPECT_EQ(CountRule(r, "raw-rng", true), 1);
}

TEST(DhtLintTest, RawRngAllowlistsRngTimerAndBench) {
  const std::string content = ReadFixture("raw_rng.cc");
  EXPECT_EQ(LintSource("src/util/rng.h", content).NumUnsuppressed(), 0);
  EXPECT_EQ(LintSource("src/util/timer.cc", content).NumUnsuppressed(), 0);
  EXPECT_EQ(LintSource("bench/bench_x.cc", content).NumUnsuppressed(), 0);
  EXPECT_GT(LintSource("src/serve/session.cc", content).NumUnsuppressed(),
            0);
}

TEST(DhtLintTest, RawClockTripsAndSuppresses) {
  LintResult r =
      LintSource("src/dht/fixture.cc", ReadFixture("raw_clock.cc"));
  // steady_clock + high_resolution_clock trip; the string literal and
  // the reasoned allow do not count as unsuppressed.
  EXPECT_EQ(CountRule(r, "raw-clock", /*suppressed=*/false), 2);
  EXPECT_EQ(CountRule(r, "raw-clock", /*suppressed=*/true), 1);
}

TEST(DhtLintTest, RawClockAllowlistsObsClockAndNonEngineCode) {
  const std::string content = ReadFixture("raw_clock.cc");
  // The injectable-clock implementation is THE sanctioned raw read.
  EXPECT_EQ(CountRule(LintSource("src/obs/clock.h", content), "raw-clock",
                      false),
            0);
  // Outside src/ (tools, benches) wall-clock reads are fine.
  EXPECT_EQ(CountRule(LintSource("bench/bench_x.cc", content), "raw-clock",
                      false),
            0);
  EXPECT_GT(CountRule(LintSource("src/serve/session.cc", content),
                      "raw-clock", false),
            0);
}

TEST(DhtLintTest, RawClockSuppressedViaAllowFileInTimerAndDeadline) {
  // The real headers carry reasoned allow-file suppressions: findings
  // exist but none are unsuppressed (lint gate stays green).
  const std::string timer =
      "// dhtlint: allow-file(raw-clock): measurement-only\n"
      "using Clock = std::chrono::steady_clock;\n";
  LintResult r = LintSource("src/util/timer.h", timer);
  EXPECT_EQ(CountRule(r, "raw-clock", /*suppressed=*/true), 1);
  EXPECT_EQ(r.NumUnsuppressed(), 0);
}

TEST(DhtLintTest, FloatAccumTripsAndSuppresses) {
  LintResult r =
      LintSource("src/dht/fixture.cc", ReadFixture("float_accum.cc"));
  EXPECT_EQ(CountRule(r, "float-accum", false), 2);
  EXPECT_EQ(CountRule(r, "float-accum", true), 1);
}

TEST(DhtLintTest, RawIdParamTripsInHeadersOnly) {
  const std::string content = ReadFixture("raw_id_param.h");
  LintResult header = LintSource("src/join2/fixture.h", content);
  EXPECT_EQ(CountRule(header, "raw-id-param", false), 2);
  EXPECT_EQ(CountRule(header, "raw-id-param", true), 1);
  // Implementation files index storage with raw ids by design.
  LintResult impl = LintSource("src/join2/fixture.cc", content);
  EXPECT_EQ(CountRule(impl, "raw-id-param", false), 0);
}

TEST(DhtLintTest, FileLevelSuppressionWaivesWholeFile) {
  const std::string content =
      "// dhtlint: allow-file(raw-id-param): raw interior below remap\n" +
      ReadFixture("raw_id_param.h");
  LintResult r = LintSource("src/dht/fixture.h", content);
  EXPECT_EQ(CountRule(r, "raw-id-param", false), 0);
  EXPECT_EQ(r.NumUnsuppressed(), 0);
  EXPECT_GT(CountRule(r, "raw-id-param", true), 0);
}

TEST(DhtLintTest, MutableStaticTripsInHotPathsOnly) {
  const std::string content = ReadFixture("mutable_static.cc");
  LintResult hot = LintSource("src/dht/fixture.cc", content);
  EXPECT_EQ(CountRule(hot, "mutable-static", false), 2);
  EXPECT_EQ(CountRule(hot, "mutable-static", true), 1);
  // Outside the dht/join2 hot paths the rule does not apply.
  LintResult cold = LintSource("src/serve/fixture.cc", content);
  EXPECT_EQ(CountRule(cold, "mutable-static", false), 0);
}

TEST(DhtLintTest, SuppressionWithoutReasonIsItselfAFinding) {
  LintResult r =
      LintSource("src/dht/fixture.cc", ReadFixture("bad_suppression.cc"));
  EXPECT_EQ(CountRule(r, "bad-suppression", false), 1);
  // ...and the underlying float-accum hit is NOT waived.
  EXPECT_EQ(CountRule(r, "float-accum", false), 1);
}

TEST(DhtLintTest, CleanFixtureProducesZeroFindings) {
  LintResult r = LintSource("src/dht/fixture.cc", ReadFixture("clean.cc"));
  EXPECT_TRUE(r.findings.empty())
      << "first unexpected: " << r.findings[0].rule << " @ line "
      << r.findings[0].line;
}

TEST(DhtLintTest, ReportJsonCarriesCountsAndFindings) {
  LintResult r =
      LintSource("src/dht/fixture.cc", ReadFixture("float_accum.cc"));
  const std::string json = ReportJson(r);
  EXPECT_NE(json.find("\"float-accum\": {\"total\": 3, \"suppressed\": 1}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"unsuppressed\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"file\": \"src/dht/fixture.cc\""),
            std::string::npos);
  EXPECT_NE(json.find("\"reason\": "), std::string::npos);
}

TEST(DhtLintTest, DefaultScanPathSelectsEngineAndToolSources) {
  EXPECT_TRUE(DefaultScanPath("src/dht/bounds.cc"));
  EXPECT_TRUE(DefaultScanPath("src/graph/node_id.h"));
  EXPECT_TRUE(DefaultScanPath("tools/cli_parse.cc"));
  EXPECT_FALSE(DefaultScanPath("tests/lint_fixtures/raw_rng.cc"));
  EXPECT_FALSE(DefaultScanPath("tools/dhtlint_lib.cc"));  // self
  EXPECT_FALSE(DefaultScanPath("bench/bench_reorder.cc"));
  EXPECT_FALSE(DefaultScanPath("src/dht/README.md"));
}

TEST(DhtLintTest, MergeAccumulatesAcrossFiles) {
  LintResult a =
      LintSource("src/dht/a.cc", ReadFixture("float_accum.cc"));
  LintResult b =
      LintSource("src/dht/b.cc", ReadFixture("mutable_static.cc"));
  const int before = a.NumUnsuppressed();
  Merge(&a, b);
  EXPECT_EQ(a.NumUnsuppressed(), before + b.NumUnsuppressed());
}

}  // namespace
}  // namespace dhtjoin::lint
