/// \file tests/util_test.cc
/// \brief Unit tests for src/util: Status/Result, TopK, MutableHeap, Rng,
/// TablePrinter.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "util/mutable_heap.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/table.h"
#include "util/top_k.h"

namespace dhtjoin {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kIOError,
        StatusCode::kAlreadyExists, StatusCode::kUnimplemented,
        StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeToString(code), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> r(std::vector<int>{1, 2, 3});
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::OutOfRange("negative");
  return Status::OK();
}

Status UsesReturnNotOk(int x) {
  DHTJOIN_RETURN_NOT_OK(FailIfNegative(x));
  return Status::OK();
}

TEST(ResultTest, ReturnNotOkPropagates) {
  EXPECT_TRUE(UsesReturnNotOk(1).ok());
  EXPECT_EQ(UsesReturnNotOk(-1).code(), StatusCode::kOutOfRange);
}

Result<int> MakeValue(bool ok) {
  if (!ok) return Status::Internal("boom");
  return 7;
}

Result<int> UsesAssignOrReturn(bool ok) {
  DHTJOIN_ASSIGN_OR_RETURN(int v, MakeValue(ok));
  return v + 1;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(UsesAssignOrReturn(true).value(), 8);
  EXPECT_EQ(UsesAssignOrReturn(false).status().code(), StatusCode::kInternal);
}

// ----------------------------------------------------------------- TopK

TEST(TopKTest, KeepsLargestK) {
  TopK<int> top(3);
  for (int i = 0; i < 10; ++i) top.Offer(i, i);
  auto sorted = top.TakeSortedDescending();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].item, 9);
  EXPECT_EQ(sorted[1].item, 8);
  EXPECT_EQ(sorted[2].item, 7);
}

TEST(TopKTest, ThresholdIsNegInfUntilFull) {
  TopK<int> top(2);
  EXPECT_EQ(top.Threshold(), -std::numeric_limits<double>::infinity());
  top.Offer(5.0, 1);
  EXPECT_EQ(top.Threshold(), -std::numeric_limits<double>::infinity());
  top.Offer(3.0, 2);
  EXPECT_DOUBLE_EQ(top.Threshold(), 3.0);
  top.Offer(10.0, 3);
  EXPECT_DOUBLE_EQ(top.Threshold(), 5.0);
}

TEST(TopKTest, OfferBelowThresholdRejected) {
  TopK<int> top(1);
  EXPECT_TRUE(top.Offer(5.0, 1));
  EXPECT_FALSE(top.Offer(4.0, 2));
  EXPECT_TRUE(top.Offer(6.0, 3));
  EXPECT_EQ(top.TakeSortedDescending()[0].item, 3);
}

TEST(TopKTest, NegativeKeysWork) {
  // DHTlambda scores are negative; TopK must not assume positivity.
  TopK<int> top(2);
  top.Offer(-1.25, 1);
  top.Offer(-0.9, 2);
  top.Offer(-1.1, 3);
  auto sorted = top.TakeSortedDescending();
  EXPECT_EQ(sorted[0].item, 2);
  EXPECT_EQ(sorted[1].item, 3);
}

TEST(TopKTest, ClearResets) {
  TopK<int> top(2);
  top.Offer(1.0, 1);
  top.Clear();
  EXPECT_TRUE(top.empty());
  EXPECT_EQ(top.Threshold(), -std::numeric_limits<double>::infinity());
}

// ----------------------------------------------------------- MutableHeap

TEST(MutableHeapTest, PushPopOrdered) {
  MutableHeap<std::string> heap;
  heap.Push(1.0, "a");
  heap.Push(3.0, "c");
  heap.Push(2.0, "b");
  EXPECT_EQ(heap.Pop(), "c");
  EXPECT_EQ(heap.Pop(), "b");
  EXPECT_EQ(heap.Pop(), "a");
  EXPECT_TRUE(heap.empty());
}

TEST(MutableHeapTest, UpdateReordersBothDirections) {
  MutableHeap<int> heap;
  auto h1 = heap.Push(1.0, 1);
  auto h2 = heap.Push(2.0, 2);
  heap.Update(h1, 5.0);  // increase
  EXPECT_EQ(heap.TopHandle(), h1);
  heap.Update(h1, 0.5);  // decrease
  EXPECT_EQ(heap.TopHandle(), h2);
}

TEST(MutableHeapTest, EraseMiddle) {
  MutableHeap<int> heap;
  heap.Push(1.0, 1);
  auto h2 = heap.Push(2.0, 2);
  heap.Push(3.0, 3);
  heap.Erase(h2);
  EXPECT_EQ(heap.size(), 2u);
  EXPECT_EQ(heap.Pop(), 3);
  EXPECT_EQ(heap.Pop(), 1);
}

TEST(MutableHeapTest, SecondPriority) {
  MutableHeap<int> heap;
  EXPECT_EQ(heap.SecondPriority(),
            -std::numeric_limits<double>::infinity());
  heap.Push(5.0, 1);
  EXPECT_EQ(heap.SecondPriority(),
            -std::numeric_limits<double>::infinity());
  heap.Push(3.0, 2);
  EXPECT_DOUBLE_EQ(heap.SecondPriority(), 3.0);
  heap.Push(4.0, 3);
  EXPECT_DOUBLE_EQ(heap.SecondPriority(), 4.0);
}

TEST(MutableHeapTest, HandleRecyclingAfterErase) {
  MutableHeap<int> heap;
  auto h1 = heap.Push(1.0, 1);
  heap.Erase(h1);
  auto h2 = heap.Push(2.0, 2);
  EXPECT_EQ(heap.Get(h2), 2);
  EXPECT_EQ(heap.size(), 1u);
}

TEST(MutableHeapTest, StressAgainstSortedVector) {
  MutableHeap<int> heap;
  Rng rng(99);
  std::vector<std::pair<double, int>> model;
  std::vector<MutableHeap<int>::Handle> handles;
  for (int i = 0; i < 500; ++i) {
    double pri = rng.NextDouble();
    handles.push_back(heap.Push(pri, i));
    model.emplace_back(pri, i);
  }
  // Random updates.
  for (int i = 0; i < 200; ++i) {
    auto idx = static_cast<std::size_t>(rng.Below(model.size()));
    double pri = rng.NextDouble();
    heap.Update(handles[idx], pri);
    model[idx].first = pri;
  }
  // Drain and compare orderings by priority.
  std::sort(model.begin(), model.end(),
            [](auto& a, auto& b) { return a.first > b.first; });
  for (const auto& [pri, item] : model) {
    EXPECT_DOUBLE_EQ(heap.TopPriority(), pri);
    heap.Pop();
  }
  EXPECT_TRUE(heap.empty());
}

// ------------------------------------------------------------------ Rng

TEST(RngTest, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.Next64(), b.Next64());
  EXPECT_NE(a.Next64(), c.Next64());
}

TEST(RngTest, BelowInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(7), 7u);
  }
}

TEST(RngTest, BelowCoversAllResidues) {
  Rng rng(2);
  std::set<uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.Below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, BetweenInclusive) {
  Rng rng(3);
  std::set<int64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.Between(-2, 2));
  EXPECT_TRUE(seen.contains(-2));
  EXPECT_TRUE(seen.contains(2));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(4);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double x = rng.NextDouble();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);  // law of large numbers
}

TEST(RngTest, GeometricMeanMatches) {
  Rng rng(5);
  double sum = 0.0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) sum += rng.Geometric(0.5);
  EXPECT_NEAR(sum / trials, 2.0, 0.05);  // E[Geom(0.5)] = 2
}

// --------------------------------------------------------- TablePrinter

TEST(TablePrinterTest, RendersAlignedColumns) {
  TablePrinter t("demo", {"alg", "time"});
  t.AddRow({"PJ-i", "0.5s"});
  t.AddRow({"NL", "1000s"});
  std::string out = t.Render();
  EXPECT_NE(out.find("== demo =="), std::string::npos);
  EXPECT_NE(out.find("PJ-i"), std::string::npos);
  EXPECT_NE(out.find("1000s"), std::string::npos);
}

TEST(TablePrinterTest, CsvOutput) {
  TablePrinter t("demo", {"a", "b"});
  t.AddRow({"1", "2"});
  EXPECT_EQ(t.RenderCsv(), "a,b\n1,2\n");
}

TEST(TablePrinterTest, NumAndSecsFormat) {
  EXPECT_EQ(TablePrinter::Num(1.23456, 2), "1.23");
  EXPECT_EQ(TablePrinter::Secs(2.5), "2.50s");
  EXPECT_EQ(TablePrinter::Secs(0.0025), "2.50ms");
  EXPECT_EQ(TablePrinter::Secs(0.0000025), "2.5us");
}

}  // namespace
}  // namespace dhtjoin
