/// \file bench/bench_common.h
/// \brief Shared setup for the table/figure reproduction harnesses.
///
/// Every bench binary prints the rows/series of one of the paper's
/// tables or figures (Sec VII). Absolute times differ from the paper's
/// 2014 testbed; the claims under reproduction are the *shapes*: who
/// wins, by what rough factor, where the curves bend (see DESIGN.md §4).

#ifndef DHTJOIN_BENCH_BENCH_COMMON_H_
#define DHTJOIN_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/dhtjoin.h"
#include "datasets/dblp_like.h"
#include "datasets/yeast_like.h"
#include "datasets/youtube_like.h"
#include "obs/json.h"
#include "util/table.h"
#include "util/timer.h"

namespace dhtjoin::bench {

/// The bench JSON surface (`BENCH_*.json`) is the shared obs builder:
/// one implementation of key ordering, `", "` separators, and %.9g
/// doubles, so the committed baselines stay byte-compatible with every
/// other export in the tree (obs/json.h, DESIGN.md §11).
using JsonObject = obs::JsonObject;
using obs::JsonArray;
using obs::WriteJsonFile;

/// Average wall seconds of `fn` over `repeats` runs (>= 1).
inline double TimeIt(int repeats, const std::function<void()>& fn) {
  WallTimer timer;
  for (int r = 0; r < repeats; ++r) fn();
  return timer.Seconds() / repeats;
}

/// Aborts with a message when a Status/Result is not OK.
inline void CheckOk(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what, s.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
T Unwrap(Result<T> result, const char* what) {
  CheckOk(result.status(), what);
  return std::move(result).value();
}

/// The Yeast stand-in at the paper's exact scale (2.4k nodes, 7.2k
/// undirected edges, 13 partitions).
inline datasets::YeastLikeDataset MakeYeast() {
  std::printf("[setup] generating Yeast-like graph (2.4k nodes, 7.2k "
              "edges, 13 partitions)...\n");
  return Unwrap(datasets::GenerateYeastLike(), "GenerateYeastLike");
}

/// The DBLP stand-in at bench scale (15k authors; the paper's 188k is
/// configurable but slower than useful for a laptop harness).
inline datasets::DblpLikeDataset MakeDblp(NodeId authors = 15000) {
  std::printf("[setup] generating DBLP-like graph (%d authors)...\n",
              authors);
  return Unwrap(
      datasets::GenerateDblpLike(datasets::DblpLikeConfig{
          .num_authors = authors, .seed = 7}),
      "GenerateDblpLike");
}

/// The YouTube stand-in at bench scale (40k users).
inline datasets::YouTubeLikeDataset MakeYouTube(NodeId users = 40000) {
  std::printf("[setup] generating YouTube-like graph (%d users)...\n",
              users);
  return Unwrap(
      datasets::GenerateYouTubeLike(datasets::YouTubeLikeConfig{
          .num_users = users, .seed = 36}),
      "GenerateYouTubeLike");
}

/// The paper's default measure/query parameters (Sec VII-A).
struct PaperDefaults {
  DhtParams dht = DhtParams::Lambda(0.2);
  int d = 8;  // epsilon = 1e-6 via Lemma 1
  std::size_t k = 50;
  std::size_t m = 50;
};

}  // namespace dhtjoin::bench

#endif  // DHTJOIN_BENCH_BENCH_COMMON_H_
