#include "dht/params.h"

#include <bit>
#include <cmath>
#include <string>

#include "util/rng.h"

namespace dhtjoin {

DhtParams DhtParams::Lambda(double lambda) {
  DhtParams p;
  p.lambda = lambda;
  p.alpha = 1.0 / (1.0 - lambda);
  p.beta = -1.0 / (1.0 - lambda);
  return p;
}

DhtParams DhtParams::Exponential() {
  DhtParams p;
  p.alpha = M_E;
  p.beta = 0.0;
  p.lambda = 1.0 / M_E;
  return p;
}

DhtParams DhtParams::PersonalizedPageRank(double c) {
  DhtParams p;
  p.alpha = 1.0 - c;
  p.beta = 0.0;
  p.lambda = c;
  p.first_hit = false;
  return p;
}

Status DhtParams::Validate() const {
  if (!(alpha > 0.0)) {
    return Status::InvalidArgument("DHT alpha must be positive, got " +
                                   std::to_string(alpha));
  }
  if (!(lambda > 0.0 && lambda < 1.0)) {
    return Status::InvalidArgument("DHT lambda must be in (0,1), got " +
                                   std::to_string(lambda));
  }
  return Status::OK();
}

int DhtParams::StepsForEpsilon(double epsilon) const {
  // d >= log_lambda(eps(1-lambda)/(alpha*lambda)); log base lambda<1 flips
  // to a division of natural logs (both negative for arguments < 1).
  double x = epsilon * (1.0 - lambda) / (alpha * lambda);
  if (x >= 1.0) return 1;
  double d = std::log(x) / std::log(lambda);
  return static_cast<int>(std::ceil(d - 1e-12));
}

double DhtParams::XBound(int l) const {
  return alpha * std::pow(lambda, l + 1) / (1.0 - lambda);
}

uint64_t ParamsFingerprint(const DhtParams& params, int d) {
  uint64_t sm = 0x243f6a8885a308d3ULL;  // pi digits; fixed fingerprint seed
  uint64_t acc = SplitMix64(sm);
  auto fold = [&](uint64_t word) {
    uint64_t s = acc ^ word;
    acc = SplitMix64(s);
  };
  fold(std::bit_cast<uint64_t>(params.alpha));
  fold(std::bit_cast<uint64_t>(params.beta));
  fold(std::bit_cast<uint64_t>(params.lambda));
  fold(params.first_hit ? 1u : 0u);
  fold(static_cast<uint64_t>(static_cast<int64_t>(d)));
  return acc;
}

}  // namespace dhtjoin
