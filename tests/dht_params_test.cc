/// \file tests/dht_params_test.cc
/// \brief Unit tests for the general DHT form (paper Def. 5, Table II,
/// Lemma 1, Lemma 2).

#include <gtest/gtest.h>

#include <cmath>

#include "dht/params.h"

namespace dhtjoin {
namespace {

TEST(DhtParamsTest, LambdaVariantMatchesTableII) {
  // DHTlambda: alpha = 1/(1-l), beta = -1/(1-l).
  DhtParams p = DhtParams::Lambda(0.2);
  EXPECT_DOUBLE_EQ(p.lambda, 0.2);
  EXPECT_DOUBLE_EQ(p.alpha, 1.25);
  EXPECT_DOUBLE_EQ(p.beta, -1.25);
}

TEST(DhtParamsTest, ExponentialVariantMatchesTableII) {
  // DHTe: alpha = e, beta = 0, lambda = 1/e.
  DhtParams p = DhtParams::Exponential();
  EXPECT_DOUBLE_EQ(p.alpha, M_E);
  EXPECT_DOUBLE_EQ(p.beta, 0.0);
  EXPECT_DOUBLE_EQ(p.lambda, 1.0 / M_E);
}

TEST(DhtParamsTest, ExponentialFormEquivalence) {
  // alpha * lambda^i == e^{-(i-1)} for the DHTe parameters (Eq. 1 vs 3).
  DhtParams p = DhtParams::Exponential();
  for (int i = 1; i <= 10; ++i) {
    EXPECT_NEAR(p.alpha * std::pow(p.lambda, i), std::exp(-(i - 1)), 1e-12);
  }
}

TEST(DhtParamsTest, ValidateAcceptsBothVariants) {
  EXPECT_TRUE(DhtParams::Lambda(0.2).Validate().ok());
  EXPECT_TRUE(DhtParams::Lambda(0.9).Validate().ok());
  EXPECT_TRUE(DhtParams::Exponential().Validate().ok());
}

TEST(DhtParamsTest, ValidateRejectsBadCoefficients) {
  DhtParams p;
  p.alpha = 0.0;
  EXPECT_FALSE(p.Validate().ok());
  p = DhtParams::Lambda(0.2);
  p.lambda = 0.0;
  EXPECT_FALSE(p.Validate().ok());
  p.lambda = 1.0;
  EXPECT_FALSE(p.Validate().ok());
  p.lambda = -0.5;
  EXPECT_FALSE(p.Validate().ok());
  p = DhtParams::Lambda(0.2);
  p.alpha = -1.0;  // paper's general form allows it, our algorithms don't
  EXPECT_FALSE(p.Validate().ok());
}

TEST(DhtParamsTest, Lemma1PaperDefaultGivesD8) {
  // Paper Sec VII-A: epsilon = 1e-6 with DHTlambda(0.2) "or equivalently
  // d = 8".
  EXPECT_EQ(DhtParams::Lambda(0.2).StepsForEpsilon(1e-6), 8);
}

TEST(DhtParamsTest, Lemma1BoundIsTight) {
  // The remainder after d steps is at most X_d^+ = alpha l^{d+1}/(1-l);
  // Lemma 1's d must push it below epsilon, and d-1 must not.
  for (double lambda : {0.2, 0.4, 0.6, 0.8}) {
    DhtParams p = DhtParams::Lambda(lambda);
    for (double eps : {1e-3, 1e-6, 1e-8}) {
      int d = p.StepsForEpsilon(eps);
      EXPECT_LE(p.XBound(d), eps * (1 + 1e-9)) << "lambda=" << lambda;
      if (d > 1) {
        EXPECT_GT(p.XBound(d - 1), eps) << "lambda=" << lambda;
      }
    }
  }
}

TEST(DhtParamsTest, Lemma1MonotoneInEpsilonAndLambda) {
  DhtParams p = DhtParams::Lambda(0.5);
  EXPECT_LE(p.StepsForEpsilon(1e-3), p.StepsForEpsilon(1e-6));
  EXPECT_LE(DhtParams::Lambda(0.2).StepsForEpsilon(1e-6),
            DhtParams::Lambda(0.8).StepsForEpsilon(1e-6));
}

TEST(DhtParamsTest, Lemma1HugeEpsilonClampsToOne) {
  EXPECT_EQ(DhtParams::Lambda(0.2).StepsForEpsilon(100.0), 1);
}

TEST(DhtParamsTest, XBoundGeometricDecay) {
  DhtParams p = DhtParams::Lambda(0.2);
  // X_l = alpha * lambda^{l+1} / (1 - lambda).
  EXPECT_NEAR(p.XBound(0), 1.25 * 0.2 / 0.8, 1e-12);
  for (int l = 0; l < 10; ++l) {
    EXPECT_NEAR(p.XBound(l + 1), p.XBound(l) * p.lambda, 1e-12);
  }
}

TEST(DhtParamsTest, ScoreRange) {
  DhtParams p = DhtParams::Lambda(0.2);
  EXPECT_DOUBLE_EQ(p.FloorScore(), -1.25);
  // Best case: hit at step 1 with probability 1.
  EXPECT_DOUBLE_EQ(p.MaxScore(), -1.25 + 1.25 * 0.2);
  EXPECT_LT(p.MaxScore(), 0.0);  // DHTlambda scores are negative
  EXPECT_GT(DhtParams::Exponential().MaxScore(), 0.0);
}

TEST(DhtParamsTest, ParamsFingerprintValuesArePinned) {
  // Checkpoints and the cluster handshake carry these values. A change
  // would make every existing checkpoint load cold and every worker of
  // the previous build refuse to serve.
  EXPECT_EQ(ParamsFingerprint(DhtParams::Lambda(0.2), 8),
            0xe2da14c8b2e906e8ULL);
  EXPECT_EQ(ParamsFingerprint(DhtParams::Exponential(), 6),
            0x750a7d028428659cULL);
  EXPECT_EQ(ParamsFingerprint(DhtParams::PersonalizedPageRank(0.85), 8),
            0x2e3a8b304588d5d9ULL);
}

}  // namespace
}  // namespace dhtjoin
