#include "fixed/activations.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

namespace csdml::fixedpt {
namespace {

TEST(Activations, SigmoidBoundsAndSymmetry) {
  for (double x = -20.0; x <= 20.0; x += 0.1) {
    const double s = sigmoid(x);
    EXPECT_GT(s, 0.0);
    EXPECT_LT(s, 1.0);
    EXPECT_NEAR(sigmoid(-x), 1.0 - s, 1e-12);
  }
  EXPECT_DOUBLE_EQ(sigmoid(0.0), 0.5);
}

TEST(Activations, SoftsignBoundsOddnessMonotonicity) {
  double prev = -1.0;
  for (double x = -50.0; x <= 50.0; x += 0.25) {
    const double s = softsign(x);
    EXPECT_GT(s, -1.0);
    EXPECT_LT(s, 1.0);
    EXPECT_NEAR(softsign(-x), -s, 1e-12);  // odd function, like tanh
    EXPECT_GT(s, prev);                    // strictly increasing
    prev = s;
  }
  EXPECT_DOUBLE_EQ(softsign(0.0), 0.0);
  EXPECT_DOUBLE_EQ(softsign(1.0), 0.5);
}

TEST(Activations, SoftsignSharesTanhShape) {
  // Same sign, same asymptotes, ordering |softsign| <= |tanh| near 0.
  for (double x = 0.1; x <= 10.0; x += 0.1) {
    EXPECT_GT(softsign(x), 0.0);
    EXPECT_LT(softsign(x), std::tanh(x) + 1e-12);
  }
  EXPECT_NEAR(softsign(1000.0), 1.0, 1e-3);
  EXPECT_NEAR(std::tanh(1000.0), 1.0, 1e-12);
}

TEST(Activations, SoftsignDerivativeIsCorrect) {
  for (double x = -5.0; x <= 5.0; x += 0.01) {
    const double h = 1e-6;
    const double numeric = (softsign(x + h) - softsign(x - h)) / (2 * h);
    EXPECT_NEAR(softsign_derivative(x), numeric, 1e-6);
    EXPECT_GT(softsign_derivative(x), 0.0);  // smooth, non-vanishing gradient
  }
}

TEST(Activations, SigmoidDerivativeIsCorrect) {
  for (double x = -5.0; x <= 5.0; x += 0.05) {
    const double h = 1e-6;
    const double numeric = (sigmoid(x + h) - sigmoid(x - h)) / (2 * h);
    EXPECT_NEAR(sigmoid_derivative(x), numeric, 1e-6);
  }
}

TEST(Activations, SoftsignFixedMatchesFloat) {
  for (double x = -30.0; x <= 30.0; x += 0.0137) {
    const auto fx = ScaledFixed::from_double(x);
    EXPECT_NEAR(softsign_fixed(fx).to_double(), softsign(x), 2e-6) << x;
  }
}

TEST(Activations, SoftsignFixedStaysInOpenUnitInterval) {
  for (double x : {-1e6, -1000.0, -1.0, 0.0, 1.0, 1000.0, 1e6}) {
    const double s = softsign_fixed(ScaledFixed::from_double(x)).to_double();
    EXPECT_GE(s, -1.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(Activations, SigmoidPlanWithinPublishedError) {
  // PLAN approximation max error is 0.0189 (Amin et al. 1997).
  double worst = 0.0;
  for (double x = -8.0; x <= 8.0; x += 0.001) {
    worst = std::max(worst, std::abs(sigmoid_plan(x) - sigmoid(x)));
  }
  EXPECT_LT(worst, 0.0190);
  EXPECT_GT(worst, 0.010);  // it is an approximation, not exact
}

TEST(Activations, SigmoidFixedMatchesPlanFloat) {
  for (double x = -8.0; x <= 8.0; x += 0.0119) {
    const auto fx = ScaledFixed::from_double(x);
    // The integer coefficients 19s/8, 27s/32 etc. are exact at scale 1e6.
    EXPECT_NEAR(sigmoid_fixed(fx).to_double(), sigmoid_plan(x), 3e-6) << x;
  }
}

TEST(Activations, SigmoidFixedComplementSymmetry) {
  for (double x = -6.0; x <= 6.0; x += 0.1) {
    const double pos = sigmoid_fixed(ScaledFixed::from_double(x)).to_double();
    const double neg = sigmoid_fixed(ScaledFixed::from_double(-x)).to_double();
    EXPECT_NEAR(pos + neg, 1.0, 3e-6);
  }
}

TEST(Activations, SigmoidFixedSaturates) {
  EXPECT_DOUBLE_EQ(sigmoid_fixed(ScaledFixed::from_double(5.0)).to_double(), 1.0);
  EXPECT_DOUBLE_EQ(sigmoid_fixed(ScaledFixed::from_double(100.0)).to_double(), 1.0);
  EXPECT_DOUBLE_EQ(sigmoid_fixed(ScaledFixed::from_double(-5.0)).to_double(), 0.0);
}

TEST(Activations, FixedActivationsKeepSignAndRangeAtInt64Extremes) {
  // |raw| is taken without negating INT64_MIN, which would overflow and
  // flip the sign.
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kTwo62 = std::int64_t{1} << 62;
  for (const std::int64_t s : {kPaperScale, std::int64_t{1} << 20}) {
    for (const std::int64_t raw : {kMin, kMax, kTwo62, -kTwo62}) {
      const ScaledFixed x = ScaledFixed::from_raw(raw, s);
      const std::int64_t soft = softsign_fixed(x).raw();
      EXPECT_GE(soft, -s) << raw;
      EXPECT_LE(soft, s) << raw;
      EXPECT_EQ(soft < 0, raw < 0) << raw;
      EXPECT_NE(soft, 0) << raw;
      // Far past 5, PLAN saturates to 0 or 1.
      EXPECT_EQ(sigmoid_fixed(x).raw(), raw < 0 ? 0 : s) << raw;
    }
  }
}

TEST(Activations, SoftsignTanhGapIsBoundedOnTypicalRange) {
  // The substitution argument: similar S-curve and asymptotes. The max
  // |softsign - tanh| gap is ~0.306 (near |x| = 2) and shrinks toward both
  // x = 0 and |x| -> inf.
  const double gap = softsign_tanh_max_gap(4.0, 4000);
  EXPECT_GT(gap, 0.25);
  EXPECT_LT(gap, 0.32);
  EXPECT_LT(softsign_tanh_max_gap(0.2, 400), 0.05);  // small around 0
  // Far out both saturate to the same asymptote.
  EXPECT_NEAR(softsign(50.0), std::tanh(50.0), 0.02);
}

}  // namespace
}  // namespace csdml::fixedpt
