#include "fixed/scaled_fixed.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace csdml::fixedpt {
namespace {

TEST(ScaledFixed, PaperScaleIsOneMillion) {
  EXPECT_EQ(kPaperScale, 1'000'000);
  EXPECT_EQ(ScaledFixed().scale(), kPaperScale);
}

TEST(ScaledFixed, ConversionRoundsToNearest) {
  EXPECT_EQ(ScaledFixed::from_double(1.2345678).raw(), 1'234'568);
  EXPECT_EQ(ScaledFixed::from_double(-1.2345672).raw(), -1'234'567);
  EXPECT_EQ(ScaledFixed::from_double(0.0000005).raw(), 1);  // ties away from zero
}

TEST(ScaledFixed, RoundTripWithinHalfQuantum) {
  Rng rng(5);
  for (int i = 0; i < 10'000; ++i) {
    const double x = rng.uniform(-100.0, 100.0);
    const ScaledFixed f = ScaledFixed::from_double(x);
    EXPECT_LE(std::abs(f.to_double() - x), f.quantum() + 1e-15);
  }
}

TEST(ScaledFixed, AdditionIsExact) {
  const auto a = ScaledFixed::from_double(1.25);
  const auto b = ScaledFixed::from_double(-0.75);
  EXPECT_DOUBLE_EQ((a + b).to_double(), 0.5);
  EXPECT_DOUBLE_EQ((a - b).to_double(), 2.0);
  EXPECT_DOUBLE_EQ((-a).to_double(), -1.25);
}

TEST(ScaledFixed, ProductCorrectionMatchesRealProduct) {
  // The paper's scheme: products carry scale^2 and are corrected back.
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double x = rng.uniform(-50.0, 50.0);
    const double y = rng.uniform(-50.0, 50.0);
    const auto fx = ScaledFixed::from_double(x);
    const auto fy = ScaledFixed::from_double(y);
    const double got = (fx * fy).to_double();
    // Error budget: input quantisation (|y|+|x|)*q + product rounding q.
    const double budget =
        (std::abs(x) + std::abs(y) + 2.0) * (1.0 / kPaperScale);
    EXPECT_NEAR(got, x * y, budget) << x << " * " << y;
  }
}

TEST(ScaledFixed, SmallValueProductsKeepPrecision) {
  // Typical LSTM weights are small; 1e6 scaling preserves the mantissa.
  const auto a = ScaledFixed::from_double(0.003141);
  const auto b = ScaledFixed::from_double(0.002718);
  EXPECT_NEAR((a * b).to_double(), 0.003141 * 0.002718, 1e-6);
}

TEST(ScaledFixed, DivisionMatchesReal) {
  const auto a = ScaledFixed::from_double(3.0);
  const auto b = ScaledFixed::from_double(4.0);
  EXPECT_NEAR((a / b).to_double(), 0.75, 1e-6);
  EXPECT_THROW(a / ScaledFixed::from_double(0.0), PreconditionError);
}

TEST(ScaledFixed, MixedScaleOperationsThrow) {
  const auto a = ScaledFixed::from_double(1.0, 1'000);
  const auto b = ScaledFixed::from_double(1.0, 1'000'000);
  EXPECT_THROW(a + b, PreconditionError);
  EXPECT_THROW(a * b, PreconditionError);
  EXPECT_THROW(a < b, PreconditionError);
}

TEST(ScaledFixed, AlternativeScalesWork) {
  for (const std::int64_t scale : {1'000LL, 10'000LL, 100'000LL, 10'000'000LL}) {
    const auto f = ScaledFixed::from_double(0.125, scale);
    EXPECT_LE(std::abs(f.to_double() - 0.125), 0.5 / static_cast<double>(scale));
    EXPECT_EQ(f.scale(), scale);
  }
}

TEST(ScaledFixed, CoarserScaleIsLessAccurate) {
  const double x = 0.1234567;
  const double err_coarse =
      std::abs(ScaledFixed::from_double(x, 1'000).to_double() - x);
  const double err_fine =
      std::abs(ScaledFixed::from_double(x, 1'000'000).to_double() - x);
  EXPECT_GT(err_coarse, err_fine);
}

TEST(ScaledFixed, AbsAndComparisons) {
  const auto a = ScaledFixed::from_double(-2.5);
  EXPECT_DOUBLE_EQ(a.abs().to_double(), 2.5);
  // |INT64_MIN| has no int64 representation: an overflow error, not a
  // negative "magnitude".
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(ScaledFixed::from_raw(-kMax).abs().raw(), kMax);
  EXPECT_THROW(ScaledFixed::from_raw(-kMax - 1).abs(), PreconditionError);
  EXPECT_TRUE(ScaledFixed::from_double(1.0) < ScaledFixed::from_double(2.0));
  EXPECT_EQ(ScaledFixed::from_double(1.0), ScaledFixed::from_double(1.0));
}

TEST(ScaledFixed, CompoundAssignment) {
  auto a = ScaledFixed::from_double(1.0);
  a += ScaledFixed::from_double(2.0);
  a *= ScaledFixed::from_double(3.0);
  a -= ScaledFixed::from_double(1.0);
  EXPECT_DOUBLE_EQ(a.to_double(), 8.0);
}

TEST(ScaledFixed, RejectsOutOfRangeConversion) {
  EXPECT_THROW(ScaledFixed::from_double(1e13), PreconditionError);
  EXPECT_THROW(ScaledFixed::from_double(1.0, 0), PreconditionError);
  EXPECT_THROW(ScaledFixed::from_double(1.0, -5), PreconditionError);
}

/// Parameterized accumulation property: a fixed-point dot product of n
/// terms stays within n quantums of the double result (the paper's "round
/// to closely match the original numbers").
class DotProductErrorTest : public ::testing::TestWithParam<int> {};

TEST_P(DotProductErrorTest, AccumulatedErrorScalesLinearly) {
  const int n = GetParam();
  Rng rng(static_cast<std::uint64_t>(n));
  double real = 0.0;
  ScaledFixed fixed;
  for (int i = 0; i < n; ++i) {
    const double a = rng.uniform(-1.0, 1.0);
    const double b = rng.uniform(-1.0, 1.0);
    real += a * b;
    fixed += ScaledFixed::from_double(a) * ScaledFixed::from_double(b);
  }
  const double budget = 4.0 * static_cast<double>(n) / kPaperScale;
  EXPECT_NEAR(fixed.to_double(), real, budget);
}

INSTANTIATE_TEST_SUITE_P(Lengths, DotProductErrorTest,
                         ::testing::Values(8, 32, 40, 128, 1024));

}  // namespace
}  // namespace csdml::fixedpt
