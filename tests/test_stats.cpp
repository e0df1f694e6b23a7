#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"

namespace csdml {
namespace {

TEST(RunningStats, MatchesClosedForm) {
  RunningStats stats;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(x);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_NEAR(stats.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_EQ(stats.min(), 2.0);
  EXPECT_EQ(stats.max(), 9.0);
}

TEST(RunningStats, EmptyAndSingleGuards) {
  RunningStats stats;
  EXPECT_THROW(stats.mean(), PreconditionError);
  EXPECT_THROW(stats.min(), PreconditionError);
  stats.add(3.0);
  EXPECT_DOUBLE_EQ(stats.mean(), 3.0);
  EXPECT_THROW(stats.variance(), PreconditionError);
}

TEST(StudentT, ExactTableValues) {
  EXPECT_DOUBLE_EQ(student_t_critical(0.95, 1), 12.706);
  EXPECT_DOUBLE_EQ(student_t_critical(0.95, 9), 2.262);
  EXPECT_DOUBLE_EQ(student_t_critical(0.99, 5), 4.032);
  EXPECT_DOUBLE_EQ(student_t_critical(0.90, 30), 1.697);
}

TEST(StudentT, InterpolatedAndLimitValues) {
  const double t35 = student_t_critical(0.95, 35);
  EXPECT_GT(t35, student_t_critical(0.95, 40));
  EXPECT_LT(t35, student_t_critical(0.95, 30));
  // Very large df approaches the normal critical value.
  EXPECT_NEAR(student_t_critical(0.95, 100'000), 1.962, 0.01);
}

TEST(StudentT, RejectsUnsupportedConfidence) {
  EXPECT_THROW(student_t_critical(0.80, 10), PreconditionError);
  EXPECT_THROW(student_t_critical(0.95, 0), PreconditionError);
}

TEST(ConfidenceInterval, KnownSample) {
  // mean 10, sd 2, n 4 -> sem 1, t(0.95, 3) = 3.182.
  const std::vector<double> samples{8.0, 10.0, 10.0, 12.0};
  const ConfidenceInterval ci = confidence_interval(samples);
  EXPECT_DOUBLE_EQ(ci.mean, 10.0);
  const double sem = std::sqrt(8.0 / 3.0) / 2.0;
  EXPECT_NEAR(ci.lower, 10.0 - 3.182 * sem, 1e-9);
  EXPECT_NEAR(ci.upper, 10.0 + 3.182 * sem, 1e-9);
  EXPECT_NEAR(ci.half_width(), 3.182 * sem, 1e-9);
}

TEST(ConfidenceInterval, IsSymmetricAroundMean) {
  const std::vector<double> samples{1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  const ConfidenceInterval ci = confidence_interval(samples, 0.99);
  EXPECT_NEAR(ci.mean - ci.lower, ci.upper - ci.mean, 1e-12);
}

TEST(ConfidenceInterval, NeedsTwoSamples) {
  EXPECT_THROW(confidence_interval({1.0}), PreconditionError);
}

TEST(Percentile, InterpolatesOrderStatistics) {
  const std::vector<double> samples{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(samples, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(samples, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(samples, 0.5), 25.0);
  EXPECT_DOUBLE_EQ(percentile({5.0}, 0.37), 5.0);
}

TEST(Percentile, Guards) {
  EXPECT_THROW(percentile({}, 0.5), PreconditionError);
  EXPECT_THROW(percentile({1.0}, 1.5), PreconditionError);
}

using Histogram = std::vector<double>;

TEST(DriftStats, PsiZeroAgainstItself) {
  const Histogram histogram = {3.0, 0.0, 5.0, 2.0};
  EXPECT_DOUBLE_EQ(population_stability_index(histogram, histogram), 0.0);
  // Counts and masses normalise alike.
  const Histogram masses = {0.3, 0.0, 0.5, 0.2};
  EXPECT_NEAR(population_stability_index(histogram, masses), 0.0, 1e-12);
}

TEST(DriftStats, PsiSymmetricOnSwappedInputs) {
  const Histogram a = {8.0, 2.0, 0.0};
  const Histogram b = {2.0, 7.0, 1.0};
  const double ab = population_stability_index(a, b);
  EXPECT_GT(ab, 0.25);  // a major shift
  EXPECT_NEAR(ab, population_stability_index(b, a), 1e-12);
}

TEST(DriftStats, PsiFloorsEmptyBinsAtOneInAMillion) {
  // A bin empty in the reference that holds 5% of traffic contributes
  // (0.05 - 1e-6) * ln(0.05 / 1e-6), about 0.54, instead of infinity.
  const double psi = population_stability_index(Histogram{1.0, 0.0},
                                                Histogram{0.95, 0.05});
  const double expected = (0.95 - 1.0) * std::log(0.95) +
                          (0.05 - 1e-6) * std::log(0.05 / 1e-6);
  EXPECT_NEAR(psi, expected, 1e-12);
  EXPECT_NEAR(psi, 0.5435, 1e-3);
}

TEST(DriftStats, RejectsSizeMismatchAndZeroMass) {
  const Histogram two = {1.0, 1.0};
  const Histogram three = {1.0, 1.0, 1.0};
  const Histogram empty_mass = {0.0, 0.0};
  EXPECT_THROW(population_stability_index(two, three), PreconditionError);
  EXPECT_THROW(population_stability_index(empty_mass, two), PreconditionError);
  EXPECT_THROW(population_stability_index(two, empty_mass), PreconditionError);
  EXPECT_THROW(population_stability_index(Histogram{}, Histogram{}),
               PreconditionError);
}

/// Property sweep: CI shrinks as confidence drops and as n grows.
class CiWidthTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CiWidthTest, WidthShrinksWithSampleSize) {
  const std::size_t n = GetParam();
  std::vector<double> small_sample;
  std::vector<double> large_sample;
  for (std::size_t i = 0; i < n; ++i) {
    small_sample.push_back(static_cast<double>(i % 7));
  }
  for (std::size_t i = 0; i < n * 4; ++i) {
    large_sample.push_back(static_cast<double>(i % 7));
  }
  EXPECT_GT(confidence_interval(small_sample).half_width(),
            confidence_interval(large_sample).half_width());
  EXPECT_GT(confidence_interval(small_sample, 0.99).half_width(),
            confidence_interval(small_sample, 0.90).half_width());
}

INSTANTIATE_TEST_SUITE_P(Sizes, CiWidthTest, ::testing::Values(8, 16, 32, 64));

}  // namespace
}  // namespace csdml
