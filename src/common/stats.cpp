#include "common/stats.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>

#include "common/error.hpp"

namespace csdml {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::mean() const {
  CSDML_REQUIRE(n_ > 0, "mean of empty sample");
  return mean_;
}

double RunningStats::variance() const {
  CSDML_REQUIRE(n_ >= 2, "variance needs at least two samples");
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
  CSDML_REQUIRE(n_ > 0, "min of empty sample");
  return min_;
}

double RunningStats::max() const {
  CSDML_REQUIRE(n_ > 0, "max of empty sample");
  return max_;
}

namespace {

struct TRow {
  std::size_t df;
  double t90, t95, t99;
};

// Two-sided critical values of Student's t distribution.
constexpr std::array<TRow, 34> kTTable{{
    {1, 6.314, 12.706, 63.657},  {2, 2.920, 4.303, 9.925},
    {3, 2.353, 3.182, 5.841},    {4, 2.132, 2.776, 4.604},
    {5, 2.015, 2.571, 4.032},    {6, 1.943, 2.447, 3.707},
    {7, 1.895, 2.365, 3.499},    {8, 1.860, 2.306, 3.355},
    {9, 1.833, 2.262, 3.250},    {10, 1.812, 2.228, 3.169},
    {11, 1.796, 2.201, 3.106},   {12, 1.782, 2.179, 3.055},
    {13, 1.771, 2.160, 3.012},   {14, 1.761, 2.145, 2.977},
    {15, 1.753, 2.131, 2.947},   {16, 1.746, 2.120, 2.921},
    {17, 1.740, 2.110, 2.898},   {18, 1.734, 2.101, 2.878},
    {19, 1.729, 2.093, 2.861},   {20, 1.725, 2.086, 2.845},
    {21, 1.721, 2.080, 2.831},   {22, 1.717, 2.074, 2.819},
    {23, 1.714, 2.069, 2.807},   {24, 1.711, 2.064, 2.797},
    {25, 1.708, 2.060, 2.787},   {26, 1.706, 2.056, 2.779},
    {27, 1.703, 2.052, 2.771},   {28, 1.701, 2.048, 2.763},
    {29, 1.699, 2.045, 2.756},   {30, 1.697, 2.042, 2.750},
    {40, 1.684, 2.021, 2.704},   {60, 1.671, 2.000, 2.660},
    {120, 1.658, 1.980, 2.617},  {1000, 1.646, 1.962, 2.581},
}};

double row_value(const TRow& row, double confidence) {
  if (confidence == 0.90) return row.t90;
  if (confidence == 0.95) return row.t95;
  if (confidence == 0.99) return row.t99;
  throw PreconditionError("supported confidence levels: 0.90, 0.95, 0.99");
}

}  // namespace

double student_t_critical(double confidence, std::size_t df) {
  CSDML_REQUIRE(df >= 1, "degrees of freedom must be >= 1");
  const TRow* prev = &kTTable.front();
  for (const auto& row : kTTable) {
    if (row.df == df) return row_value(row, confidence);
    if (row.df > df) {
      // Linear interpolation in 1/df between bracketing table rows.
      const double a = 1.0 / static_cast<double>(prev->df);
      const double b = 1.0 / static_cast<double>(row.df);
      const double x = 1.0 / static_cast<double>(df);
      const double w = (a - x) / (a - b);
      return row_value(*prev, confidence) * (1.0 - w) + row_value(row, confidence) * w;
    }
    prev = &row;
  }
  // df beyond the table: normal approximation via the last row.
  return row_value(kTTable.back(), confidence);
}

ConfidenceInterval confidence_interval(const std::vector<double>& samples,
                                       double confidence) {
  CSDML_REQUIRE(samples.size() >= 2, "confidence interval needs >= 2 samples");
  RunningStats stats;
  for (const double s : samples) stats.add(s);
  const double t = student_t_critical(confidence, samples.size() - 1);
  const double sem = stats.stddev() / std::sqrt(static_cast<double>(samples.size()));
  ConfidenceInterval ci;
  ci.mean = stats.mean();
  ci.lower = ci.mean - t * sem;
  ci.upper = ci.mean + t * sem;
  ci.confidence = confidence;
  return ci;
}

double percentile(std::vector<double> samples, double p) {
  CSDML_REQUIRE(!samples.empty(), "percentile of empty sample");
  CSDML_REQUIRE(p >= 0.0 && p <= 1.0, "p must be in [0, 1]");
  std::sort(samples.begin(), samples.end());
  if (samples.size() == 1) return samples.front();
  const double pos = p * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

double population_stability_index(std::span<const double> expected,
                                  std::span<const double> observed) {
  CSDML_REQUIRE(expected.size() == observed.size(),
                "histograms must have the same number of bins");
  const double expected_mass =
      std::accumulate(expected.begin(), expected.end(), 0.0);
  const double observed_mass =
      std::accumulate(observed.begin(), observed.end(), 0.0);
  CSDML_REQUIRE(expected_mass > 0.0 && observed_mass > 0.0,
                "histograms need positive mass on both sides");
  // Laplace-style floor keeps log(o/e) finite when a bin is empty on one
  // side only.
  constexpr double kFloor = 1e-6;
  double psi = 0.0;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const double e = std::max(expected[i] / expected_mass, kFloor);
    const double o = std::max(observed[i] / observed_mass, kFloor);
    psi += (o - e) * std::log(o / e);
  }
  return psi;
}

}  // namespace csdml
