// Descriptive statistics, confidence intervals and distribution drift.
//
// Table I of the paper reports execution-time means with 95% confidence
// intervals; ConfidenceInterval reproduces that computation (Student-t,
// two-sided) exactly. The Population Stability Index is the one drift
// primitive; the API-category monitor (detect::DriftMonitor) is its
// caller.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace csdml {

/// Welford-style single-pass accumulator for mean/variance plus extrema.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const;
  /// Sample variance (n-1 denominator). Requires count() >= 2.
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;

 private:
  std::size_t n_{0};
  double mean_{0.0};
  double m2_{0.0};
  double min_{0.0};
  double max_{0.0};
};

/// A two-sided confidence interval around a sample mean.
struct ConfidenceInterval {
  double mean{0.0};
  double lower{0.0};
  double upper{0.0};
  double confidence{0.95};

  double half_width() const { return (upper - lower) / 2.0; }
};

/// Two-sided Student-t critical value for the given confidence level and
/// degrees of freedom (exact table for small df, normal limit for large).
/// Supported confidence levels: 0.90, 0.95, 0.99.
double student_t_critical(double confidence, std::size_t degrees_of_freedom);

/// CI over raw samples; requires >= 2 samples.
ConfidenceInterval confidence_interval(const std::vector<double>& samples,
                                       double confidence = 0.95);

/// p in [0,1]; linear interpolation between order statistics.
double percentile(std::vector<double> samples, double p);

/// Population Stability Index of `observed` against `expected`: two
/// equal-length histograms (counts or masses), each normalised by its own
/// total. Every normalised bin is floored at 1e-6, so a bin empty on one
/// side stays finite. 0 = identical; common bands are < 0.10 stable,
/// 0.10-0.25 moderate shift, > 0.25 major shift. Both sides need
/// positive mass.
double population_stability_index(std::span<const double> expected,
                                  std::span<const double> observed);

}  // namespace csdml
