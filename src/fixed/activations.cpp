#include "fixed/activations.hpp"

#include <algorithm>
#include <cmath>

namespace csdml::fixedpt {

double sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

double tanh_ref(double x) { return std::tanh(x); }

double softsign(double x) { return x / (std::abs(x) + 1.0); }

double softsign_derivative(double x) {
  const double d = std::abs(x) + 1.0;
  return 1.0 / (d * d);
}

double sigmoid_derivative(double x) {
  const double s = sigmoid(x);
  return s * (1.0 - s);
}

ScaledFixed softsign_fixed(ScaledFixed x) {
  // x/(|x|+1) at scale s: result_raw = raw * s / (|raw| + s), rounded.
  const std::int64_t s = x.scale();
  const std::int64_t raw = x.raw();
  const __int128 numerator = static_cast<__int128>(raw) * s;
  const __int128 denominator = static_cast<__int128>(magnitude(raw)) + s;
  const __int128 half = denominator / 2;
  const __int128 adjusted = numerator >= 0 ? numerator + half : numerator - half;
  return ScaledFixed::from_raw(static_cast<std::int64_t>(adjusted / denominator), s);
}

namespace {

/// PLAN on the non-negative half-line, in doubles (exact mirror of the
/// integer version below up to rounding of the scaled coefficients).
double plan_positive(double ax) {
  if (ax >= 5.0) return 1.0;
  if (ax >= 2.375) return 0.03125 * ax + 0.84375;
  if (ax >= 1.0) return 0.125 * ax + 0.625;
  return 0.25 * ax + 0.5;
}

}  // namespace

double sigmoid_plan(double x) {
  const double ax = std::abs(x);
  const double half = plan_positive(ax);
  return x >= 0.0 ? half : 1.0 - half;
}

ScaledFixed sigmoid_fixed(ScaledFixed x) {
  const std::int64_t s = x.scale();
  const std::int64_t raw = x.raw();
  const std::uint64_t mag = magnitude(raw);

  // Segment boundaries and coefficients, scaled to the working scale.
  // All multiplications by the PLAN slopes are power-of-two divisions,
  // mirroring the shift-only datapath the scheme was designed for.
  const std::int64_t five = 5 * s;
  const std::int64_t two_375 = (19 * s) / 8;  // 2.375
  if (mag >= static_cast<std::uint64_t>(five)) {
    return ScaledFixed::from_raw(raw >= 0 ? s : 0, s);
  }
  const std::int64_t m = static_cast<std::int64_t>(mag);  // < 5·scale
  std::int64_t half_raw;  // PLAN(|x|), scaled
  if (m >= two_375) {
    half_raw = m / 32 + (27 * s) / 32;  // 0.03125|x| + 0.84375
  } else if (m >= s) {
    half_raw = m / 8 + (5 * s) / 8;     // 0.125|x| + 0.625
  } else {
    half_raw = m / 4 + s / 2;           // 0.25|x| + 0.5
  }
  const std::int64_t result = raw >= 0 ? half_raw : s - half_raw;
  return ScaledFixed::from_raw(result, s);
}

double softsign_tanh_max_gap(double radius, int samples) {
  double worst = 0.0;
  for (int i = 0; i <= samples; ++i) {
    const double x = -radius + 2.0 * radius * static_cast<double>(i) /
                                  static_cast<double>(samples);
    worst = std::max(worst, std::abs(softsign(x) - std::tanh(x)));
  }
  return worst;
}

}  // namespace csdml::fixedpt
