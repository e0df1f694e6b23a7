// Decimal scaled fixed-point arithmetic, as used by the paper's FPGA port.
//
// The paper multiplies weights, biases and embeddings by a decimal scaling
// factor of 10^6 ("placing more emphasis on maintaining the mantissa"),
// rounds to the nearest integer, and performs all kernel arithmetic on the
// resulting integers so that multiplies map onto DSP slices. Each product
// of two scaled values carries a factor of 10^12 and is corrected back to
// the working scale. This class reproduces that scheme exactly, with a
// 128-bit intermediate so products of the magnitudes that occur in the
// LSTM (|x| ≲ 10^3) never overflow.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/error.hpp"

namespace csdml::fixedpt {

/// The paper's scaling factor.
inline constexpr std::int64_t kPaperScale = 1'000'000;

/// |v| in unsigned arithmetic, so INT64_MIN yields 2^63 instead of
/// overflowing.
constexpr std::uint64_t magnitude(std::int64_t v) {
  const std::uint64_t neg = static_cast<std::uint64_t>(v >> 63);
  return (static_cast<std::uint64_t>(v) ^ neg) - neg;
}

class ScaledFixed {
 public:
  /// Zero at the paper's default scale.
  constexpr ScaledFixed() = default;

  /// Converts a real value, rounding to the nearest representable number
  /// (ties away from zero): bit-identical to std::llround(value · scale),
  /// without the libm call. The cast truncates toward zero, and the
  /// remainder scaled − t is exact (|t| <= |scaled| < 2|t| once |t| >= 1,
  /// Sterbenz), so comparing it with ±0.5 rounds exactly.
  static ScaledFixed from_double(double value, std::int64_t scale = kPaperScale) {
    CSDML_REQUIRE(scale > 0, "scale must be positive");
    const double scaled = value * static_cast<double>(scale);
    CSDML_REQUIRE(std::abs(scaled) <
                      static_cast<double>(std::numeric_limits<std::int64_t>::max()),
                  "value out of range for this scale");
    const auto truncated = static_cast<std::int64_t>(scaled);
    const double remainder = scaled - static_cast<double>(truncated);
    return ScaledFixed(truncated + (remainder >= 0.5) - (remainder <= -0.5), scale);
  }

  /// Adopts an already-scaled raw integer.
  static constexpr ScaledFixed from_raw(std::int64_t raw,
                                        std::int64_t scale = kPaperScale) {
    return ScaledFixed(raw, scale);
  }

  constexpr std::int64_t raw() const { return raw_; }
  constexpr std::int64_t scale() const { return scale_; }

  double to_double() const {
    return static_cast<double>(raw_) / static_cast<double>(scale_);
  }

  /// Addition: both operands must share a scale (enforced).
  friend ScaledFixed operator+(ScaledFixed a, ScaledFixed b) {
    CSDML_REQUIRE(a.scale_ == b.scale_, "mixed-scale addition");
    return ScaledFixed(a.raw_ + b.raw_, a.scale_);
  }
  friend ScaledFixed operator-(ScaledFixed a, ScaledFixed b) {
    CSDML_REQUIRE(a.scale_ == b.scale_, "mixed-scale subtraction");
    return ScaledFixed(a.raw_ - b.raw_, a.scale_);
  }
  friend constexpr ScaledFixed operator-(ScaledFixed a) {
    return ScaledFixed(-a.raw_, a.scale_);
  }

  /// Multiplication with the paper's post-product correction: the raw
  /// product carries scale^2 and is divided back down to scale, with
  /// round-to-nearest to "minimize errors from finite precision".
  friend ScaledFixed operator*(ScaledFixed a, ScaledFixed b) {
    CSDML_REQUIRE(a.scale_ == b.scale_, "mixed-scale multiplication");
    const __int128 product = static_cast<__int128>(a.raw_) * b.raw_;
    return ScaledFixed(round_div(product, a.scale_), a.scale_);
  }

  /// Division, rounded to nearest.
  friend ScaledFixed operator/(ScaledFixed a, ScaledFixed b) {
    CSDML_REQUIRE(a.scale_ == b.scale_, "mixed-scale division");
    CSDML_REQUIRE(b.raw_ != 0, "division by zero");
    const __int128 numerator = static_cast<__int128>(a.raw_) * a.scale_;
    return ScaledFixed(round_div(numerator, b.raw_), a.scale_);
  }

  ScaledFixed& operator+=(ScaledFixed other) { return *this = *this + other; }
  ScaledFixed& operator-=(ScaledFixed other) { return *this = *this - other; }
  ScaledFixed& operator*=(ScaledFixed other) { return *this = *this * other; }

  friend constexpr bool operator==(ScaledFixed a, ScaledFixed b) {
    return a.raw_ == b.raw_ && a.scale_ == b.scale_;
  }
  friend bool operator<(ScaledFixed a, ScaledFixed b) {
    CSDML_REQUIRE(a.scale_ == b.scale_, "mixed-scale comparison");
    return a.raw_ < b.raw_;
  }

  ScaledFixed abs() const {
    CSDML_REQUIRE(raw_ != std::numeric_limits<std::int64_t>::min(),
                  "fixed-point overflow");
    return ScaledFixed(raw_ < 0 ? -raw_ : raw_, scale_);
  }

  /// Raw-domain product with the paper's post-product correction —
  /// bit-identical to `from_raw(a) * from_raw(b)` at the same scale. The
  /// fused datapaths keep whole tensors at one known scale and use this to
  /// skip the per-operand scale bookkeeping in their inner loops.
  static std::int64_t mul_raw(std::int64_t a, std::int64_t b,
                              std::int64_t scale) {
    return round_div(static_cast<__int128>(a) * b, scale);
  }

  /// Largest representable magnitude error of a conversion: 0.5 / scale.
  double quantum() const { return 0.5 / static_cast<double>(scale_); }

 private:
  constexpr ScaledFixed(std::int64_t raw, std::int64_t scale)
      : raw_(raw), scale_(scale) {}

  /// Round-to-nearest signed integer division (ties away from zero).
  static std::int64_t round_div(__int128 numerator, std::int64_t denominator) {
    const __int128 den = denominator;
    const __int128 half = den / 2;
    const __int128 adjusted = numerator >= 0 ? numerator + half : numerator - half;
    const __int128 q = adjusted / den;
    CSDML_REQUIRE(q <= std::numeric_limits<std::int64_t>::max() &&
                      q >= std::numeric_limits<std::int64_t>::min(),
                  "fixed-point overflow");
    return static_cast<std::int64_t>(q);
  }

  std::int64_t raw_{0};
  std::int64_t scale_{kPaperScale};
};

/// Invariant-divisor companion to `ScaledFixed::mul_raw` for fused inner
/// loops. A datapath's scale never changes after construction, so the
/// post-product correction — a 128-bit division in `round_div`, the single
/// most expensive operation in the fixed hot loops — can be replaced by a
/// multiply with a precomputed integer reciprocal (Granlund & Montgomery,
/// "Division by Invariant Integers using Multiplication", PLDI 1994).
///
/// For a scale s >= 2 let l = ceil(log2 s) and m = ceil(2^(63+l) / s).
/// Because 2^(l-1) < s, m < 2^64, and m·s - 2^(63+l) < s <= 2^l, so by
/// their Theorem 4.2 (N = 63) floor(n / s) == floor(n·m / 2^(63+l)) for
/// every 0 <= n < 2^63. `mul(a, b)` is therefore bit-identical to
/// `mul_raw(a, b, scale())` for all inputs: round_div's ties-away rounding
/// is floor((|a·b| + s/2) / s) with the sign re-applied, and every input
/// outside that window (a·b overflows int64, |a·b| + s/2 >= 2^63, or
/// s == 1) takes mul_raw itself, so its overflow check still fires.
class InvariantScale {
 public:
  explicit InvariantScale(std::int64_t scale)
      : scale_(scale), half_(static_cast<std::uint64_t>(scale / 2)) {
    CSDML_REQUIRE(scale > 0, "scale must be positive");
    if (scale == 1) return;  // limit_ stays 0: every product takes mul_raw
    const int l = std::bit_width(static_cast<std::uint64_t>(scale - 1));
    const unsigned __int128 s = static_cast<std::uint64_t>(scale);
    const unsigned __int128 two_pow = static_cast<unsigned __int128>(1) << (63 + l);
    magic_ = static_cast<std::uint64_t>((two_pow + s - 1) / s);
    shift_ = l - 1;
    limit_ = std::uint64_t{1} << 63;
    if (scale > (std::int64_t{1} << 52)) return;  // no 52-bit reciprocal
    const unsigned __int128 two_pow52 = static_cast<unsigned __int128>(1) << (52 + l);
    magic52_ = static_cast<std::uint64_t>((two_pow52 + s - 1) / s) - (std::uint64_t{1} << 52);
    shift52_ = l;
  }

  std::int64_t scale() const { return scale_; }
  std::uint64_t half() const { return half_; }

  /// The same division for 52-bit numerators (Theorem 4.2 with N = 52),
  /// the width of an AVX-512 IFMA multiply: for 2 <= scale <= 2^52, with
  /// m' = ceil(2^(52+l) / s) - 2^52 (< 2^52, see docs/PERFORMANCE.md),
  /// floor(n / s) == (hi52(n·m') + n) >> l for every 0 <= n < 2^52.
  /// The fixedpt row kernel (row_kernel.hpp) uses it.
  bool has_reciprocal52() const { return shift52_ > 0; }
  std::uint64_t magic52() const { return magic52_; }
  int shift52() const { return shift52_; }

  std::int64_t mul(std::int64_t a, std::int64_t b) const {
    std::int64_t product = 0;
    const bool overflow = __builtin_mul_overflow(a, b, &product);
    // A product of INT64_MIN has magnitude 2^63, so it falls back too.
    const std::uint64_t n = magnitude(product) + half_;
    if (overflow || n >= limit_) return ScaledFixed::mul_raw(a, b, scale_);
    const std::uint64_t q =
        static_cast<std::uint64_t>((static_cast<unsigned __int128>(n) * magic_) >> 64) >>
        shift_;
    // Re-apply the sign branch-free: neg is all ones for a negative product.
    const std::uint64_t neg = static_cast<std::uint64_t>(product >> 63);
    return static_cast<std::int64_t>((q ^ neg) - neg);
  }

 private:
  std::int64_t scale_;
  std::uint64_t half_;
  std::uint64_t magic_{0};    ///< m = ceil(2^(63+l) / scale)
  int shift_{0};              ///< l - 1: hi64(n·m) >> shift_ == n / scale
  std::uint64_t limit_{0};    ///< fast path needs |a·b| + scale/2 < limit_
  std::uint64_t magic52_{0};  ///< m' = ceil(2^(52+l) / scale) - 2^52
  int shift52_{0};            ///< l, or 0 when scale is 1 or above 2^52
};

}  // namespace csdml::fixedpt
