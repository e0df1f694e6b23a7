#include "fixed/scaled_fixed.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fixed/row_kernel.hpp"

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

/// from_double rounds inline (truncate, then round the exact remainder);
/// it must agree with std::llround(v · s) wherever that is representable
/// and refuse, with the same error, every value it is not.
constexpr std::int64_t kPropertyScales[] = {1, 3, 1'000, 999'983, 1'000'000,
                                            1'000'000'000};

void expect_matches_llround(double v, std::int64_t scale) {
  const double scaled = v * static_cast<double>(scale);
  ASSERT_LT(std::abs(scaled), 0x1p63) << v << " at " << scale;
  EXPECT_EQ(ScaledFixed::from_double(v, scale).raw(), std::llround(scaled))
      << std::hexfloat << v << " at scale " << scale;
}

void expect_out_of_range(double v, std::int64_t scale) {
  try {
    (void)ScaledFixed::from_double(v, scale);
    ADD_FAILURE() << v << " at scale " << scale << " was accepted";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("value out of range for this scale"),
              std::string::npos)
        << e.what();
  }
}

/// Either rule, whichever applies to `v` at `scale`.
void expect_consistent(double v, std::int64_t scale) {
  if (std::isfinite(v) && std::abs(v * static_cast<double>(scale)) < 0x1p63) {
    expect_matches_llround(v, scale);
  } else {
    expect_out_of_range(v, scale);
  }
}

/// `anchor` and its `steps` neighbours on either side, both signs.
std::vector<double> around(double anchor, int steps) {
  std::vector<double> out;
  double up = anchor;
  double down = anchor;
  for (int i = 0; i <= steps; ++i) {
    for (const double v : {up, down}) {
      out.push_back(v);
      out.push_back(-v);
    }
    up = std::nextafter(up, std::numeric_limits<double>::infinity());
    down = std::nextafter(down, 0.0);
  }
  return out;
}

TEST(ScaledFixedProperty, FromDoubleRoundsTiesAwayFromZeroLikeLlround) {
  for (int k = 0; k <= 2'000; ++k) {
    expect_matches_llround(k + 0.5, 1);
    expect_matches_llround(-(k + 0.5), 1);
  }
  for (const double big : {0x1p40, 0x1p50, 0x1p51}) {
    for (const double v : around(big + 0.5, 4)) expect_matches_llround(v, 1);
  }
  // The classic add-0.5-then-floor failure: the largest double below 0.5.
  for (const double v : around(0.5, 4)) expect_matches_llround(v, 1);
  // Ties after scaling: 0.0000005 · 10^6 and friends.
  for (const double v : {0.0000005, 0.0000015, 0.0000025, 1.0000005, 2.5e-6}) {
    expect_matches_llround(v, 1'000'000);
    expect_matches_llround(-v, 1'000'000);
  }
  const ScaledFixed negative_zero = ScaledFixed::from_double(-0.0);
  EXPECT_EQ(negative_zero.raw(), 0);
  EXPECT_FALSE(std::signbit(negative_zero.to_double()));
}

TEST(ScaledFixedProperty, FromDoubleMatchesLlroundAtTheEdges) {
  const double denorm = std::numeric_limits<double>::denorm_min();
  const double normal_min = std::numeric_limits<double>::min();
  std::vector<double> values = around(denorm, 4);
  for (const double anchor : {normal_min, 0x1p52, 0x1p53}) {
    const std::vector<double> near = around(anchor, 8);
    values.insert(values.end(), near.begin(), near.end());
  }
  for (const std::int64_t scale : kPropertyScales) {
    for (const double v : values) expect_consistent(v, scale);
  }
  // The largest magnitudes below 2^63 (2^63 - 1024 down), at scale 1 and
  // divided back down for the paper's scale.
  for (const double v : around(std::nextafter(0x1p63, 0.0), 16)) {
    if (std::abs(v) >= 0x1p63) continue;
    expect_matches_llround(v, 1);
    expect_consistent(v / 1'000'000, 1'000'000);
  }
}

TEST(ScaledFixedProperty, FromDoubleMatchesLlroundOnRandomDoubles) {
  Rng rng(2026);
  for (const std::int64_t scale : kPropertyScales) {
    for (const double magnitude : {1e-9, 1e-3, 1.0, 1e3, 1e9, 1e15}) {
      for (int i = 0; i < 2'000; ++i) {
        expect_consistent(rng.uniform(-magnitude, magnitude), scale);
      }
    }
    // Random bit patterns: every finite double either rounds like llround
    // or is refused.
    for (int i = 0; i < 20'000; ++i) {
      expect_consistent(std::bit_cast<double>(rng()), scale);
    }
    // Log-uniform magnitudes from subnormal up to 2^63, either sign.
    for (int i = 0; i < 20'000; ++i) {
      const int exponent = static_cast<int>(rng.uniform(-1'074.0, 63.0));
      const double v = std::ldexp(rng.uniform(1.0, 2.0), exponent);
      expect_consistent(rng.chance(0.5) ? v : -v, scale);
    }
  }
}

TEST(ScaledFixedProperty, FromDoubleRefusesWhatItCannotRepresent) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const std::int64_t scale : kPropertyScales) {
    for (const double v : {nan, -nan, inf, -inf}) expect_out_of_range(v, scale);
  }
  for (const double v : {0x1p63, -0x1p63, 0x1p64, 1e19, -1e300}) {
    expect_out_of_range(v, 1);
  }
  // |v · s| >= 2^63 only after scaling.
  expect_out_of_range(9.3e12, 1'000'000);
  expect_out_of_range(-9.3e12, 1'000'000);
  expect_matches_llround(9.2e12, 1'000'000);
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

// --- the row kernel ----------------------------------------------------------

/// A rows × stride block of LSTM-range weights (|w| <= 10^6, about one in
/// five exactly zero), signed and row-major.
std::vector<std::int64_t> random_block(Rng& rng, std::size_t rows, std::size_t stride) {
  std::vector<std::int64_t> w(rows * stride);
  for (std::int64_t& v : w) {
    v = rng.uniform_int(0, 4) == 0 ? 0 : rng.uniform_int(-1'000'000, 1'000'000);
  }
  return w;
}

PackedRows pack(const InvariantScale& div, const std::vector<std::int64_t>& w,
                std::size_t rows, std::size_t stride) {
  PackedRows packed(div, rows, stride);
  for (std::size_t i = 0; i < rows; ++i) {
    packed.set_row(i, std::span(w).subspan(i * stride, stride));
  }
  return packed;
}

TEST(RowKernel, MulAddRowsMatchesTheScalarLoopOverRows) {
  // Zero operands, operands the block's x-limit accepts and operands just
  // past it, in one call; at scale 1 (no 52-bit reciprocal) every row takes
  // the scalar loop. The row stride is the column count or wider.
  const bool ifma = std::string(row_kernel_isa()) == "avx512ifma";
  Rng rng(0x5EED);
  int vector_rows = 0;
  int scalar_rows = 0;
  for (const std::int64_t scale : {std::int64_t{1}, std::int64_t{3}, std::int64_t{999'983},
                                   kPaperScale}) {
    const InvariantScale div(scale);
    for (const std::size_t rows : {0u, 1u, 8u, 40u}) {
      for (const std::size_t n : {1u, 7u, 8u, 64u, 127u, 128u, 136u}) {
        for (const std::size_t stride : {n, n + 9}) {
          const std::vector<std::int64_t> w = random_block(rng, rows, stride);
          const PackedRows packed = pack(div, w, rows, stride);
          ASSERT_EQ(packed.x_limit(), row_x_limit(div, w));
          const std::int64_t limit = packed.x_limit();
          std::vector<std::int64_t> x(rows);
          for (std::size_t i = 0; i < rows; ++i) {
            switch (i % 4) {
              case 0: x[i] = 0; break;
              case 1: x[i] = rng.uniform_int(-std::max<std::int64_t>(limit, 1),
                                             std::max<std::int64_t>(limit, 1)); break;
              case 2: x[i] = std::max<std::int64_t>(limit, 0) + rng.uniform_int(1, 1000); break;
              default: x[i] = -std::max<std::int64_t>(limit, 0) - rng.uniform_int(1, 1000);
            }
            if (x[i] == 0) continue;
            (ifma && limit >= 0 && magnitude(x[i]) <= static_cast<std::uint64_t>(limit)
                 ? vector_rows
                 : scalar_rows)++;
          }
          // Columns n..stride are a sentinel the kernel must not touch.
          std::vector<std::int64_t> acc0(stride);
          for (std::int64_t& a : acc0) a = rng.uniform_int(-(1LL << 40), 1LL << 40);
          std::vector<std::int64_t> want = acc0;
          for (std::size_t i = 0; i < rows; ++i) {
            mul_add_row_scalar(div, w.data() + i * stride, x[i], want.data(), n);
          }
          std::vector<std::int64_t> got = acc0;
          mul_add_rows(div, packed.block(), x.data(), got.data(), n);
          ASSERT_EQ(got, want) << "scale " << scale << ", " << rows << " rows, n " << n
                               << ", stride " << stride;
        }
      }
    }
  }
  EXPECT_GT(scalar_rows, 0);
  if (!ifma) GTEST_SKIP() << "this CPU lacks AVX-512 IFMA: only the scalar loop ran";
  EXPECT_GT(vector_rows, 0);
}

TEST(RowKernel, MulAddRowsThrowsWhereTheScalarLoopThrows) {
  // A product whose corrected quotient leaves int64 throws mul_raw's
  // PreconditionError; the huge weight drops the block's limit to 0, so
  // the row takes the scalar loop.
  const InvariantScale div(kPaperScale);
  const std::size_t n = 16;
  std::vector<std::int64_t> w(2 * n, 5);
  w[n + 3] = std::int64_t{1} << 62;
  const PackedRows packed = pack(div, w, 2, n);
  EXPECT_EQ(packed.x_limit(), 0);
  const std::int64_t x[2] = {7, std::int64_t{1} << 40};
  std::vector<std::int64_t> acc(n, 0);
  EXPECT_THROW(mul_add_row_scalar(div, w.data() + n, x[1], acc.data(), n),
               PreconditionError);
  EXPECT_THROW(mul_add_rows(div, packed.block(), x, acc.data(), n), PreconditionError);
}

TEST(RowKernel, PackedRowsRebuildsEverySignedWeight) {
  const InvariantScale div(kPaperScale);
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const std::vector<std::int64_t> w{0, 1, -1, kMax, kMin, 12345, -67890, 0, -5, 9};
  PackedRows packed = pack(div, w, 2, 5);
  for (std::size_t k = 0; k < w.size(); ++k) EXPECT_EQ(packed.at(k / 5, k % 5), w[k]);
  EXPECT_EQ(packed.x_limit(), 0);  // |INT64_MIN| leaves no room
  // A rewrite replaces every sign; the limit stays the block's so far.
  const std::vector<std::int64_t> flipped{0, -1, 1, -kMax, 5};
  packed.set_row(0, flipped);
  for (std::size_t c = 0; c < flipped.size(); ++c) EXPECT_EQ(packed.at(0, c), flipped[c]);
  EXPECT_EQ(packed.x_limit(), 0);
}

}  // namespace
}  // namespace csdml::fixedpt
