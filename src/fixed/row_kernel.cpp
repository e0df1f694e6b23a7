#include "fixed/row_kernel.hpp"

#include <algorithm>
#include <type_traits>

#include "common/error.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace csdml::fixedpt {

namespace {

bool use_ifma() {
#if defined(__x86_64__)
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq") &&
           __builtin_cpu_supports("avx512ifma");
  }();
  return supported;
#else
  return false;
#endif
}

/// The signed weight at (i, c) of `w`, rebuilt from |w| and its w < 0 bit.
std::int64_t weight_at(const RowBlock& w, std::size_t i, std::size_t c) {
  const std::uint64_t m = w.magnitude[i * w.stride + c];
  const std::uint64_t neg = (w.sign[i * sign_bytes(w.stride) + c / 8] >> (c % 8)) & 1u;
  return static_cast<std::int64_t>((m ^ (0 - neg)) + neg);
}

}  // namespace

std::int64_t x_limit_for_max(const InvariantScale& div, std::uint64_t max_w) {
  if (!div.has_reciprocal52()) return -1;
  const std::uint64_t room = ((std::uint64_t{1} << 52) - 1) - div.half();
  return static_cast<std::int64_t>(room / std::max<std::uint64_t>(max_w, 1));
}

std::int64_t row_x_limit(const InvariantScale& div, std::span<const std::int64_t> w) {
  std::uint64_t max_w = 0;
  for (const std::int64_t v : w) max_w = std::max(max_w, magnitude(v));
  return x_limit_for_max(div, max_w);
}

PackedRows::PackedRows(const InvariantScale& div, std::size_t rows, std::size_t cols)
    : magnitude_(rows * cols),
      sign_(rows * sign_bytes(cols)),
      rows_(rows),
      cols_(cols),
      room_(x_limit_for_max(div, 1)),
      x_limit_(room_) {}

void PackedRows::set_row(std::size_t i, std::span<const std::int64_t> w) {
  const std::size_t cols = cols_;
  CSDML_REQUIRE(i < rows_ && w.size() == cols, "packed rows: bad row");
  std::uint64_t* magnitude_row = magnitude_.data() + i * cols;
  std::uint8_t* negative = sign_.data() + i * sign_bytes(cols);
  std::uint8_t* positive = negative + sign_bytes(cols) / 2;
  std::uint64_t max_w = max_w_;
  for (std::size_t c0 = 0; c0 < cols; c0 += 8) {
    // Each group's mask bits, shifted in from its last column down.
    std::uint64_t neg = 0;
    std::uint64_t pos = 0;
    for (std::size_t c = std::min(c0 + 8, cols); c-- > c0;) {
      const std::uint64_t m = magnitude(w[c]);
      magnitude_row[c] = m;
      max_w = std::max(max_w, m);
      neg = (neg << 1) | (static_cast<std::uint64_t>(w[c]) >> 63);
      pos = (pos << 1) | static_cast<std::uint64_t>(w[c] > 0);
    }
    negative[c0 / 8] = static_cast<std::uint8_t>(neg);
    positive[c0 / 8] = static_cast<std::uint8_t>(pos);
  }
  if (max_w > max_w_) {
    max_w_ = max_w;
    if (room_ >= 0) {
      x_limit_ = static_cast<std::int64_t>(static_cast<std::uint64_t>(room_) / max_w);
    }
  }
}

std::int64_t PackedRows::at(std::size_t i, std::size_t c) const {
  return weight_at(block(), i, c);
}

void mul_add_row_scalar(const InvariantScale& div, const std::int64_t* w,
                        std::int64_t x, std::int64_t* acc, std::size_t n) {
  for (std::size_t c = 0; c < n; ++c) acc[c] += div.mul(w[c], x);
}

#if defined(__x86_64__)

namespace {

// The zero-masking forms with every lane selected: GCC 12's unmasked
// vpsrlvq intrinsic trips -Wmaybe-uninitialized in its own headers.
constexpr __mmask8 kAllLanes = 0xFF;

/// V column vectors (8·V columns, the last one masked to `tail`) of
/// mul_add_rows' vector body, for every row its guard passes. The V
/// accumulators stay in registers across the rows. Per lane,
/// n = |w|·|x| + s/2 < 2^52 is exact in vpmadd52luq, and
/// q = (hi52(n·m') + n) >> l is floor(n / s); q is negated in the lanes
/// the row's staged sign mask for the sign of x selects, as
/// InvariantScale::mul does. `w`, `acc` and the sign masks start at the
/// block's first column.
template <std::size_t V>
__attribute__((target("avx512f,avx512dq,avx512ifma"))) void mul_add_vectors(
    const InvariantScale& div, const std::uint64_t* w, const std::uint8_t* sign,
    std::size_t rows, std::size_t stride, std::uint64_t x_limit, const std::int64_t* x,
    std::int64_t* acc, __mmask8 tail) {
  const __m512i zero = _mm512_setzero_si512();
  const __m512i half = _mm512_set1_epi64(static_cast<std::int64_t>(div.half()));
  const __m512i magic = _mm512_set1_epi64(static_cast<std::int64_t>(div.magic52()));
  const __m512i shift = _mm512_set1_epi64(div.shift52());
  const std::size_t pitch = sign_bytes(stride);
  __m512i sum[V];
#pragma GCC unroll 16
  for (std::size_t v = 0; v < V; ++v) {
    sum[v] = v + 1 < V ? _mm512_loadu_si512(acc + 8 * v)
                       : _mm512_maskz_loadu_epi64(tail, acc + 8 * v);
  }
  for (std::size_t i = 0; i < rows; ++i) {
    const std::uint64_t abs_x = magnitude(x[i]);
    if (abs_x == 0 || abs_x > x_limit) continue;
    const __m512i vx = _mm512_set1_epi64(static_cast<std::int64_t>(abs_x));
    const std::uint64_t* row = w + i * stride;
    const std::uint8_t* negative = sign + i * pitch + (x[i] < 0 ? pitch / 2 : 0);
#pragma GCC unroll 16
    for (std::size_t v = 0; v < V; ++v) {
      const __m512i wv = v + 1 < V ? _mm512_loadu_si512(row + 8 * v)
                                   : _mm512_maskz_loadu_epi64(tail, row + 8 * v);
      const __m512i n = _mm512_madd52lo_epu64(half, wv, vx);
      const __m512i q =
          _mm512_maskz_srlv_epi64(kAllLanes, _mm512_madd52hi_epu64(n, n, magic), shift);
      const __mmask8 neg = _load_mask8(const_cast<__mmask8*>(negative + v));
      sum[v] = _mm512_add_epi64(sum[v], _mm512_mask_sub_epi64(q, neg, zero, q));
    }
  }
#pragma GCC unroll 16
  for (std::size_t v = 0; v < V; ++v) {
    if (v + 1 < V) {
      _mm512_storeu_si512(acc + 8 * v, sum[v]);
    } else {
      _mm512_mask_storeu_epi64(acc + 8 * v, tail, sum[v]);
    }
  }
}

/// The vector body over columns [0, n): blocks of 16 vectors, then the
/// remainder's vectors in blocks of 8, 4, 2 and 1, the last one masked.
void mul_add_rows_ifma(const InvariantScale& div, const RowBlock& w,
                       const std::int64_t* x, std::int64_t* acc, std::size_t n) {
  const auto limit = static_cast<std::uint64_t>(w.x_limit);
  const auto tail = static_cast<__mmask8>(n % 8 == 0 ? kAllLanes : (1u << (n % 8)) - 1);
  std::size_t vectors = (n + 7) / 8;
  std::size_t c = 0;
  const auto take = [&](auto width) {
    constexpr std::size_t kV = decltype(width)::value;
    vectors -= kV;
    mul_add_vectors<kV>(div, w.magnitude + c, w.sign + c / 8, w.rows, w.stride, limit, x,
                        acc + c, vectors == 0 ? tail : kAllLanes);
    c += 8 * kV;
  };
  while (vectors > 16) take(std::integral_constant<std::size_t, 16>{});
  if (vectors & 16) take(std::integral_constant<std::size_t, 16>{});
  if (vectors & 8) take(std::integral_constant<std::size_t, 8>{});
  if (vectors & 4) take(std::integral_constant<std::size_t, 4>{});
  if (vectors & 2) take(std::integral_constant<std::size_t, 2>{});
  if (vectors & 1) take(std::integral_constant<std::size_t, 1>{});
}

}  // namespace

#endif

void mul_add_rows(const InvariantScale& div, const RowBlock& w, const std::int64_t* x,
                  std::int64_t* acc, std::size_t n) {
  CSDML_REQUIRE(n <= w.stride, "row kernel: more columns than the block's stride");
  // x_limit < 0 rejects every row, so the vector body has nothing to do.
  const bool vector = w.x_limit >= 0 && use_ifma();
#if defined(__x86_64__)
  if (vector) mul_add_rows_ifma(div, w, x, acc, n);
#endif
  const std::uint64_t limit = vector ? static_cast<std::uint64_t>(w.x_limit) : 0;
  for (std::size_t i = 0; i < w.rows; ++i) {
    const std::int64_t xi = x[i];
    if (xi == 0 || magnitude(xi) <= limit) continue;  // zero, or done above
    for (std::size_t c = 0; c < n; ++c) acc[c] += div.mul(weight_at(w, i, c), xi);
  }
}

const char* row_kernel_isa() { return use_ifma() ? "avx512ifma" : "scalar"; }

}  // namespace csdml::fixedpt
