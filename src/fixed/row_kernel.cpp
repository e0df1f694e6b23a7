#include "fixed/row_kernel.hpp"

#include <algorithm>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace csdml::fixedpt {

namespace {

bool use_ifma() {
#if defined(__x86_64__)
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512ifma");
  }();
  return supported;
#else
  return false;
#endif
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

void mul_add_row_scalar(const InvariantScale& div, const std::int64_t* w,
                        std::int64_t x, std::int64_t* acc, std::size_t n) {
  for (std::size_t c = 0; c < n; ++c) acc[c] += div.mul(w[c], x);
}

#if defined(__x86_64__)

namespace {

// The zero-masking forms with every lane selected: GCC 12's unmasked
// vpabsq/vpsrlq intrinsics trip -Wmaybe-uninitialized in its own headers.
constexpr __mmask8 kAllLanes = 0xFF;

/// Eight lanes of acc + mul(w, x). n = |w|·|x| + s/2 < 2^52 is exact in
/// vpmadd52luq; q = (hi52(n·m') + n) >> l is floor(n / s); q is negated
/// in the lanes where w·x is negative, as InvariantScale::mul does.
__attribute__((target("avx512f,avx512ifma"), always_inline)) inline __m512i
mul_add8(__m512i w, __m512i acc, __m512i x, __m512i abs_x, __m512i half,
         __m512i magic, __m128i shift) {
  const __m512i zero = _mm512_setzero_si512();
  const __m512i abs_w = _mm512_maskz_abs_epi64(kAllLanes, w);
  const __m512i n = _mm512_madd52lo_epu64(half, abs_w, abs_x);
  const __m512i q =
      _mm512_maskz_srl_epi64(kAllLanes, _mm512_madd52hi_epu64(n, n, magic), shift);
  const __mmask8 negative = _mm512_cmplt_epi64_mask(_mm512_xor_si512(w, x), zero);
  return _mm512_add_epi64(acc, _mm512_mask_sub_epi64(q, negative, zero, q));
}

}  // namespace

__attribute__((target("avx512f,avx512ifma"))) void mul_add_row_ifma(
    const InvariantScale& div, const std::int64_t* w, std::int64_t x,
    std::int64_t* acc, std::size_t n) {
  const __m512i vx = _mm512_set1_epi64(x);
  const __m512i abs_x = _mm512_set1_epi64(static_cast<std::int64_t>(magnitude(x)));
  const __m512i half = _mm512_set1_epi64(static_cast<std::int64_t>(div.half()));
  const __m512i magic = _mm512_set1_epi64(static_cast<std::int64_t>(div.magic52()));
  const __m128i shift = _mm_cvtsi64_si128(div.shift52());
  std::size_t c = 0;
  for (; c + 8 <= n; c += 8) {
    const __m512i wv = _mm512_loadu_si512(w + c);
    const __m512i av = _mm512_loadu_si512(acc + c);
    _mm512_storeu_si512(acc + c, mul_add8(wv, av, vx, abs_x, half, magic, shift));
  }
  if (c < n) {
    const auto tail = static_cast<__mmask8>((1u << (n - c)) - 1);
    const __m512i wv = _mm512_maskz_loadu_epi64(tail, w + c);
    const __m512i av = _mm512_maskz_loadu_epi64(tail, acc + c);
    _mm512_mask_storeu_epi64(acc + c, tail,
                             mul_add8(wv, av, vx, abs_x, half, magic, shift));
  }
}

#endif

void mul_add_row(const InvariantScale& div, const std::int64_t* w, std::int64_t x,
                 std::int64_t x_limit, std::int64_t* acc, std::size_t n) {
#if defined(__x86_64__)
  // x_limit < 0 rejects every x; otherwise -x_limit cannot overflow.
  if (-x_limit <= x && x <= x_limit && use_ifma()) {
    mul_add_row_ifma(div, w, x, acc, n);
    return;
  }
#else
  (void)x_limit;
#endif
  mul_add_row_scalar(div, w, x, acc, n);
}

const char* row_kernel_isa() { return use_ifma() ? "avx512ifma" : "scalar"; }

}  // namespace csdml::fixedpt
