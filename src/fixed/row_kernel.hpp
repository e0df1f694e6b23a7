// The fixed-point row kernel: acc[c] += div.mul(w[c], x) for c in [0, n).
//
// This is the one inner loop of the fused fixed datapath: the token-table
// build (a packed W_x row against one embedding element) and the recurrent
// pass (a packed W_h row against one h element) both accumulate a
// unit-stride weight row scaled by one operand. On x86-64 CPUs with
// AVX-512 IFMA it runs eight products per instruction through the 52-bit
// invariant-divisor reciprocal (InvariantScale::magic52); everywhere else,
// and for every call its guard rejects, it is the loop of scalar
// InvariantScale::mul. Both bodies are bit-identical to that loop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "fixed/scaled_fixed.hpp"

namespace csdml::fixedpt {

/// Largest |x| for which every product of a weight of magnitude at most
/// `max_w` stays inside the vector body's exact window,
/// |w|·|x| + scale/2 < 2^52: (2^52 - 1 - scale/2) / max(max_w, 1). -1 when
/// the divisor has no 52-bit reciprocal (scale 1 or above 2^52), so every
/// call takes the scalar loop. Weight staging takes max_w while it scales.
std::int64_t x_limit_for_max(const InvariantScale& div, std::uint64_t max_w);

/// x_limit_for_max over the largest |w[c]|.
std::int64_t row_x_limit(const InvariantScale& div, std::span<const std::int64_t> w);

/// acc[c] += div.mul(w[c], x) for c in [0, n), bit-identical to that loop
/// and throwing where it throws. `x_limit` is row_x_limit over a matrix
/// that holds the row: a call with |x| <= x_limit takes the vector body,
/// any other takes the scalar loop.
void mul_add_row(const InvariantScale& div, const std::int64_t* w, std::int64_t x,
                 std::int64_t x_limit, std::int64_t* acc, std::size_t n);

/// The scalar body: the loop of InvariantScale::mul. Fallback and oracle.
void mul_add_row_scalar(const InvariantScale& div, const std::int64_t* w,
                        std::int64_t x, std::int64_t* acc, std::size_t n);

#if defined(__x86_64__)
/// The AVX-512 IFMA body. Requires a CPU with avx512f and avx512ifma and
/// |x| <= row_x_limit(div, w[0..n)) >= 0; mul_add_row checks both.
void mul_add_row_ifma(const InvariantScale& div, const std::int64_t* w,
                      std::int64_t x, std::int64_t* acc, std::size_t n);
#endif

/// The body mul_add_row takes when its guard passes: "avx512ifma" or
/// "scalar". Detected once, on first use.
const char* row_kernel_isa();

}  // namespace csdml::fixedpt
