// Differential oracle for fixedpt::InvariantScale: every `mul(a, b)` must
// equal ScaledFixed::mul_raw(a, b, scale), the exact 128-bit round_div, and
// must throw PreconditionError wherever mul_raw does (quotient overflow).
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "fixed/scaled_fixed.hpp"

namespace csdml::testing {

inline ::testing::AssertionResult mul_matches_oracle(
    const fixedpt::InvariantScale& inv, std::int64_t a, std::int64_t b) {
  std::int64_t want = 0;
  bool oracle_throws = false;
  try {
    want = fixedpt::ScaledFixed::mul_raw(a, b, inv.scale());
  } catch (const PreconditionError&) {
    oracle_throws = true;
  }
  std::int64_t got = 0;
  bool throws = false;
  try {
    got = inv.mul(a, b);
  } catch (const PreconditionError&) {
    throws = true;
  }
  if (throws == oracle_throws && got == want) return ::testing::AssertionSuccess();
  auto failure = ::testing::AssertionFailure()
                 << a << " * " << b << " / " << inv.scale() << ": ";
  if (oracle_throws) return failure << "mul_raw throws, mul gave " << got;
  if (throws) return failure << "mul throws, mul_raw gave " << want;
  return failure << "mul gave " << got << ", mul_raw gave " << want;
}

/// Runs `body(acc)`, a row kernel meant to do acc[c] += mul(w[c], x) for
/// every c, on a copy of `acc0`, and checks it against the same loop over
/// mul_raw: equal results, and a throw exactly when some mul_raw throws.
/// Each element's InvariantScale::mul up to the first throw is checked
/// against mul_raw too.
template <class Body>
::testing::AssertionResult row_matches_oracle(const fixedpt::InvariantScale& inv,
                                              const std::vector<std::int64_t>& w,
                                              std::int64_t x,
                                              const std::vector<std::int64_t>& acc0,
                                              Body&& body) {
  std::vector<std::int64_t> want = acc0;
  bool oracle_throws = false;
  for (std::size_t c = 0; c < w.size(); ++c) {
    if (auto element = mul_matches_oracle(inv, w[c], x); !element) return element;
    try {
      want[c] += fixedpt::ScaledFixed::mul_raw(w[c], x, inv.scale());
    } catch (const PreconditionError&) {
      oracle_throws = true;
      break;
    }
  }
  std::vector<std::int64_t> got = acc0;
  bool throws = false;
  try {
    body(got.data());
  } catch (const PreconditionError&) {
    throws = true;
  }
  auto failure = ::testing::AssertionFailure()
                 << "row of " << w.size() << " times " << x << " / " << inv.scale()
                 << ": ";
  if (throws != oracle_throws) {
    return failure << (throws ? "kernel throws, mul_raw does not"
                              : "mul_raw throws, kernel does not");
  }
  if (throws) return ::testing::AssertionSuccess();
  for (std::size_t c = 0; c < w.size(); ++c) {
    if (got[c] != want[c]) {
      return failure << "column " << c << " (w = " << w[c] << ") gave " << got[c]
                     << ", mul_raw gave " << want[c];
    }
  }
  return ::testing::AssertionSuccess();
}

/// Divisors that stress the reciprocal: 1 (always mul_raw), 2, 3, 1000,
/// powers of two and their neighbours (where l = ceil(log2 s) steps), a
/// prime near the paper's scale, the paper's scale, 10^9, and scales up to
/// INT64_MAX, where the shift reaches 62.
inline std::vector<std::int64_t> invariant_scale_divisors() {
  std::vector<std::int64_t> scales{1,         2,         3,         1000,
                                   999'983,   1'000'000, 1'000'000'000,
                                   std::numeric_limits<std::int64_t>::max()};
  for (const int k : {2, 10, 20, 31, 40, 62}) {
    const std::int64_t p = std::int64_t{1} << k;
    scales.insert(scales.end(), {p - 1, p, p + 1});
  }
  return scales;
}

}  // namespace csdml::testing
