// Property-based fuzzing of the data structures whose correctness the
// serving path leans on hardest:
//
//   * TokenRing — the zero-copy sliding window — against a naive
//     std::deque model, over randomized push/clear streams and capacities;
//   * WindowTracker — the per-process due/deferral/migration state machine —
//     against the reference WindowModel (window_oracle.hpp), over random
//     call/enqueue/shed/verdict/defer/forget/migrate lifecycles;
//   * InvariantScale::mul — the integer-reciprocal fast path — against
//     ScaledFixed::mul_raw, the exact 128-bit oracle, over adversarial
//     ±2^k±1 operands, products on both sides of the 2^63 exact window
//     and int64 overflow, and exact ties at the window's edge;
//   * fixedpt::mul_add_rows — the row kernel, one row at a time, on every
//     divisor and tail length, either side of its per-row guard.
//
// Each runs ≥10k seeded iterations (scalable via CSDML_FUZZ_ITERS).
#include "detect/token_ring.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <iostream>
#include <limits>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "fixed/row_kernel.hpp"
#include "fixed/scaled_fixed.hpp"
#include "detect/window_tracker.hpp"
#include "fuzz_harness.hpp"
#include "invariant_scale_oracle.hpp"
#include "window_oracle.hpp"

namespace csdml {
namespace {

TEST(TokenRingProperty, MatchesDequeModelOverRandomOperations) {
  Rng rng(0xA11CE);
  const std::size_t iterations = testing::fuzz_iterations(10'000);
  std::size_t operations = 0;
  while (operations < iterations) {
    const auto capacity = static_cast<std::size_t>(rng.uniform_int(1, 9));
    detect::TokenRing ring(capacity);
    std::deque<nn::TokenId> model;
    const auto episode = static_cast<std::size_t>(rng.uniform_int(1, 64));
    for (std::size_t op = 0; op < episode; ++op, ++operations) {
      if (rng.chance(0.05)) {
        ring.clear();
        model.clear();
      } else {
        const auto token = static_cast<nn::TokenId>(rng.uniform_int(0, 1'000));
        ring.push(token);
        model.push_back(token);
        if (model.size() > capacity) model.pop_front();
      }
      ASSERT_EQ(ring.size(), model.size());
      ASSERT_EQ(ring.full(), model.size() == capacity);
      ASSERT_EQ(ring.empty(), model.empty());
      const nn::TokenSpan view = ring.view();
      ASSERT_EQ(view.size(), model.size());
      const std::vector<nn::TokenId> window(view.begin(), view.end());
      ASSERT_TRUE(std::equal(window.begin(), window.end(), model.begin()))
          << "capacity " << capacity << " after op " << op;
    }
  }
}

TEST(WindowTrackerProperty, MatchesReferenceModelOverRandomLifecycles) {
  Rng rng(0x7AC4E2);
  const std::size_t iterations = testing::fuzz_iterations(10'000);
  std::size_t operations = 0;
  while (operations < iterations) {
    // hop up to 12 over windows up to 8: hop > window is covered.
    const detect::DetectorConfig config{
        .window_length = static_cast<std::size_t>(rng.uniform_int(1, 8)),
        .hop = static_cast<std::size_t>(rng.uniform_int(1, 12)),
        .threshold = 0.5,
        .consecutive_alerts = static_cast<std::size_t>(rng.uniform_int(1, 3))};
    detect::WindowTracker tracker(config);
    testing::WindowModel model(config);
    std::size_t in_flight = 0;  // accepted windows awaiting verdict/deferral
    // Migration ledger, as the fleet keeps it.
    std::uint64_t carried = 0;
    std::uint64_t resolved = 0;
    std::uint64_t forgotten = 0;
    const auto episode = static_cast<std::size_t>(rng.uniform_int(1, 96));
    for (std::size_t op = 0; op < episode; ++op, ++operations) {
      const double roll = rng.uniform();
      if (roll < 0.6) {
        const auto token = static_cast<nn::TokenId>(rng.uniform_int(0, 1'000));
        const bool due = tracker.on_call(token, config);
        ASSERT_EQ(due, model.call(token)) << "call " << model.calls();
        if (due && rng.chance(0.25)) {  // ring full / CSD down: shed
          tracker.on_deferred(config);
          model.deferred();
        } else if (due) {
          tracker.on_enqueued();
          model.enqueued();
          ++in_flight;
        }
      } else if (roll < 0.78 && in_flight > 0) {
        --in_flight;
        const double probability = rng.uniform();
        const bool carried_in = model.migrated();
        const detect::WindowTracker::VerdictOutcome outcome =
            tracker.on_verdict(probability, config);
        ASSERT_EQ(outcome.alert, model.verdict(probability));
        ASSERT_EQ(outcome.migrated_resolved, carried_in);
        resolved += outcome.migrated_resolved ? 1 : 0;
      } else if (roll < 0.86 && in_flight > 0) {  // the batch failed
        --in_flight;
        tracker.on_deferred(config);
        model.deferred();
      } else if (roll < 0.95 && in_flight == 0) {
        // Migration happens only when quiescent (the fleet flushes first).
        const detect::WindowTracker::Snapshot snapshot = tracker.snapshot();
        ASSERT_EQ(snapshot.fresh_carry(), model.migrate());
        carried += snapshot.fresh_carry() ? 1 : 0;
        tracker = detect::WindowTracker::restore(snapshot, config);
      } else if (roll >= 0.95) {
        // Forget, then the pid comes back as a fresh process; verdicts
        // still in flight land on no tracker.
        forgotten += tracker.on_forget().migrated ? 1 : 0;
        tracker = detect::WindowTracker(config);
        model = testing::WindowModel(config);
        in_flight = 0;
      }
      ASSERT_EQ(tracker.calls_seen(), model.calls());
      const nn::TokenSpan view = tracker.window();
      ASSERT_EQ(std::vector<nn::TokenId>(view.begin(), view.end()), model.window());
      ASSERT_EQ(tracker.on_forget().deferral, model.owed()) << "op " << op;
      ASSERT_EQ(tracker.on_forget().migrated, model.migrated()) << "op " << op;
    }
    forgotten += tracker.on_forget().migrated ? 1 : 0;
    ASSERT_EQ(resolved + forgotten, carried)
        << "window " << config.window_length << " hop " << config.hop;
  }
}

std::vector<std::int64_t> adversarial_operands() {
  // ±2^k, ±(2^k ± 1): the values where a reciprocal is most likely to land
  // on the wrong side of a rounding boundary. Pairs of them give products
  // from 0 through the 2^62–2^63 edge of InvariantScale's exact window to
  // int64 overflow, and the int64 extremes on their own.
  std::vector<std::int64_t> values{0, 1, -1, 2, -2,
                                   std::numeric_limits<std::int64_t>::max(),
                                   std::numeric_limits<std::int64_t>::min(),
                                   std::numeric_limits<std::int64_t>::min() + 1};
  std::vector<int> exponents;
  for (int k = 2; k <= 31; ++k) exponents.push_back(k);
  exponents.insert(exponents.end(), {32, 33, 40, 47, 52, 53, 60, 61, 62});
  for (const int k : exponents) {
    const std::int64_t p = std::int64_t{1} << k;
    for (const std::int64_t v : {p - 1, p, p + 1}) {
      values.push_back(v);
      values.push_back(-v);
    }
  }
  return values;
}

TEST(InvariantScaleProperty, MulMatchesExactOracleOnAdversarialOperands) {
  const std::vector<std::int64_t> operands = adversarial_operands();
  for (const std::int64_t scale : testing::invariant_scale_divisors()) {
    const fixedpt::InvariantScale inv(scale);
    for (const std::int64_t a : operands) {
      for (const std::int64_t b : operands) {
        ASSERT_TRUE(testing::mul_matches_oracle(inv, a, b));
      }
    }
  }
}

TEST(InvariantScaleProperty, MulMatchesExactOracleOnRandomOperands) {
  Rng rng(0xF1D0);
  const fixedpt::InvariantScale paper(fixedpt::kPaperScale);
  const std::size_t iterations = testing::fuzz_iterations(10'000);
  for (std::size_t i = 0; i < iterations; ++i) {
    // LSTM-magnitude raw values (|x| ≲ 10^3 at scale 10^6 → raw ≲ 10^9),
    // stretched another order of magnitude, at the scale production uses.
    const std::int64_t a = rng.uniform_int(-10'000'000'000, 10'000'000'000);
    const std::int64_t b = rng.uniform_int(-10'000'000'000, 10'000'000'000);
    ASSERT_TRUE(testing::mul_matches_oracle(paper, a, b));
  }
  // Then every divisor, with operands of random bit width, whose products
  // cover every magnitude up to int64 overflow.
  const std::vector<std::int64_t> scales = testing::invariant_scale_divisors();
  for (std::size_t i = 0; i < iterations; ++i) {
    const fixedpt::InvariantScale inv(scales[i % scales.size()]);
    const std::int64_t wa = std::int64_t{1} << rng.uniform_int(0, 62);
    const std::int64_t wb = std::int64_t{1} << rng.uniform_int(0, 62);
    const std::int64_t a = rng.uniform_int(-wa, wa);
    const std::int64_t b = rng.uniform_int(-wb, wb);
    ASSERT_TRUE(testing::mul_matches_oracle(inv, a, b));
  }
}

TEST(InvariantScaleProperty, MulMatchesExactOracleAtTheWindowEdge) {
  // n = |a·b| + scale/2 is exact below 2^63 and falls back from 2^63 on.
  // Probe n = 2^63 - 1, n = 2^63, and products q·s + s/2 ± 1 (for even s,
  // exact ties that round away from zero to q + 1) up to the largest
  // in-window quotient, for both signs and with a·b split over two factors.
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  for (const std::int64_t scale : testing::invariant_scale_divisors()) {
    const fixedpt::InvariantScale inv(scale);
    const std::int64_t half = scale / 2;
    std::vector<std::int64_t> products{kMax - half, kMax, 1, half, half + 1, scale};
    if (half > 0) products.push_back(kMax - half + 1);  // n = 2^63
    const std::int64_t top = (kMax - half) / scale;  // largest in-window q
    for (const std::int64_t q : {top - 2, top - 1, top, std::int64_t{1},
                                 std::int64_t{12'345}}) {
      if (q < 0 || q > top) continue;
      const std::int64_t tie = q * scale + half;
      if (tie > 0) products.push_back(tie - 1);
      products.push_back(tie);
      if (tie < kMax) products.push_back(tie + 1);
    }
    for (const std::int64_t p : products) {
      for (const std::int64_t sign : {1, -1}) {
        ASSERT_TRUE(testing::mul_matches_oracle(inv, sign, p));
        ASSERT_TRUE(testing::mul_matches_oracle(inv, p, sign));
        if (p % 2 == 0) {
          ASSERT_TRUE(testing::mul_matches_oracle(inv, 2 * sign, p / 2));
        }
        if (p % 3 == 0) {
          ASSERT_TRUE(testing::mul_matches_oracle(inv, p / 3, -3 * sign));
        }
      }
    }
    // Ties round away from zero, like round_div.
    if (scale % 2 == 0) {
      EXPECT_EQ(inv.mul(1, top * scale + half), top + 1) << scale;
      EXPECT_EQ(inv.mul(-1, top * scale + half), -(top + 1)) << scale;
    }
  }
}

TEST(InvariantScaleProperty, Reciprocal52IsExactBelow2To52) {
  // The row kernel's vector body computes (hi52(n·m') + n) >> l. Check that
  // formula in scalar code, so it is verified on every CPU: m' < 2^52, and
  // it equals n / s at 0, at exact multiples and ties and their
  // neighbours, at 2^52 - 1, and at random n below 2^52.
  constexpr std::uint64_t kTop = (std::uint64_t{1} << 52) - 1;
  Rng rng(0x52);
  for (const std::int64_t scale : testing::invariant_scale_divisors()) {
    const fixedpt::InvariantScale inv(scale);
    ASSERT_EQ(inv.has_reciprocal52(), scale >= 2 && scale <= (1LL << 52)) << scale;
    if (!inv.has_reciprocal52()) continue;
    ASSERT_LT(inv.magic52(), std::uint64_t{1} << 52) << scale;
    const auto s = static_cast<std::uint64_t>(scale);
    std::vector<std::uint64_t> numerators{0, 1, kTop, kTop - 1, s - 1, s, s + 1};
    for (const std::uint64_t q : {std::uint64_t{1}, kTop / s - 1, kTop / s}) {
      for (const std::uint64_t base : {q * s, q * s + s / 2}) {
        numerators.insert(numerators.end(), {base - 1, base, base + 1});
      }
    }
    for (int i = 0; i < 1000; ++i) {
      numerators.push_back(static_cast<std::uint64_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(kTop))));
    }
    for (const std::uint64_t n : numerators) {
      if (n > kTop) continue;
      const auto hi = static_cast<std::uint64_t>(
          (static_cast<unsigned __int128>(n) * inv.magic52()) >> 52);
      ASSERT_EQ((hi + n) >> inv.shift52(), n / s) << "n " << n << " / " << scale;
    }
  }
}

TEST(InvariantScaleProperty, RowKernelMatchesMulOnEveryDivisor) {
  const bool ifma = std::string_view(fixedpt::row_kernel_isa()) == "avx512ifma";
  std::cout << "row kernel: " << fixedpt::row_kernel_isa() << "\n";
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  Rng rng(0x1F3A);
  // Checks the kernel on the row staged as a one-row block, whose limit
  // (the guard that picks the body) must be row_x_limit over the row.
  const auto check = [&](const fixedpt::InvariantScale& inv,
                         const std::vector<std::int64_t>& w, std::int64_t x) {
    fixedpt::PackedRows packed(inv, 1, w.size());
    packed.set_row(0, w);
    ASSERT_EQ(packed.x_limit(), fixedpt::row_x_limit(inv, w));
    // Random accumulators, except where a product near int64's edge would
    // make the sum itself overflow; there the accumulator starts at 0.
    std::vector<std::int64_t> acc0(w.size());
    for (std::size_t c = 0; c < w.size(); ++c) {
      std::int64_t product = 0;
      const bool small = !__builtin_mul_overflow(w[c], x, &product) &&
                         fixedpt::magnitude(product) < (std::uint64_t{1} << 62);
      acc0[c] = small ? rng.uniform_int(-(1LL << 40), 1LL << 40) : 0;
    }
    ASSERT_TRUE(testing::row_matches_oracle(inv, w, x, acc0, [&](std::int64_t* acc) {
      fixedpt::mul_add_rows(inv, packed.block(), &x, acc, w.size());
    }));
  };

  for (const std::int64_t scale : testing::invariant_scale_divisors()) {
    const fixedpt::InvariantScale inv(scale);
    for (std::size_t width = 1; width <= 135; ++width) {
      // Weights of a random bit width up to 2^51, so the row's x_limit
      // ranges from 0 to the whole 52-bit window; every tail length 0–7.
      const std::int64_t bound = std::int64_t{1} << rng.uniform_int(0, 51);
      std::vector<std::int64_t> w(width);
      for (std::int64_t& v : w) v = rng.uniform_int(-bound, bound);
      const std::int64_t limit = fixedpt::row_x_limit(inv, w);
      for (const std::int64_t x :
           {std::int64_t{0}, limit, -limit, limit + 1, -(limit + 1),
            limit < 1 ? 1 : rng.uniform_int(-limit, limit), kMin, kMax}) {
        check(inv, w, x);
      }
      // Rows holding the int64 extremes: x_limit is 0, so only x == 0 may
      // take the vector body, and every other x must throw like mul_raw.
      std::vector<std::int64_t> extreme = w;
      extreme[rng.uniform_int(0, static_cast<std::int64_t>(width) - 1)] = kMin;
      extreme[rng.uniform_int(0, static_cast<std::int64_t>(width) - 1)] = kMax;
      for (const std::int64_t x : {std::int64_t{0}, std::int64_t{1}, std::int64_t{-1},
                                   std::int64_t{2}, std::int64_t{-3}, kMin}) {
        check(inv, extreme, x);
      }
    }
    // Exact ties at the top of the 52-bit window: a row of ±1 against
    // x = q·s + s/2 (and ±1) for the largest q the guard admits.
    std::vector<std::int64_t> unit(11);
    for (std::size_t c = 0; c < unit.size(); ++c) unit[c] = c % 2 == 0 ? 1 : -1;
    const std::int64_t limit = fixedpt::row_x_limit(inv, unit);
    if (limit <= inv.scale()) continue;
    const std::int64_t half = scale / 2;
    const std::int64_t top = (limit - half) / scale;
    for (const std::int64_t q : {std::int64_t{0}, std::int64_t{1}, top - 1, top}) {
      for (const std::int64_t delta : {-1, 0, 1}) {
        const std::int64_t x = q * scale + half + delta;
        check(inv, unit, x);
        check(inv, unit, -x);
      }
    }
  }
  if (!ifma) {
    GTEST_SKIP() << "this CPU lacks AVX-512 IFMA: only the scalar row kernel ran";
  }
}

}  // namespace
}  // namespace csdml
