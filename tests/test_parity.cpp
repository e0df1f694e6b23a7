// The fused table-driven datapaths exist purely for speed: every one of
// them must be indistinguishable from the seed's stage-by-stage reference
// loops. Fixed-point paths are bit-identical (integer arithmetic is exact
// under the fusion's reordering); the float path preserves the reference
// accumulation order, so it too must match to the last bit.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "csd/smartssd.hpp"
#include "fixed/row_kernel.hpp"
#include "kernels/engine.hpp"
#include "kernels/functional.hpp"
#include "nn/lstm.hpp"
#include "xrt/runtime.hpp"
#include "invariant_scale_oracle.hpp"

namespace csdml::kernels {
namespace {

nn::Sequence random_sequence(std::uint64_t seed, nn::TokenId vocab,
                             int length) {
  Rng rng(seed);
  nn::Sequence seq;
  for (int i = 0; i < length; ++i) {
    seq.push_back(static_cast<nn::TokenId>(rng.uniform_int(0, vocab - 1)));
  }
  return seq;
}

/// A few deliberately awkward shapes: default, odd hidden width, wide
/// embedding, single-unit corner.
std::vector<nn::LstmConfig> lstm_shapes() {
  std::vector<nn::LstmConfig> shapes(4);
  shapes[1].vocab_size = 53;
  shapes[1].embed_dim = 7;
  shapes[1].hidden_dim = 19;
  shapes[2].vocab_size = 31;
  shapes[2].embed_dim = 24;
  shapes[2].hidden_dim = 5;
  shapes[2].activation = nn::CellActivation::Tanh;
  shapes[3].vocab_size = 9;
  shapes[3].embed_dim = 1;
  shapes[3].hidden_dim = 1;
  return shapes;
}

TEST(FusedParity, InvariantScaleDividerMatchesMulRaw) {
  using fixedpt::InvariantScale;
  for (const std::int64_t scale : testing::invariant_scale_divisors()) {
    const InvariantScale div(scale);
    Rng rng(static_cast<std::uint64_t>(scale));
    for (int trial = 0; trial < 20000; ++trial) {
      // Mix magnitudes: tiny, LSTM-typical, and products up to 2^62.
      const std::int64_t lim =
          trial % 3 == 0 ? 100 : (trial % 3 == 1 ? 2'000'000 : (1LL << 31));
      const std::int64_t a = rng.uniform_int(-lim, lim);
      const std::int64_t b = rng.uniform_int(-lim, lim);
      ASSERT_TRUE(testing::mul_matches_oracle(div, a, b));
    }
    for (int trial = 0; trial < 5000; ++trial) {
      // A full-range int64 times a small factor: the products straddle the
      // 2^63 exact window or overflow, so both sides must take (or throw
      // like) mul_raw.
      constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
      const std::int64_t a = rng.uniform_int(-kMax, kMax);
      const std::int64_t b = rng.uniform_int(-4, 4);
      ASSERT_TRUE(testing::mul_matches_oracle(div, a, b));
    }
    // Exact ties round away from zero, like round_div.
    EXPECT_EQ(div.mul(1, scale / 2 + scale % 2), 1);
    EXPECT_EQ(div.mul(-1, scale / 2 + scale % 2), -1);
  }
}

TEST(FusedParity, FloatBitIdenticalToReference) {
  std::uint64_t model_seed = 100;
  for (const nn::LstmConfig& config : lstm_shapes()) {
    Rng rng(model_seed++);
    const nn::LstmParams params = nn::LstmParams::glorot(config, rng);
    const FloatDatapath path(config, params);
    FloatScratch scratch;
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
      const nn::Sequence seq =
          random_sequence(seed, config.vocab_size, 40 + static_cast<int>(seed));
      const double reference = path.infer_reference(seq);
      EXPECT_EQ(path.infer(seq), reference);
      // Scratch reuse across differently-sized calls must not change bits.
      EXPECT_EQ(path.infer(seq, scratch), reference);
    }
  }
}

/// Staging scales for the fixed parity tests: degenerate (1, 3), a prime
/// near the paper's, the paper's 10^6, and 10^9, whose staging products
/// are 10^6 times larger and approach InvariantScale's 2^63 window.
constexpr std::array<std::int64_t, 5> kStagingScales{1, 3, 999'983, 1'000'000,
                                                     1'000'000'000};

TEST(FusedParity, FixedBitIdenticalToReference) {
  std::uint64_t model_seed = 200;
  for (const nn::LstmConfig& config : lstm_shapes()) {
    Rng rng(model_seed++);
    const nn::LstmParams params = nn::LstmParams::glorot(config, rng);
    for (const std::int64_t scale : kStagingScales) {
      const FixedDatapath path(config, params, scale);
      FixedScratch scratch;
      for (std::uint64_t seed = 0; seed < 8; ++seed) {
        const nn::Sequence seq =
            random_sequence(seed, config.vocab_size, 40 + static_cast<int>(seed));
        const double reference = path.infer_reference(seq);
        EXPECT_EQ(path.infer(seq), reference) << "scale " << scale;
        EXPECT_EQ(path.infer(seq, scratch), reference) << "scale " << scale;
      }
    }
  }
}

/// fixedpt::row_x_limit over every W_x and W_h weight scaled for `div`,
/// computed independently of the staging.
std::int64_t block_limit(const nn::LstmParams& params, const fixedpt::InvariantScale& div) {
  std::vector<std::int64_t> raw;
  for (const auto* half : {&params.w_x, &params.w_h}) {
    for (const nn::Matrix& w : *half) {
      for (std::size_t k = 0; k < w.size(); ++k) {
        raw.push_back(fixedpt::ScaledFixed::from_double(w.data()[k], div.scale()).raw());
      }
    }
  }
  return fixedpt::row_x_limit(div, raw);
}

/// Sets one recurrent weight so large that fixedpt::row_x_limit over the
/// packed [W_x; W_h] block falls to `fraction`·scale: operands below that
/// take the row kernel's vector body, larger ones its scalar loop.
/// Returns the limit.
std::int64_t pin_recurrent_limit(nn::LstmParams& params, std::int64_t scale,
                                 double fraction) {
  const double room = std::ldexp(1.0, 52) - 1.0 - static_cast<double>(scale / 2);
  params.w_h[0](0, 0) = room / (fraction * static_cast<double>(scale)) /
                        static_cast<double>(scale);
  return block_limit(params, fixedpt::InvariantScale(scale));
}

TEST(FixedStaging, RecurrentLimitIsRowXLimitOfThePackedBlock) {
  // Staging takes the joint block's limit from the largest magnitude it
  // writes while it scales W_x and W_h; a second pass over every scaled
  // weight must agree, wherever in either half that magnitude sits.
  nn::LstmConfig config;
  Rng rng(402);
  const nn::LstmParams glorot = nn::LstmParams::glorot(config, rng);
  for (const std::int64_t scale : kStagingScales) {
    const fixedpt::InvariantScale div(scale);
    const FixedTables tables = build_fixed_tables(glorot, div);
    EXPECT_EQ(tables.w_xh.x_limit(), block_limit(glorot, div)) << "scale " << scale;
  }
  const fixedpt::InvariantScale div(fixedpt::kPaperScale);
  nn::LstmParams pinned = glorot;
  const std::int64_t limit = pin_recurrent_limit(pinned, div.scale(), 0.02);
  const double big = pinned.w_h[0](0, 0);
  for (std::size_t g = 0; g < nn::kNumGates; ++g) {
    nn::LstmParams in_x = glorot;
    in_x.w_x[g](config.embed_dim - 1, config.hidden_dim - 1) = big;
    EXPECT_EQ(build_fixed_tables(in_x, div).w_xh.x_limit(), limit) << "W_x gate " << g;
    nn::LstmParams in_h = glorot;
    in_h.w_h[g](config.hidden_dim - 1, config.hidden_dim - 1) = big;
    EXPECT_EQ(build_fixed_tables(in_h, div).w_xh.x_limit(), limit) << "W_h gate " << g;
  }
}

/// Counts the nonzero recurrent operands at or under `limit` (vector body)
/// and over it (scalar loop).
struct GuardSplit {
  int vector = 0;
  int scalar = 0;
  void add(std::int64_t x, std::int64_t limit) {
    if (x == 0) return;
    (fixedpt::magnitude(x) <= static_cast<std::uint64_t>(limit) ? vector : scalar)++;
  }
};

TEST(FusedParity, FixedMixesVectorAndScalarRowsInOneWindow) {
  nn::LstmConfig config;
  Rng rng(400);
  nn::LstmParams params = nn::LstmParams::glorot(config, rng);
  const std::int64_t scale = fixedpt::kPaperScale;
  const std::int64_t limit = pin_recurrent_limit(params, scale, 0.02);
  ASSERT_GT(limit, 0);
  const FixedDatapath path(config, params, scale);
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const nn::Sequence seq = random_sequence(seed, config.vocab_size, 100);
    EXPECT_EQ(path.infer(seq), path.infer_reference(seq)) << "seed " << seed;
    // The next token's recurrent pass multiplies by h after t tokens,
    // which the scratch holds after the prefix's forward.
    GuardSplit split;
    FixedScratch scratch;
    for (std::size_t t = 1; t < seq.size(); ++t) {
      path.infer(nn::TokenSpan(seq).first(t), scratch);
      for (std::size_t j = config.embed_dim; j < scratch.xh.size(); ++j) {
        split.add(scratch.xh[j], limit);
      }
    }
    EXPECT_GT(split.vector, 0) << "seed " << seed;
    EXPECT_GT(split.scalar, 0) << "seed " << seed;
  }
}

TEST(FusedParity, EngineMatchesReferenceAtEveryOptimizationLevel) {
  nn::LstmConfig config;
  config.vocab_size = 61;
  config.embed_dim = 6;
  config.hidden_dim = 14;
  Rng rng(7);
  const nn::LstmParams params = nn::LstmParams::glorot(config, rng);
  const FloatDatapath float_ref(config, params);
  const FixedDatapath fixed_ref(config, params);

  for (const OptimizationLevel level :
       {OptimizationLevel::Vanilla, OptimizationLevel::II,
        OptimizationLevel::FixedPoint}) {
    csd::SmartSsd board{csd::SmartSsdConfig{}};
    xrt::Device device{board};
    EngineConfig engine_config;
    engine_config.level = level;
    CsdLstmEngine engine(device, config, params, engine_config);
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
      const nn::Sequence seq = random_sequence(seed, config.vocab_size, 50);
      const double expected = level == OptimizationLevel::FixedPoint
                                  ? fixed_ref.infer_reference(seq)
                                  : float_ref.infer_reference(seq);
      EXPECT_EQ(engine.infer(seq).probability, expected)
          << "level " << static_cast<int>(level) << " seed " << seed;
    }
  }
}

TEST(FusedParity, EngineStaysBitExactAfterWeightHotSwap) {
  nn::LstmConfig config;
  config.vocab_size = 43;
  config.embed_dim = 6;
  config.hidden_dim = 11;
  Rng rng_a(11);
  Rng rng_b(22);
  const nn::LstmParams params_a = nn::LstmParams::glorot(config, rng_a);
  const nn::LstmParams params_b = nn::LstmParams::glorot(config, rng_b);
  const nn::Sequence seq = random_sequence(9, config.vocab_size, 64);

  for (const OptimizationLevel level :
       {OptimizationLevel::II, OptimizationLevel::FixedPoint}) {
    csd::SmartSsd board{csd::SmartSsdConfig{}};
    xrt::Device device{board};
    EngineConfig engine_config;
    engine_config.level = level;
    CsdLstmEngine engine(device, config, params_a, engine_config);
    const double before = engine.infer(seq).probability;

    // The CTI update path must restage the datapath: the swapped-in
    // model has to answer exactly like an engine built from scratch on it.
    engine.update_weights(params_b);
    const double expected_b =
        level == OptimizationLevel::FixedPoint
            ? FixedDatapath(config, params_b).infer_reference(seq)
            : FloatDatapath(config, params_b).infer_reference(seq);
    EXPECT_EQ(engine.infer(seq).probability, expected_b);
    EXPECT_NE(engine.infer(seq).probability, before);

    // And swapping back restores the original answer bit-for-bit.
    engine.update_weights(params_a);
    EXPECT_EQ(engine.infer(seq).probability, before);
  }
}

TEST(FusedParity, BatchAgreesWithSingleStreamAcrossThreadCounts) {
  nn::LstmConfig config;
  config.vocab_size = 29;
  config.embed_dim = 5;
  config.hidden_dim = 9;
  Rng rng(31);
  const nn::LstmParams params = nn::LstmParams::glorot(config, rng);
  std::vector<nn::Sequence> batch;
  for (std::uint64_t seed = 0; seed < 17; ++seed) {
    batch.push_back(random_sequence(seed, config.vocab_size,
                                    20 + static_cast<int>(seed % 5)));
  }

  for (const std::uint32_t threads : {1u, 4u}) {
    csd::SmartSsd board{csd::SmartSsdConfig{}};
    xrt::Device device{board};
    EngineConfig engine_config;
    engine_config.level = OptimizationLevel::FixedPoint;
    engine_config.batch_threads = threads;
    CsdLstmEngine engine(device, config, params, engine_config);
    const auto result = engine.infer_batch(batch);
    ASSERT_EQ(result.probabilities.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(result.probabilities[i],
                       engine.infer(batch[i]).probability)
          << "threads " << threads << " window " << i;
    }
  }
}

}  // namespace
}  // namespace csdml::kernels
