#include "kernels/gru_functional.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "nn/train.hpp"

namespace csdml::kernels {
namespace {

struct Fixture {
  nn::GruConfig config;
  nn::GruParams params;
  Fixture() {
    Rng rng(91);
    params = nn::GruParams::glorot(config, rng);
    for (auto& w : params.dense_w) w *= 30.0;  // confident outputs
  }
  nn::Sequence sequence(std::uint64_t seed, int length = 60) const {
    Rng rng(seed);
    nn::Sequence seq;
    for (int i = 0; i < length; ++i) {
      seq.push_back(static_cast<nn::TokenId>(
          rng.uniform_int(0, config.vocab_size - 1)));
    }
    return seq;
  }
};

TEST(FixedGru, TracksFloatModel) {
  const Fixture f;
  const nn::GruClassifier reference(f.config, f.params);
  const FixedGruDatapath fixed(f.config, f.params);
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    const nn::Sequence seq = f.sequence(seed);
    // Bounded by the PLAN sigmoid's approximation error, as for the LSTM.
    EXPECT_NEAR(fixed.infer(seq), reference.forward(seq, nullptr), 0.1) << seed;
  }
}

TEST(FixedGru, DecisionsAgreeOnConfidentInputs) {
  const Fixture f;
  const nn::GruClassifier reference(f.config, f.params);
  const FixedGruDatapath fixed(f.config, f.params);
  int checked = 0;
  int agreed = 0;
  for (std::uint64_t seed = 0; seed < 150; ++seed) {
    const nn::Sequence seq = f.sequence(seed);
    const double p = reference.forward(seq, nullptr);
    if (std::abs(p - 0.5) < 0.1) continue;
    ++checked;
    agreed += (p >= 0.5) == (fixed.infer(seq) >= 0.5);
  }
  ASSERT_GT(checked, 40);
  EXPECT_GE(static_cast<double>(agreed) / checked, 0.97);
}

TEST(FixedGru, OutputBoundedAndDeterministic) {
  const Fixture f;
  const FixedGruDatapath fixed(f.config, f.params);
  const nn::Sequence seq = f.sequence(7, 200);
  const double p = fixed.infer(seq);
  EXPECT_GE(p, 0.0);
  EXPECT_LE(p, 1.0);
  EXPECT_DOUBLE_EQ(p, fixed.infer(seq));
}

TEST(FixedGru, CoarserScaleIsLessFaithful) {
  const Fixture f;
  const nn::GruClassifier reference(f.config, f.params);
  const FixedGruDatapath fine(f.config, f.params, 1'000'000);
  const FixedGruDatapath coarse(f.config, f.params, 1'000);
  double fine_err = 0.0;
  double coarse_err = 0.0;
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    const nn::Sequence seq = f.sequence(seed, 40);
    const double p = reference.forward(seq, nullptr);
    fine_err += std::abs(fine.infer(seq) - p);
    coarse_err += std::abs(coarse.infer(seq) - p);
  }
  EXPECT_LT(fine_err, coarse_err);
}

TEST(FixedGru, Guards) {
  const Fixture f;
  const FixedGruDatapath fixed(f.config, f.params);
  EXPECT_THROW(fixed.infer({}), PreconditionError);
  EXPECT_THROW(fixed.infer(nn::Sequence{-1}), PreconditionError);
  EXPECT_THROW(FixedGruDatapath(f.config, f.params, 0), PreconditionError);
}

TEST(FixedGru, RejectsParamsShapedForAnotherConfig) {
  const Fixture f;
  nn::GruConfig narrow = f.config;
  narrow.hidden_dim = 16;
  Rng rng(4);
  EXPECT_THROW(FixedGruDatapath(f.config, nn::GruParams::glorot(narrow, rng)),
               PreconditionError);
  for (std::size_t g = 0; g < nn::kNumGruGates; ++g) {
    nn::GruParams wide_x = f.params;
    wide_x.w_x[g] = nn::Matrix(f.config.embed_dim + 1, f.config.hidden_dim);
    EXPECT_THROW(FixedGruDatapath(f.config, wide_x), PreconditionError) << g;
    nn::GruParams short_h = f.params;
    short_h.w_h[g] = nn::Matrix(f.config.hidden_dim - 1, f.config.hidden_dim);
    EXPECT_THROW(FixedGruDatapath(f.config, short_h), PreconditionError) << g;
    nn::GruParams short_bias = f.params;
    short_bias.bias[g].pop_back();
    EXPECT_THROW(FixedGruDatapath(f.config, short_bias), PreconditionError) << g;
  }
}

}  // namespace
}  // namespace csdml::kernels
