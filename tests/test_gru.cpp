#include "nn/gru.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/error.hpp"

namespace csdml::nn {
namespace {

TEST(Gru, ParameterCountIsThreeQuartersOfLstmRecurrence) {
  const GruConfig config;  // vocab 278, embed 8, hidden 32
  Rng rng(1);
  const GruClassifier model(config, rng);
  // 3 gates x (8x32 + 32x32 + 32) = 3,936 = 0.75 x the LSTM's 5,248.
  EXPECT_EQ(model.params().recurrent_parameter_count(), 3'936u);
  EXPECT_EQ(model.params().total_parameter_count(), 2'224u + 3'936u + 33u);
}

TEST(Gru, ParameterPointersUnique) {
  GruConfig config{.vocab_size = 5, .embed_dim = 3, .hidden_dim = 4};
  Rng rng(2);
  GruClassifier model(config, rng);
  auto ptrs = model.mutable_params().parameter_pointers();
  EXPECT_EQ(ptrs.size(), model.params().total_parameter_count());
  std::sort(ptrs.begin(), ptrs.end());
  EXPECT_EQ(std::adjacent_find(ptrs.begin(), ptrs.end()), ptrs.end());
}

TEST(Gru, ForwardIsDeterministicProbability) {
  GruConfig config;
  Rng rng(3);
  const GruClassifier model(config, rng);
  const Sequence seq{1, 5, 200, 42, 7, 7, 3};
  const double p = model.forward(seq, nullptr);
  EXPECT_GT(p, 0.0);
  EXPECT_LT(p, 1.0);
  EXPECT_DOUBLE_EQ(p, model.forward(seq, nullptr));
  EXPECT_EQ(model.predict(seq), p >= 0.5 ? 1 : 0);
}

TEST(Gru, OrderSensitivity) {
  GruConfig config;
  Rng rng(5);
  const GruClassifier model(config, rng);
  EXPECT_NE(model.forward({10, 20, 30, 40}, nullptr),
            model.forward({40, 30, 20, 10}, nullptr));
}

TEST(Gru, StateInterpolatesBetweenPrevAndCandidate) {
  // h' = (1-z) h + z g with z in (0,1) and |g| < 1 keeps |h| < 1 forever.
  GruConfig config;
  Rng rng(7);
  const GruClassifier model(config, rng);
  Vector h(config.hidden_dim, 0.0);
  Rng token_rng(9);
  for (int t = 0; t < 2'000; ++t) {
    const auto token =
        static_cast<TokenId>(token_rng.uniform_int(0, config.vocab_size - 1));
    model.step(model.embed(token), h, nullptr);
  }
  for (const double v : h) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_LT(std::abs(v), 1.0);
  }
}

// Explicit zero padding keeps gtest's byte-dump case names stable (see
// GradCheckCase in test_gradcheck.cpp).
struct GruGradCase {
  CellActivation activation;
  std::uint32_t zero_pad = 0;
  std::size_t length;
};

class GruGradCheck : public ::testing::TestWithParam<GruGradCase> {};

TEST_P(GruGradCheck, AnalyticMatchesNumeric) {
  const GruGradCase param = GetParam();
  GruConfig config{.vocab_size = 7, .embed_dim = 3, .hidden_dim = 4,
                   .activation = param.activation};
  Rng rng(31);
  GruClassifier model(config, rng);
  Sequence seq;
  Rng token_rng(5);
  for (std::size_t i = 0; i < param.length; ++i) {
    seq.push_back(static_cast<TokenId>(token_rng.uniform_int(0, 6)));
  }

  GruGradients grads = GruParams::zeros(config);
  gru_backward(model, seq, 1, grads);

  const auto params = model.mutable_params().parameter_pointers();
  const auto analytic = grads.parameter_pointers();
  const std::size_t stride = std::max<std::size_t>(params.size() / 60, 1);
  const double eps = 1e-6;
  for (std::size_t i = 0; i < params.size(); i += stride) {
    const double original = *params[i];
    *params[i] = original + eps;
    const double lp = bce_loss(model.forward(seq, nullptr), 1);
    *params[i] = original - eps;
    const double lm = bce_loss(model.forward(seq, nullptr), 1);
    *params[i] = original;
    const double numeric = (lp - lm) / (2 * eps);
    const double denom = std::max({std::abs(numeric), std::abs(*analytic[i]), 1e-4});
    EXPECT_LT(std::abs(numeric - *analytic[i]) / denom, 2e-3)
        << "param " << i << " analytic " << *analytic[i] << " numeric " << numeric;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, GruGradCheck,
    ::testing::Values(
        GruGradCase{.activation = CellActivation::Softsign, .length = 1},
        GruGradCase{.activation = CellActivation::Softsign, .length = 8},
        GruGradCase{.activation = CellActivation::Tanh, .length = 8},
        GruGradCase{.activation = CellActivation::Softsign, .length = 15}));

TEST(Gru, LearnsToyTask) {
  GruConfig config{.vocab_size = 5, .embed_dim = 4, .hidden_dim = 8};
  Rng rng(11);
  GruClassifier model(config, rng);
  SequenceDataset data;
  Rng data_rng(13);
  for (int i = 0; i < 80; ++i) {
    const int label = i % 2;
    Sequence seq(10, static_cast<TokenId>(label));
    for (std::size_t j = 0; j < seq.size(); j += 3) {
      seq[j] = static_cast<TokenId>(data_rng.uniform_int(2, 4));
    }
    data.sequences.push_back(std::move(seq));
    data.labels.push_back(label);
  }
  TrainConfig tc;
  tc.epochs = 12;
  tc.batch_size = 8;
  tc.learning_rate = 0.02;
  const TrainResult result = train_gru(model, data, data, tc);
  EXPECT_GE(result.best_test_accuracy, 0.95);
}

TEST(Gru, Guards) {
  GruConfig config{.vocab_size = 5, .embed_dim = 2, .hidden_dim = 3};
  Rng rng(15);
  const GruClassifier model(config, rng);
  EXPECT_THROW(model.forward({}, nullptr), PreconditionError);
  EXPECT_THROW(model.embed(-1), PreconditionError);
  EXPECT_THROW(model.embed(5), PreconditionError);
}

}  // namespace
}  // namespace csdml::nn
