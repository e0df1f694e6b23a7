// Finite-difference verification of the full BPTT gradient — the
// make-or-break invariant of the offline trainer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "nn/train.hpp"

namespace csdml::nn {
namespace {

// gtest names each case by dumping the struct's bytes, so the padding after
// `activation` is an explicit zero field: left implicit, it holds stack
// garbage and the case names change from run to run.
struct GradCheckCase {
  CellActivation activation;
  std::uint32_t zero_pad = 0;
  std::size_t sequence_length;
};

class GradCheckTest : public ::testing::TestWithParam<GradCheckCase> {};

TEST_P(GradCheckTest, AnalyticMatchesNumeric) {
  const GradCheckCase param = GetParam();
  LstmConfig config{.vocab_size = 7, .embed_dim = 3, .hidden_dim = 4,
                    .activation = param.activation};
  Rng rng(31);
  LstmClassifier model(config, rng);

  Sequence seq;
  Rng token_rng(5);
  for (std::size_t i = 0; i < param.sequence_length; ++i) {
    seq.push_back(static_cast<TokenId>(token_rng.uniform_int(0, 6)));
  }
  const int label = 1;

  LstmGradients grads = LstmParams::zeros(config);
  backward(model, seq, label, grads);

  const std::vector<double*> params = model.mutable_params().parameter_pointers();
  const std::vector<double*> analytic = grads.parameter_pointers();

  // Check a deterministic sample of parameters (every k-th) to keep the
  // test fast while covering embedding, every gate, and the dense head.
  const std::size_t stride = std::max<std::size_t>(params.size() / 60, 1);
  const double eps = 1e-6;
  for (std::size_t i = 0; i < params.size(); i += stride) {
    const double original = *params[i];
    *params[i] = original + eps;
    const double loss_plus = bce_loss(model.forward(seq, nullptr), label);
    *params[i] = original - eps;
    const double loss_minus = bce_loss(model.forward(seq, nullptr), label);
    *params[i] = original;
    const double numeric = (loss_plus - loss_minus) / (2 * eps);
    const double denom = std::max({std::abs(numeric), std::abs(*analytic[i]), 1e-4});
    EXPECT_LT(std::abs(numeric - *analytic[i]) / denom, 2e-3)
        << "param " << i << ": analytic " << *analytic[i] << " numeric "
        << numeric;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Activations, GradCheckTest,
    ::testing::Values(
        GradCheckCase{.activation = CellActivation::Softsign, .sequence_length = 1},
        GradCheckCase{.activation = CellActivation::Softsign, .sequence_length = 6},
        GradCheckCase{.activation = CellActivation::Softsign, .sequence_length = 15},
        GradCheckCase{.activation = CellActivation::Tanh, .sequence_length = 6},
        GradCheckCase{.activation = CellActivation::Tanh, .sequence_length = 15}));

TEST(GradCheck, NegativeLabelGradientsAlsoCorrect) {
  LstmConfig config{.vocab_size = 5, .embed_dim = 2, .hidden_dim = 3};
  Rng rng(17);
  LstmClassifier model(config, rng);
  const Sequence seq{0, 3, 1, 4};

  LstmGradients grads = LstmParams::zeros(config);
  backward(model, seq, 0, grads);

  const std::vector<double*> params = model.mutable_params().parameter_pointers();
  const std::vector<double*> analytic = grads.parameter_pointers();
  const double eps = 1e-6;
  for (std::size_t i = 0; i < params.size(); i += 7) {
    const double original = *params[i];
    *params[i] = original + eps;
    const double lp = bce_loss(model.forward(seq, nullptr), 0);
    *params[i] = original - eps;
    const double lm = bce_loss(model.forward(seq, nullptr), 0);
    *params[i] = original;
    const double numeric = (lp - lm) / (2 * eps);
    const double denom = std::max({std::abs(numeric), std::abs(*analytic[i]), 1e-4});
    EXPECT_LT(std::abs(numeric - *analytic[i]) / denom, 2e-3) << "param " << i;
  }
}

TEST(GradCheck, GradientsAccumulateAcrossSamples) {
  LstmConfig config{.vocab_size = 5, .embed_dim = 2, .hidden_dim = 3};
  Rng rng(19);
  LstmClassifier model(config, rng);

  LstmGradients combined = LstmParams::zeros(config);
  backward(model, {1, 2, 3}, 1, combined);
  backward(model, {4, 0, 2}, 0, combined);

  LstmGradients first = LstmParams::zeros(config);
  backward(model, {1, 2, 3}, 1, first);
  LstmGradients second = LstmParams::zeros(config);
  backward(model, {4, 0, 2}, 0, second);

  const auto c = combined.parameter_pointers();
  const auto f = first.parameter_pointers();
  const auto s = second.parameter_pointers();
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(*c[i], *f[i] + *s[i], 1e-12);
  }
}

TEST(GradCheck, BackwardReturnsForwardLoss) {
  LstmConfig config{.vocab_size = 5, .embed_dim = 2, .hidden_dim = 3};
  Rng rng(23);
  LstmClassifier model(config, rng);
  LstmGradients grads = LstmParams::zeros(config);
  const Sequence seq{0, 1, 2, 3, 4};
  const double loss = backward(model, seq, 1, grads);
  EXPECT_NEAR(loss, bce_loss(model.forward(seq, nullptr), 1), 1e-12);
}

}  // namespace
}  // namespace csdml::nn
