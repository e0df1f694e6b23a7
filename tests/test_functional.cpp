#include "kernels/functional.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"

namespace csdml::kernels {
namespace {

struct Models {
  nn::LstmConfig config;
  nn::LstmParams params;
  Models() {
    Rng rng(21);
    params = nn::LstmParams::glorot(config, rng);
  }
  nn::Sequence random_sequence(std::uint64_t seed, int length = 40) const {
    Rng rng(seed);
    nn::Sequence seq;
    for (int i = 0; i < length; ++i) {
      seq.push_back(static_cast<nn::TokenId>(
          rng.uniform_int(0, config.vocab_size - 1)));
    }
    return seq;
  }
};

TEST(FloatDatapath, MatchesOfflineModelBitForBit) {
  const Models m;
  const FloatDatapath datapath(m.config, m.params);
  const nn::LstmClassifier reference(m.config, m.params);
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    const nn::Sequence seq = m.random_sequence(seed);
    EXPECT_DOUBLE_EQ(datapath.infer(seq), reference.forward(seq, nullptr))
        << "seed " << seed;
  }
}

TEST(FloatDatapath, KernelDecompositionMatchesMonolith) {
  // Step through preprocess -> gates -> hidden manually and compare with
  // the classifier's own step().
  const Models m;
  const FloatDatapath datapath(m.config, m.params);
  const nn::LstmClassifier reference(m.config, m.params);

  nn::Vector h(m.config.hidden_dim, 0.0);
  nn::Vector c(m.config.hidden_dim, 0.0);
  nn::Vector h_ref(m.config.hidden_dim, 0.0);
  nn::Vector c_ref(m.config.hidden_dim, 0.0);
  for (const nn::TokenId token : m.random_sequence(3, 20)) {
    const nn::Vector x = datapath.preprocess(token);
    const GateVectors gates = datapath.gates(x, h);
    datapath.hidden_state(gates, c, h);
    reference.step(reference.embed(token), h_ref, c_ref, nullptr);
    for (std::size_t j = 0; j < h.size(); ++j) {
      EXPECT_DOUBLE_EQ(h[j], h_ref[j]);
      EXPECT_DOUBLE_EQ(c[j], c_ref[j]);
    }
  }
}

TEST(FloatDatapath, PreprocessIsEmbeddingRow) {
  const Models m;
  const FloatDatapath datapath(m.config, m.params);
  const nn::Vector x = datapath.preprocess(42);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_DOUBLE_EQ(x[i], m.params.embedding(42, i));
  }
  EXPECT_THROW(datapath.preprocess(-1), PreconditionError);
  EXPECT_THROW(datapath.preprocess(m.config.vocab_size), PreconditionError);
}

TEST(FixedDatapath, TracksFloatWithinQuantisationError) {
  const Models m;
  const FloatDatapath float_path(m.config, m.params);
  const FixedDatapath fixed_path(m.config, m.params);
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    const nn::Sequence seq = m.random_sequence(seed, 60);
    const double pf = float_path.infer(seq);
    const double px = fixed_path.infer(seq);
    // The PLAN sigmoid's 0.019 max error dominates the gap.
    EXPECT_NEAR(px, pf, 0.08) << "seed " << seed;
  }
}

TEST(FixedDatapath, DecisionsAgreeOnConfidentInputs) {
  // An untrained model keeps every logit near zero, so scale the dense
  // head up to spread the outputs away from 0.5 the way a trained model's
  // are (the integration test covers the genuinely trained case).
  Models m;
  for (auto& w : m.params.dense_w) w *= 30.0;
  const FloatDatapath float_path(m.config, m.params);
  const FixedDatapath fixed_path(m.config, m.params);
  int checked = 0;
  int agreed = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const nn::Sequence seq = m.random_sequence(seed, 60);
    const double pf = float_path.infer(seq);
    if (std::abs(pf - 0.5) < 0.1) continue;  // skip borderline inputs
    ++checked;
    agreed += (pf >= 0.5) == (fixed_path.infer(seq) >= 0.5);
  }
  ASSERT_GT(checked, 50);
  EXPECT_GE(static_cast<double>(agreed) / static_cast<double>(checked), 0.99);
}

TEST(FixedDatapath, CoarserScaleIsLessFaithful) {
  const Models m;
  const FloatDatapath float_path(m.config, m.params);
  const FixedDatapath fine(m.config, m.params, 1'000'000);
  const FixedDatapath coarse(m.config, m.params, 1'000);
  double fine_err = 0.0;
  double coarse_err = 0.0;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const nn::Sequence seq = m.random_sequence(seed, 40);
    const double pf = float_path.infer(seq);
    fine_err += std::abs(fine.infer(seq) - pf);
    coarse_err += std::abs(coarse.infer(seq) - pf);
  }
  EXPECT_LT(fine_err, coarse_err);
}

TEST(FixedDatapath, GateOutputsAreValidActivations) {
  const Models m;
  const FixedDatapath fixed_path(m.config, m.params);
  FixedVector h(m.config.hidden_dim, fixedpt::ScaledFixed::from_raw(0));
  const FixedVector x = fixed_path.preprocess(7);
  const FixedGateVectors gates = fixed_path.gates(x, h);
  for (std::size_t g = 0; g < nn::kNumGates; ++g) {
    for (const auto& value : gates.act[g]) {
      const double v = value.to_double();
      if (g == nn::kCandidate) {
        EXPECT_GE(v, -1.0);
        EXPECT_LE(v, 1.0);
      } else {
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, 1.0);
      }
    }
  }
}

TEST(FixedDatapath, InferIsDeterministic) {
  const Models m;
  const FixedDatapath fixed_path(m.config, m.params);
  const nn::Sequence seq = m.random_sequence(11, 50);
  EXPECT_DOUBLE_EQ(fixed_path.infer(seq), fixed_path.infer(seq));
}

TEST(Datapaths, EmptySequenceThrows) {
  const Models m;
  EXPECT_THROW(FloatDatapath(m.config, m.params).infer({}), PreconditionError);
  EXPECT_THROW(FixedDatapath(m.config, m.params).infer({}), PreconditionError);
}

TEST(Datapaths, RejectParamsShapedForAnotherConfig) {
  // The datapaths index parameter tensors unchecked, so a shape that does
  // not match the config must be refused before staging reads it.
  const Models m;
  nn::LstmConfig narrow = m.config;
  narrow.hidden_dim = 16;
  Rng rng(4);
  std::vector<nn::LstmParams> bad{nn::LstmParams::glorot(narrow, rng)};
  const auto with = [&](auto mutate) {
    nn::LstmParams p = m.params;
    mutate(p);
    bad.push_back(std::move(p));
  };
  with([](nn::LstmParams& p) { p.embedding = nn::Matrix(p.embedding.rows(), 7); });
  with([](nn::LstmParams& p) { p.embedding = nn::Matrix(9, p.embedding.cols()); });
  with([](nn::LstmParams& p) { p.dense_w.pop_back(); });
  const std::size_t embed = m.config.embed_dim;
  const std::size_t hidden = m.config.hidden_dim;
  for (std::size_t g = 0; g < nn::kNumGates; ++g) {
    with([=](nn::LstmParams& p) { p.w_x[g] = nn::Matrix(embed - 1, hidden); });
    with([=](nn::LstmParams& p) { p.w_x[g] = nn::Matrix(embed, hidden - 1); });
    with([=](nn::LstmParams& p) { p.w_h[g] = nn::Matrix(hidden, hidden / 2); });
    with([=](nn::LstmParams& p) { p.w_h[g] = nn::Matrix(hidden / 2, hidden); });
    with([=](nn::LstmParams& p) { p.bias[g].resize(hidden - 1); });
  }
  for (std::size_t i = 0; i < bad.size(); ++i) {
    EXPECT_THROW(FloatDatapath(m.config, bad[i]), PreconditionError) << "case " << i;
    EXPECT_THROW(FixedDatapath(m.config, bad[i]), PreconditionError) << "case " << i;
  }
}

}  // namespace
}  // namespace csdml::kernels
