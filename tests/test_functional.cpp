#include "kernels/functional.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
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

/// The first and the last scalar of every tensor a fixed staging scales:
/// the embedding, each gate's w_x, w_h and bias, dense_w and dense_b.
std::vector<double*> first_and_last_of_each_tensor(nn::LstmParams& p) {
  std::vector<double*> slots;
  const auto both = [&slots](double* data, std::size_t size) {
    slots.push_back(data);
    slots.push_back(data + size - 1);
  };
  both(p.embedding.data(), p.embedding.size());
  for (std::size_t g = 0; g < p.w_x.size(); ++g) {
    both(p.w_x[g].data(), p.w_x[g].size());
    both(p.w_h[g].data(), p.w_h[g].size());
    both(p.bias[g].data(), p.bias[g].size());
  }
  both(p.dense_w.data(), p.dense_w.size());
  slots.push_back(&p.dense_b);
  return slots;
}

TEST(FixedStaging, LstmRefusesABadWeightInEveryTensor) {
  // One NaN, infinite or out-of-range weight, in any tensor, throws
  // from_double's PreconditionError.
  const Models m;
  const std::size_t slots = [&m] {
    nn::LstmParams copy = m.params;
    return first_and_last_of_each_tensor(copy).size();
  }();
  const double bad_values[] = {std::numeric_limits<double>::quiet_NaN(),
                               -std::numeric_limits<double>::infinity(),
                               1e13,  // 10^19 at the paper's scale: past 2^63
                               -1e13};
  for (std::size_t slot = 0; slot < slots; ++slot) {
    for (const double bad : bad_values) {
      nn::LstmParams params = m.params;
      *first_and_last_of_each_tensor(params)[slot] = bad;
      try {
        FixedDatapath(m.config, params);
        ADD_FAILURE() << "slot " << slot << " accepted " << bad;
      } catch (const PreconditionError& e) {
        EXPECT_NE(std::string(e.what()).find("value out of range for this scale"),
                  std::string::npos)
            << "slot " << slot << ": " << e.what();
      }
    }
  }
}

TEST(FixedStaging, TablesHoldOnlyScaledParameters) {
  // Staging scales each parameter once into the forward's layouts and
  // precomputes nothing: the tables hold exactly the parameter count, each
  // element the parameter's from_double at the staging scale.
  const Models m;
  const fixedpt::InvariantScale div(fixedpt::kPaperScale);
  const FixedTables t = build_fixed_tables(m.params, div);
  const std::size_t embed = m.config.embed_dim;
  const std::size_t hidden = m.config.hidden_dim;
  ASSERT_EQ(t.embedding.size(), m.params.embedding.size());
  ASSERT_EQ(t.bias.size(), nn::kNumGates * hidden);
  ASSERT_EQ(t.w_xh.rows(), embed + hidden);
  ASSERT_EQ(t.w_xh.cols(), nn::kNumGates * hidden);
  ASSERT_EQ(t.dense_w.size(), hidden);
  EXPECT_EQ(t.embedding.size() + t.bias.size() + t.w_xh.rows() * t.w_xh.cols() +
                t.dense_w.size() + 1,
            m.params.total_parameter_count());

  const auto raw = [&div](double v) {
    return fixedpt::ScaledFixed::from_double(v, div.scale()).raw();
  };
  for (std::size_t k = 0; k < t.embedding.size(); ++k) {
    ASSERT_EQ(t.embedding[k], raw(m.params.embedding.data()[k])) << "embedding " << k;
  }
  for (std::size_t g = 0; g < nn::kNumGates; ++g) {
    for (std::size_t j = 0; j < hidden; ++j) {
      const std::size_t col = g * hidden + j;
      ASSERT_EQ(t.bias[col], raw(m.params.bias[g][j])) << "bias " << g << "," << j;
      for (std::size_t i = 0; i < embed; ++i) {
        ASSERT_EQ(t.w_xh.at(i, col), raw(m.params.w_x[g](i, j)))
            << "w_x " << g << "," << i << "," << j;
      }
      for (std::size_t i = 0; i < hidden; ++i) {
        ASSERT_EQ(t.w_xh.at(embed + i, col), raw(m.params.w_h[g](i, j)))
            << "w_h " << g << "," << i << "," << j;
      }
    }
  }
  for (std::size_t j = 0; j < hidden; ++j) {
    EXPECT_EQ(t.dense_w[j], raw(m.params.dense_w[j])) << "dense_w " << j;
  }
  EXPECT_EQ(t.dense_b, raw(m.params.dense_b));
}

}  // namespace
}  // namespace csdml::kernels
