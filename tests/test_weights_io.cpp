#include "nn/weights_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace csdml::nn {
namespace {

TEST(WeightsIo, RoundTripIsExact) {
  LstmConfig config{.vocab_size = 9, .embed_dim = 3, .hidden_dim = 5,
                    .activation = CellActivation::Softsign};
  Rng rng(3);
  const LstmParams params = LstmParams::glorot(config, rng);

  std::stringstream buffer;
  save_weights(buffer, config, params);
  const ModelSnapshot loaded = load_weights(buffer);

  EXPECT_EQ(loaded.config.vocab_size, config.vocab_size);
  EXPECT_EQ(loaded.config.embed_dim, config.embed_dim);
  EXPECT_EQ(loaded.config.hidden_dim, config.hidden_dim);
  EXPECT_EQ(loaded.config.activation, config.activation);

  for (std::size_t i = 0; i < params.embedding.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded.params.embedding.data()[i], params.embedding.data()[i]);
  }
  for (std::size_t g = 0; g < kNumGates; ++g) {
    for (std::size_t i = 0; i < params.w_x[g].size(); ++i) {
      EXPECT_DOUBLE_EQ(loaded.params.w_x[g].data()[i], params.w_x[g].data()[i]);
    }
    for (std::size_t i = 0; i < params.w_h[g].size(); ++i) {
      EXPECT_DOUBLE_EQ(loaded.params.w_h[g].data()[i], params.w_h[g].data()[i]);
    }
    EXPECT_EQ(loaded.params.bias[g], params.bias[g]);
  }
  EXPECT_EQ(loaded.params.dense_w, params.dense_w);
  EXPECT_DOUBLE_EQ(loaded.params.dense_b, params.dense_b);
}

TEST(WeightsIo, LoadedModelPredictsIdentically) {
  LstmConfig config;
  Rng rng(5);
  const LstmClassifier original(config, rng);

  std::stringstream buffer;
  save_weights(buffer, config, original.params());
  const ModelSnapshot snapshot = load_weights(buffer);
  const LstmClassifier restored(snapshot.config, snapshot.params);

  Rng token_rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    Sequence seq;
    for (int i = 0; i < 30; ++i) {
      seq.push_back(static_cast<TokenId>(token_rng.uniform_int(0, 277)));
    }
    EXPECT_DOUBLE_EQ(original.forward(seq, nullptr),
                     restored.forward(seq, nullptr));
  }
}

TEST(WeightsIo, TanhActivationRoundTrips) {
  LstmConfig config{.vocab_size = 4, .embed_dim = 2, .hidden_dim = 3,
                    .activation = CellActivation::Tanh};
  Rng rng(9);
  std::stringstream buffer;
  save_weights(buffer, config, LstmParams::glorot(config, rng));
  EXPECT_EQ(load_weights(buffer).config.activation, CellActivation::Tanh);
}

TEST(WeightsIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/csdml_weights.txt";
  LstmConfig config{.vocab_size = 4, .embed_dim = 2, .hidden_dim = 3};
  Rng rng(11);
  const LstmParams params = LstmParams::glorot(config, rng);
  save_weights_file(path, config, params);
  const ModelSnapshot loaded = load_weights_file(path);
  EXPECT_DOUBLE_EQ(loaded.params.dense_b, params.dense_b);
  std::remove(path.c_str());
}

TEST(WeightsIo, RejectsMalformedInput) {
  {
    std::stringstream buffer("not-a-weight-file");
    EXPECT_THROW(load_weights(buffer), ParseError);
  }
  {
    std::stringstream buffer("csdml-weights v999 ");
    EXPECT_THROW(load_weights(buffer), ParseError);
  }
  {
    std::stringstream buffer("csdml-weights v1 activation relu");
    EXPECT_THROW(load_weights(buffer), ParseError);
  }
  {
    // Truncated after the header.
    std::stringstream buffer("csdml-weights v1 activation softsign vocab 4 "
                             "embed 2 hidden 3 embedding 0.1 0.2");
    EXPECT_THROW(load_weights(buffer), ParseError);
  }
  EXPECT_THROW(load_weights_file("/nonexistent/weights.txt"), ParseError);
}

/// A valid small weight file as text, for corruption-based negative paths.
std::string small_weight_text() {
  LstmConfig config{.vocab_size = 4, .embed_dim = 2, .hidden_dim = 3};
  Rng rng(17);
  std::stringstream buffer;
  save_weights(buffer, config, LstmParams::glorot(config, rng));
  return buffer.str();
}

std::string write_temp(const char* name, const std::string& text) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::trunc);
  out << text;
  return path;
}

TEST(WeightsIo, TruncatedFileFailsCleanly) {
  const std::string text = small_weight_text();
  // Chop the file at several depths: mid-header, mid-matrix, and just
  // before the final bias. Every cut must surface as a ParseError, never
  // a crash or a silently short model.
  for (const std::size_t keep :
       {text.size() / 8, text.size() / 2, text.size() - 4}) {
    const std::string path =
        write_temp("csdml_truncated_weights.txt", text.substr(0, keep));
    EXPECT_THROW(load_weights_file(path), ParseError) << "keep=" << keep;
    std::remove(path.c_str());
  }
}

TEST(WeightsIo, BadMagicFailsCleanly) {
  std::string text = small_weight_text();
  text.replace(0, 13, "csdml-wrights");  // same length, wrong magic
  const std::string path = write_temp("csdml_bad_magic_weights.txt", text);
  EXPECT_THROW(load_weights_file(path), ParseError);
  std::remove(path.c_str());
}

TEST(WeightsIo, DimensionMismatchFailsCleanly) {
  const std::string text = small_weight_text();
  {
    // Header claims a larger hidden dim than the payload carries: the
    // reader runs out of numbers where it expects more matrix entries.
    std::string grown = text;
    const std::size_t at = grown.find("hidden 3");
    ASSERT_NE(at, std::string::npos);
    grown.replace(at, 8, "hidden 9");
    std::stringstream buffer(grown);
    EXPECT_THROW(load_weights(buffer), ParseError);
  }
  {
    // Header claims a smaller embed dim: leftover numbers land where the
    // next section keyword belongs.
    std::string shrunk = text;
    const std::size_t at = shrunk.find("embed 2");
    ASSERT_NE(at, std::string::npos);
    shrunk.replace(at, 7, "embed 1");
    std::stringstream buffer(shrunk);
    EXPECT_THROW(load_weights(buffer), ParseError);
  }
  {
    // Zero dimensions are rejected before any allocation happens.
    std::string zeroed = text;
    const std::size_t at = zeroed.find("vocab 4");
    ASSERT_NE(at, std::string::npos);
    zeroed.replace(at, 7, "vocab 0");
    std::stringstream buffer(zeroed);
    EXPECT_THROW(load_weights(buffer), PreconditionError);
  }
}

/// A header that names `embed` as its embedding width, followed by the
/// values a loader that wrapped every `embed` product to zero would read:
/// no embedding or kernel entries, then the recurrent kernels, biases and
/// dense head of an 8-token, 32-unit model.
std::string wrapped_embed_text(const char* magic,
                               const std::vector<std::string>& gates,
                               const char* embed) {
  const std::string row32 = [] {
    std::string row;
    for (int i = 0; i < 32; ++i) row += "0 ";
    return row + "\n";
  }();
  std::string text = std::string(magic) +
                     " v1\nactivation softsign\nvocab 8\nembed " + embed +
                     "\nhidden 32\nembedding\n\n";
  for (const std::string& gate : gates) {
    text += "kernel " + gate + "\n\n";
    text += "recurrent " + gate + "\n";
    for (int r = 0; r < 32; ++r) text += row32;
    text += "bias " + gate + "\n" + row32;
  }
  return text + "dense\n" + row32 + "dense_bias\n0\n";
}

TEST(WeightsIo, UntrustedDimensionsFailBeforeAllocating) {
  // 2^61 wraps every `embed` product to 0 in size_t: an unchecked loader
  // accepts this file with an empty embedding and empty input kernels,
  // and staging then walks 2^61 rows of them.
  {
    std::stringstream buffer(
        wrapped_embed_text("csdml-weights", {kGateNames.begin(), kGateNames.end()},
                           "2305843009213693952"));
    EXPECT_THROW(load_weights(buffer), PreconditionError);
  }
  // Not integral, not positive, or too large to cast: each is refused on
  // the double, before any tensor is sized from it.
  const std::string text = small_weight_text();
  for (const char* embed : {"embed 2.5", "embed -1", "embed 0", "embed 1e18"}) {
    std::string bad = text;
    bad.replace(bad.find("embed 2"), 7, embed);
    std::stringstream buffer(bad);
    EXPECT_THROW(load_weights(buffer), PreconditionError) << embed;
  }
  {
    // Every dimension is small, but the model is over the parameter cap:
    // 4 gates x 1024^2 recurrent weights alone are 2^22.
    std::string big = text;
    big.replace(big.find("hidden 3"), 8, "hidden 1024");
    std::stringstream buffer(big);
    EXPECT_THROW(load_weights(buffer), PreconditionError);
  }
}

TEST(GruWeightsIo, UntrustedDimensionsFailBeforeAllocating) {
  const std::vector<std::string> gates{"update", "reset", "candidate"};
  std::stringstream wrapped(
      wrapped_embed_text("csdml-gru-weights", gates, "2305843009213693952"));
  EXPECT_THROW(load_gru_weights(wrapped), PreconditionError);
  std::stringstream fractional(wrapped_embed_text("csdml-gru-weights", gates, "2.5"));
  EXPECT_THROW(load_gru_weights(fractional), PreconditionError);
}

/// The two trailing-content cases for a saved weight file: a junk line
/// appended after `dense_bias`, and `0junk` as the last value. Whitespace
/// after the last value stays legal.
template <typename Load>
void expect_trailing_content_rejected(const std::string& saved, Load load) {
  {
    std::stringstream buffer(saved + "junk 1 2 3 kernel\n");
    EXPECT_THROW(load(buffer), ParseError);
  }
  {
    const std::size_t last = saved.rfind("dense_bias\n");
    ASSERT_NE(last, std::string::npos);
    std::stringstream buffer(saved.substr(0, last) + "dense_bias\n0junk\n");
    EXPECT_THROW(load(buffer), ParseError);
  }
  {
    std::stringstream buffer(saved + "\n \t\n");
    EXPECT_NO_THROW(load(buffer));
  }
}

TEST(WeightsIo, TrailingContentIsRejected) {
  LstmConfig config{.vocab_size = 4, .embed_dim = 2, .hidden_dim = 3};
  Rng rng(17);
  std::stringstream saved;
  save_weights(saved, config, LstmParams::glorot(config, rng));
  expect_trailing_content_rejected(saved.str(),
                                   [](std::istream& in) { return load_weights(in); });
}

TEST(GruWeightsIo, TrailingContentIsRejected) {
  GruConfig config{.vocab_size = 4, .embed_dim = 2, .hidden_dim = 3};
  Rng rng(19);
  std::stringstream saved;
  save_gru_weights(saved, config, GruParams::glorot(config, rng));
  expect_trailing_content_rejected(
      saved.str(), [](std::istream& in) { return load_gru_weights(in); });
}

TEST(GruWeightsIo, RoundTripIsExact) {
  GruConfig config{.vocab_size = 9, .embed_dim = 3, .hidden_dim = 5};
  Rng rng(5);
  const GruParams params = GruParams::glorot(config, rng);
  std::stringstream buffer;
  save_gru_weights(buffer, config, params);
  const GruModelSnapshot loaded = load_gru_weights(buffer);
  EXPECT_EQ(loaded.config.vocab_size, config.vocab_size);
  EXPECT_EQ(loaded.config.hidden_dim, config.hidden_dim);
  for (std::size_t g = 0; g < kNumGruGates; ++g) {
    for (std::size_t i = 0; i < params.w_h[g].size(); ++i) {
      EXPECT_DOUBLE_EQ(loaded.params.w_h[g].data()[i], params.w_h[g].data()[i]);
    }
    EXPECT_EQ(loaded.params.bias[g], params.bias[g]);
  }
  EXPECT_DOUBLE_EQ(loaded.params.dense_b, params.dense_b);
}

TEST(GruWeightsIo, RestoredModelPredictsIdentically) {
  GruConfig config;
  Rng rng(7);
  const GruClassifier original(config, rng);
  std::stringstream buffer;
  save_gru_weights(buffer, config, original.params());
  const GruModelSnapshot snapshot = load_gru_weights(buffer);
  const GruClassifier restored(snapshot.config, snapshot.params);
  Rng token_rng(9);
  for (int trial = 0; trial < 5; ++trial) {
    Sequence seq;
    for (int i = 0; i < 30; ++i) {
      seq.push_back(static_cast<TokenId>(token_rng.uniform_int(0, 277)));
    }
    EXPECT_DOUBLE_EQ(original.forward(seq, nullptr),
                     restored.forward(seq, nullptr));
  }
}

TEST(GruWeightsIo, MagicDistinguishesModelFamilies) {
  // An LSTM file must not load as a GRU and vice versa.
  LstmConfig lstm_config{.vocab_size = 4, .embed_dim = 2, .hidden_dim = 3};
  Rng rng(11);
  std::stringstream lstm_file;
  save_weights(lstm_file, lstm_config, LstmParams::glorot(lstm_config, rng));
  EXPECT_THROW(load_gru_weights(lstm_file), ParseError);

  GruConfig gru_config{.vocab_size = 4, .embed_dim = 2, .hidden_dim = 3};
  std::stringstream gru_file;
  save_gru_weights(gru_file, gru_config, GruParams::glorot(gru_config, rng));
  EXPECT_THROW(load_weights(gru_file), ParseError);
}

TEST(GruWeightsIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/csdml_gru_weights.txt";
  GruConfig config{.vocab_size = 4, .embed_dim = 2, .hidden_dim = 3};
  Rng rng(13);
  const GruParams params = GruParams::glorot(config, rng);
  save_gru_weights_file(path, config, params);
  EXPECT_DOUBLE_EQ(load_gru_weights_file(path).params.dense_b, params.dense_b);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace csdml::nn
