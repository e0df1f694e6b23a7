#include "nn/weights_io.hpp"

#include <array>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>

#include "common/error.hpp"

namespace csdml::nn {
namespace {

constexpr const char* kMagic = "csdml-weights";
constexpr const char* kVersion = "v1";

void write_values(std::ostream& out, const double* values, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    out << (i ? " " : "") << values[i];
  }
  out << '\n';
}

std::string expect_token(std::istream& in, const char* what) {
  std::string token;
  if (!(in >> token)) throw ParseError(std::string("weight file truncated at ") + what);
  return token;
}

void expect_keyword(std::istream& in, const std::string& keyword) {
  const std::string token = expect_token(in, keyword.c_str());
  if (token != keyword) {
    throw ParseError("weight file: expected '" + keyword + "', got '" + token + "'");
  }
}

double read_value(std::istream& in, const char* what) {
  double value = 0.0;
  if (!(in >> value)) throw ParseError(std::string("weight file: bad number in ") + what);
  return value;
}

void read_values(std::istream& in, double* values, std::size_t count,
                 const char* what) {
  for (std::size_t i = 0; i < count; ++i) values[i] = read_value(in, what);
}

/// The last value must end the file: anything but whitespace after
/// `dense_bias` (`junk` appended, or `0junk` as the last value) means the
/// file is not one this format wrote.
void expect_end(std::istream& in) {
  in >> std::ws;
  if (in.peek() != std::istream::traits_type::eof()) {
    throw ParseError("weight file: trailing content");
  }
}

/// Most parameters a weight file may declare: 2^21 doubles, 16 MiB per
/// copy, about 280x the paper's 7,472-parameter model. The loader
/// allocates every tensor the header names before it reads a value, so
/// an unchecked header is an allocation of the file's choosing.
constexpr std::uint64_t kMaxWeightFileParameters = std::uint64_t{1} << 21;

/// Reads one header dimension. It must be a positive integer no larger
/// than the parameter cap, checked on the double before the cast, since
/// converting an out-of-range double is undefined and `2.5` would
/// otherwise truncate to 2 without a word.
std::uint64_t read_dim(std::istream& in, const char* name) {
  expect_keyword(in, name);
  const double value = read_value(in, name);
  CSDML_REQUIRE(value >= 1.0 &&
                    value <= static_cast<double>(kMaxWeightFileParameters) &&
                    std::floor(value) == value,
                std::string("weight file: ") + name +
                    " must be a positive integer no larger than " +
                    std::to_string(kMaxWeightFileParameters));
  return static_cast<std::uint64_t>(value);
}

/// Magic, version, activation and dimensions, shared by the LSTM and GRU
/// formats; `gates` weight triples (kernel, recurrent, bias) follow the
/// embedding. Rejects a model whose parameters exceed the cap before
/// anything is allocated.
template <typename Config>
Config read_header(std::istream& in, const char* magic, std::uint64_t gates) {
  expect_keyword(in, magic);
  const std::string version = expect_token(in, "version");
  if (version != kVersion) throw ParseError("unsupported weight file version " + version);

  Config config;
  expect_keyword(in, "activation");
  const std::string act = expect_token(in, "activation value");
  if (act == "softsign") config.activation = CellActivation::Softsign;
  else if (act == "tanh") config.activation = CellActivation::Tanh;
  else throw ParseError("unknown activation '" + act + "'");

  const std::uint64_t vocab = read_dim(in, "vocab");
  const std::uint64_t embed = read_dim(in, "embed");
  const std::uint64_t hidden = read_dim(in, "hidden");
  // Each factor is at most 2^21, so no product below can wrap.
  const std::uint64_t total = vocab * embed +
                              gates * (embed * hidden + hidden * hidden + hidden) +
                              hidden + 1;
  CSDML_REQUIRE(total <= kMaxWeightFileParameters,
                "weight file: " + std::to_string(total) +
                    " parameters exceed the cap of " +
                    std::to_string(kMaxWeightFileParameters));
  config.vocab_size = static_cast<TokenId>(vocab);
  config.embed_dim = embed;
  config.hidden_dim = hidden;
  return config;
}

}  // namespace

void save_weights(std::ostream& out, const LstmConfig& config,
                  const LstmParams& params) {
  out << std::setprecision(17);
  out << kMagic << ' ' << kVersion << '\n';
  out << "activation "
      << (config.activation == CellActivation::Softsign ? "softsign" : "tanh")
      << '\n';
  out << "vocab " << config.vocab_size << '\n';
  out << "embed " << config.embed_dim << '\n';
  out << "hidden " << config.hidden_dim << '\n';

  out << "embedding\n";
  write_values(out, params.embedding.data(), params.embedding.size());
  for (std::size_t g = 0; g < kNumGates; ++g) {
    out << "kernel " << kGateNames[g] << '\n';
    write_values(out, params.w_x[g].data(), params.w_x[g].size());
    out << "recurrent " << kGateNames[g] << '\n';
    write_values(out, params.w_h[g].data(), params.w_h[g].size());
    out << "bias " << kGateNames[g] << '\n';
    write_values(out, params.bias[g].data(), params.bias[g].size());
  }
  out << "dense\n";
  write_values(out, params.dense_w.data(), params.dense_w.size());
  out << "dense_bias\n" << params.dense_b << '\n';
}

void save_weights_file(const std::string& path, const LstmConfig& config,
                       const LstmParams& params) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw ParseError("cannot open weight file for writing: " + path);
  save_weights(out, config, params);
}

ModelSnapshot load_weights(std::istream& in) {
  const auto config = read_header<LstmConfig>(in, kMagic, kNumGates);
  LstmParams params = LstmParams::zeros(config);
  expect_keyword(in, "embedding");
  read_values(in, params.embedding.data(), params.embedding.size(), "embedding");
  for (std::size_t g = 0; g < kNumGates; ++g) {
    expect_keyword(in, "kernel");
    expect_keyword(in, kGateNames[g]);
    read_values(in, params.w_x[g].data(), params.w_x[g].size(), "kernel");
    expect_keyword(in, "recurrent");
    expect_keyword(in, kGateNames[g]);
    read_values(in, params.w_h[g].data(), params.w_h[g].size(), "recurrent");
    expect_keyword(in, "bias");
    expect_keyword(in, kGateNames[g]);
    read_values(in, params.bias[g].data(), params.bias[g].size(), "bias");
  }
  expect_keyword(in, "dense");
  read_values(in, params.dense_w.data(), params.dense_w.size(), "dense");
  expect_keyword(in, "dense_bias");
  params.dense_b = read_value(in, "dense_bias");
  expect_end(in);

  return ModelSnapshot{config, std::move(params)};
}

ModelSnapshot load_weights_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ParseError("cannot open weight file: " + path);
  return load_weights(in);
}

namespace {
constexpr const char* kGruMagic = "csdml-gru-weights";
constexpr std::array<const char*, kNumGruGates> kGruGateNames{
    "update", "reset", "candidate"};
}  // namespace

void save_gru_weights(std::ostream& out, const GruConfig& config,
                      const GruParams& params) {
  out << std::setprecision(17);
  out << kGruMagic << ' ' << kVersion << '\n';
  out << "activation "
      << (config.activation == CellActivation::Softsign ? "softsign" : "tanh")
      << '\n';
  out << "vocab " << config.vocab_size << '\n';
  out << "embed " << config.embed_dim << '\n';
  out << "hidden " << config.hidden_dim << '\n';
  out << "embedding\n";
  write_values(out, params.embedding.data(), params.embedding.size());
  for (std::size_t g = 0; g < kNumGruGates; ++g) {
    out << "kernel " << kGruGateNames[g] << '\n';
    write_values(out, params.w_x[g].data(), params.w_x[g].size());
    out << "recurrent " << kGruGateNames[g] << '\n';
    write_values(out, params.w_h[g].data(), params.w_h[g].size());
    out << "bias " << kGruGateNames[g] << '\n';
    write_values(out, params.bias[g].data(), params.bias[g].size());
  }
  out << "dense\n";
  write_values(out, params.dense_w.data(), params.dense_w.size());
  out << "dense_bias\n" << params.dense_b << '\n';
}

void save_gru_weights_file(const std::string& path, const GruConfig& config,
                           const GruParams& params) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw ParseError("cannot open weight file for writing: " + path);
  save_gru_weights(out, config, params);
}

GruModelSnapshot load_gru_weights(std::istream& in) {
  const auto config = read_header<GruConfig>(in, kGruMagic, kNumGruGates);
  GruParams params = GruParams::zeros(config);
  expect_keyword(in, "embedding");
  read_values(in, params.embedding.data(), params.embedding.size(), "embedding");
  for (std::size_t g = 0; g < kNumGruGates; ++g) {
    expect_keyword(in, "kernel");
    expect_keyword(in, kGruGateNames[g]);
    read_values(in, params.w_x[g].data(), params.w_x[g].size(), "kernel");
    expect_keyword(in, "recurrent");
    expect_keyword(in, kGruGateNames[g]);
    read_values(in, params.w_h[g].data(), params.w_h[g].size(), "recurrent");
    expect_keyword(in, "bias");
    expect_keyword(in, kGruGateNames[g]);
    read_values(in, params.bias[g].data(), params.bias[g].size(), "bias");
  }
  expect_keyword(in, "dense");
  read_values(in, params.dense_w.data(), params.dense_w.size(), "dense");
  expect_keyword(in, "dense_bias");
  params.dense_b = read_value(in, "dense_bias");
  expect_end(in);
  return GruModelSnapshot{config, std::move(params)};
}

GruModelSnapshot load_gru_weights_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ParseError("cannot open weight file: " + path);
  return load_gru_weights(in);
}

}  // namespace csdml::nn
