#include "kernels/functional.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "fixed/activations.hpp"
#include "fixed/row_kernel.hpp"
#include "nn/tensor.hpp"

namespace csdml::kernels {

FloatDatapath::FloatDatapath(const nn::LstmConfig& config,
                             const nn::LstmParams& params)
    : config_(config), params_(params) {
  CSDML_REQUIRE(params_match_config(config, params), "params do not match config");
  build_tables();
}

void FloatDatapath::build_tables() {
  const std::size_t hidden = config_.hidden_dim;
  const std::size_t embed = config_.embed_dim;
  const std::size_t vocab = static_cast<std::size_t>(config_.vocab_size);
  const std::size_t gate_width = nn::kNumGates * hidden;

  // token_table_ row t = per-gate `bias + W_x·x_t` in the reference
  // operation order (bias first, then x contributions with the zero-input
  // skip accumulate_vec_mat applies), so the fused path stays bit-exact.
  token_table_ = nn::Matrix(vocab, gate_width);
  for (std::size_t t = 0; t < vocab; ++t) {
    double* row = token_table_.row(t);
    for (std::size_t g = 0; g < nn::kNumGates; ++g) {
      const nn::Vector& bias = params_.bias[g];
      for (std::size_t j = 0; j < hidden; ++j) row[g * hidden + j] = bias[j];
    }
    const double* x = params_.embedding.row(t);
    for (std::size_t g = 0; g < nn::kNumGates; ++g) {
      double* seg = row + g * hidden;
      const nn::Matrix& w_x = params_.w_x[g];
      for (std::size_t i = 0; i < embed; ++i) {
        const double xi = x[i];
        if (xi == 0.0) continue;
        const double* wrow = w_x.row(i);
        for (std::size_t j = 0; j < hidden; ++j) seg[j] += xi * wrow[j];
      }
    }
  }

  w_h_packed_ = nn::Matrix(hidden, gate_width);
  for (std::size_t g = 0; g < nn::kNumGates; ++g) {
    const nn::Matrix& w_h = params_.w_h[g];
    for (std::size_t i = 0; i < hidden; ++i) {
      const double* src = w_h.row(i);
      double* dst = w_h_packed_.row(i) + g * hidden;
      for (std::size_t j = 0; j < hidden; ++j) dst[j] = src[j];
    }
  }
}

nn::Vector FloatDatapath::preprocess(nn::TokenId token) const {
  CSDML_REQUIRE(token >= 0 && token < config_.vocab_size, "token out of range");
  nn::Vector x(config_.embed_dim);
  const double* row = params_.embedding.row(static_cast<std::size_t>(token));
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = row[i];
  return x;
}

GateVectors FloatDatapath::gates(const nn::Vector& x, const nn::Vector& h) const {
  const std::size_t hidden = config_.hidden_dim;
  GateVectors out;
  for (std::size_t g = 0; g < nn::kNumGates; ++g) {
    nn::Vector pre = params_.bias[g];
    nn::accumulate_vec_mat(x, params_.w_x[g], pre);
    nn::accumulate_vec_mat(h, params_.w_h[g], pre);
    out.act[g].resize(hidden);
    for (std::size_t j = 0; j < hidden; ++j) {
      out.act[g][j] = g == nn::kCandidate
                          ? nn::apply_cell_activation(config_.activation, pre[j])
                          : fixedpt::sigmoid(pre[j]);
    }
  }
  return out;
}

void FloatDatapath::hidden_state(const GateVectors& gates, nn::Vector& c,
                                 nn::Vector& h) const {
  const std::size_t hidden = config_.hidden_dim;
  CSDML_REQUIRE(c.size() == hidden && h.size() == hidden, "bad state size");
  for (std::size_t j = 0; j < hidden; ++j) {
    c[j] = gates.act[nn::kForget][j] * c[j] +
           gates.act[nn::kInput][j] * gates.act[nn::kCandidate][j];
    h[j] = gates.act[nn::kOutput][j] *
           nn::apply_cell_activation(config_.activation, c[j]);
  }
}

double FloatDatapath::dense(const nn::Vector& h) const {
  return fixedpt::sigmoid(nn::dot(params_.dense_w, h) + params_.dense_b);
}

double FloatDatapath::infer_reference(nn::TokenSpan sequence) const {
  CSDML_REQUIRE(!sequence.empty(), "empty sequence");
  nn::Vector h(config_.hidden_dim, 0.0);
  nn::Vector c(config_.hidden_dim, 0.0);
  for (const nn::TokenId token : sequence) {
    const nn::Vector x = preprocess(token);
    const GateVectors g = gates(x, h);
    hidden_state(g, c, h);
  }
  return dense(h);
}

void FloatDatapath::ensure_scratch(FloatScratch& scratch) const {
  const std::size_t hidden = config_.hidden_dim;
  scratch.pre.resize(nn::kNumGates * hidden);
  scratch.c.assign(hidden, 0.0);
  scratch.h.assign(hidden, 0.0);
}

double FloatDatapath::infer(nn::TokenSpan sequence) const {
  FloatScratch scratch;
  return infer(sequence, scratch);
}

double FloatDatapath::infer(nn::TokenSpan sequence, FloatScratch& scratch) const {
  CSDML_REQUIRE(!sequence.empty(), "empty sequence");
  const std::size_t hidden = config_.hidden_dim;
  ensure_scratch(scratch);
  double* pre = scratch.pre.data();
  double* c = scratch.c.data();
  double* h = scratch.h.data();
  const std::size_t gate_width = nn::kNumGates * hidden;

  for (const nn::TokenId token : sequence) {
    CSDML_REQUIRE(token >= 0 && token < config_.vocab_size, "token out of range");
    // kernel_preprocess + the W_x half of kernel_gates: one table row.
    const double* row = token_table_.row(static_cast<std::size_t>(token));
    std::copy(row, row + gate_width, pre);
    // Recurrent half: one unit-stride pass over the packed block. The
    // zero-input skip matches accumulate_vec_mat (and matters for the
    // all-zero initial state's bit pattern).
    for (std::size_t i = 0; i < hidden; ++i) {
      const double hi = h[i];
      if (hi == 0.0) continue;
      const double* wrow = w_h_packed_.row(i);
      for (std::size_t col = 0; col < gate_width; ++col) pre[col] += hi * wrow[col];
    }
    // Activations in place.
    for (std::size_t g = 0; g < nn::kNumGates; ++g) {
      double* seg = pre + g * hidden;
      if (g == nn::kCandidate) {
        for (std::size_t j = 0; j < hidden; ++j) {
          seg[j] = nn::apply_cell_activation(config_.activation, seg[j]);
        }
      } else {
        for (std::size_t j = 0; j < hidden; ++j) seg[j] = fixedpt::sigmoid(seg[j]);
      }
    }
    // kernel_hidden_state.
    const double* gi = pre + nn::kInput * hidden;
    const double* gf = pre + nn::kForget * hidden;
    const double* gc = pre + nn::kCandidate * hidden;
    const double* go = pre + nn::kOutput * hidden;
    for (std::size_t j = 0; j < hidden; ++j) {
      c[j] = gf[j] * c[j] + gi[j] * gc[j];
      h[j] = go[j] * nn::apply_cell_activation(config_.activation, c[j]);
    }
  }
  return dense(scratch.h);
}

// --- fixed-point datapath -------------------------------------------------

FixedDatapath::FixedDatapath(const nn::LstmConfig& config,
                             const nn::LstmParams& params, std::int64_t scale)
    : config_(config), params_(params), div_(scale) {
  CSDML_REQUIRE(params_match_config(config, params), "params do not match config");
  tables_ = build_fixed_tables(params, div_);
}

namespace {

std::int64_t scaled_raw(double v, std::int64_t scale) {
  return fixedpt::ScaledFixed::from_double(v, scale).raw();
}

/// Scales the per-gate matrices into rows [first, first + m[g].rows()) of
/// `packed`: entry (first + i, g·cols + j) is m[g](i, j), so one row spans
/// every gate with unit stride. `row` is the one-row staging buffer.
void scale_gates_into(const std::array<nn::Matrix, nn::kNumGates>& m,
                      std::int64_t scale, std::size_t first,
                      fixedpt::PackedRows& packed, std::vector<std::int64_t>& row) {
  const std::size_t cols = m[0].cols();
  for (std::size_t i = 0; i < m[0].rows(); ++i) {
    std::int64_t* dst = row.data();
    for (const nn::Matrix& gate : m) {
      const double* src = gate.row(i);
      for (std::size_t j = 0; j < cols; ++j) *dst++ = scaled_raw(src[j], scale);
    }
    packed.set_row(first + i, row);
  }
}

}  // namespace

FixedTables build_fixed_tables(const nn::LstmParams& params,
                               const fixedpt::InvariantScale& div) {
  const std::int64_t scale = div.scale();
  const std::size_t hidden = params.dense_w.size();
  const std::size_t embed = params.embedding.cols();
  FixedTables tables;
  const double* embedding = params.embedding.data();
  tables.embedding.reserve(params.embedding.size());
  for (std::size_t k = 0; k < params.embedding.size(); ++k) {
    tables.embedding.push_back(scaled_raw(embedding[k], scale));
  }
  tables.bias.reserve(nn::kNumGates * hidden);
  for (const nn::Vector& b : params.bias) {
    for (const double v : b) tables.bias.push_back(scaled_raw(v, scale));
  }
  tables.w_xh = fixedpt::PackedRows(div, embed + hidden, nn::kNumGates * hidden);
  std::vector<std::int64_t> row(nn::kNumGates * hidden);
  scale_gates_into(params.w_x, scale, 0, tables.w_xh, row);
  scale_gates_into(params.w_h, scale, embed, tables.w_xh, row);
  tables.dense_w.reserve(hidden);
  for (const double w : params.dense_w) tables.dense_w.push_back(scaled_raw(w, scale));
  tables.dense_b = scaled_raw(params.dense_b, scale);
  return tables;
}

FixedVector FixedDatapath::preprocess(nn::TokenId token) const {
  CSDML_REQUIRE(token >= 0 && token < config_.vocab_size, "token out of range");
  const double* row = params_.embedding.row(static_cast<std::size_t>(token));
  FixedVector x;
  x.reserve(config_.embed_dim);
  for (std::size_t i = 0; i < config_.embed_dim; ++i) x.push_back(fx(row[i]));
  return x;
}

FixedGateVectors FixedDatapath::gates(const FixedVector& x,
                                      const FixedVector& h) const {
  const std::size_t hidden = config_.hidden_dim;
  FixedGateVectors out;
  for (std::size_t g = 0; g < nn::kNumGates; ++g) {
    out.act[g].reserve(hidden);
    for (std::size_t j = 0; j < hidden; ++j) {
      fixedpt::ScaledFixed acc = fx(params_.bias[g][j]);
      for (std::size_t i = 0; i < x.size(); ++i) acc += fx(params_.w_x[g](i, j)) * x[i];
      for (std::size_t i = 0; i < h.size(); ++i) acc += fx(params_.w_h[g](i, j)) * h[i];
      // Gates use the PLAN sigmoid; the candidate uses softsign (the paper
      // replaces every tanh with softsign on the FPGA).
      out.act[g].push_back(g == nn::kCandidate ? fixedpt::softsign_fixed(acc)
                                               : fixedpt::sigmoid_fixed(acc));
    }
  }
  return out;
}

void FixedDatapath::hidden_state(const FixedGateVectors& gates, FixedVector& c,
                                 FixedVector& h) const {
  const std::size_t hidden = config_.hidden_dim;
  CSDML_REQUIRE(c.size() == hidden && h.size() == hidden, "bad state size");
  for (std::size_t j = 0; j < hidden; ++j) {
    c[j] = gates.act[nn::kForget][j] * c[j] +
           gates.act[nn::kInput][j] * gates.act[nn::kCandidate][j];
    h[j] = gates.act[nn::kOutput][j] * fixedpt::softsign_fixed(c[j]);
  }
}

double FixedDatapath::dense(const FixedVector& h) const {
  fixedpt::ScaledFixed acc = fx(params_.dense_b);
  for (std::size_t j = 0; j < h.size(); ++j) acc += fx(params_.dense_w[j]) * h[j];
  return fixedpt::sigmoid_fixed(acc).to_double();
}

double FixedDatapath::infer_reference(nn::TokenSpan sequence) const {
  CSDML_REQUIRE(!sequence.empty(), "empty sequence");
  FixedVector h(config_.hidden_dim, fixedpt::ScaledFixed::from_raw(0, scale()));
  FixedVector c(config_.hidden_dim, fixedpt::ScaledFixed::from_raw(0, scale()));
  for (const nn::TokenId token : sequence) {
    const FixedVector x = preprocess(token);
    const FixedGateVectors g = gates(x, h);
    hidden_state(g, c, h);
  }
  return dense(h);
}

void FixedDatapath::ensure_scratch(FixedScratch& scratch) const {
  const std::size_t hidden = config_.hidden_dim;
  scratch.pre.resize(nn::kNumGates * hidden);
  scratch.c.assign(hidden, 0);
  scratch.xh.assign(config_.embed_dim + hidden, 0);
}

double FixedDatapath::infer(nn::TokenSpan sequence) const {
  FixedScratch scratch;
  return infer(sequence, scratch);
}

double FixedDatapath::infer(nn::TokenSpan sequence, FixedScratch& scratch) const {
  CSDML_REQUIRE(!sequence.empty(), "empty sequence");
  const std::size_t hidden = config_.hidden_dim;
  const std::size_t embed = config_.embed_dim;
  const std::int64_t scale = div_.scale();
  ensure_scratch(scratch);
  std::int64_t* pre = scratch.pre.data();
  std::int64_t* c = scratch.c.data();
  std::int64_t* x = scratch.xh.data();
  std::int64_t* h = x + embed;
  const std::size_t gate_width = nn::kNumGates * hidden;
  const fixedpt::RowBlock w_xh = tables_.w_xh.block();
  using Fx = fixedpt::ScaledFixed;

  for (const nn::TokenId token : sequence) {
    CSDML_REQUIRE(token >= 0 && token < config_.vocab_size, "token out of range");
    // kernel_preprocess, then the four kernel_gates CUs as one GEMV of the
    // packed [W_x; W_h] block against [x_t; h_{t-1}] from the bias row.
    std::copy_n(tables_.embedding.data() + static_cast<std::size_t>(token) * embed,
                embed, x);
    std::copy(tables_.bias.begin(), tables_.bias.end(), pre);
    fixedpt::mul_add_rows(div_, w_xh, x, pre, gate_width);
    for (std::size_t g = 0; g < nn::kNumGates; ++g) {
      std::int64_t* seg = pre + g * hidden;
      if (g == nn::kCandidate) {
        for (std::size_t j = 0; j < hidden; ++j) {
          seg[j] = fixedpt::softsign_fixed(Fx::from_raw(seg[j], scale)).raw();
        }
      } else {
        for (std::size_t j = 0; j < hidden; ++j) {
          seg[j] = fixedpt::sigmoid_fixed(Fx::from_raw(seg[j], scale)).raw();
        }
      }
    }
    const std::int64_t* gi = pre + nn::kInput * hidden;
    const std::int64_t* gf = pre + nn::kForget * hidden;
    const std::int64_t* gc = pre + nn::kCandidate * hidden;
    const std::int64_t* go = pre + nn::kOutput * hidden;
    for (std::size_t j = 0; j < hidden; ++j) {
      c[j] = div_.mul(gf[j], c[j]) + div_.mul(gi[j], gc[j]);
      h[j] = div_.mul(go[j],
                      fixedpt::softsign_fixed(Fx::from_raw(c[j], scale)).raw());
    }
  }

  std::int64_t logit = tables_.dense_b;
  for (std::size_t j = 0; j < hidden; ++j) {
    logit += div_.mul(tables_.dense_w[j], h[j]);
  }
  return fixedpt::sigmoid_fixed(Fx::from_raw(logit, scale)).to_double();
}

}  // namespace csdml::kernels
