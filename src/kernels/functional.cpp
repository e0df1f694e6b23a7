#include "kernels/functional.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "fixed/activations.hpp"
#include "fixed/row_kernel.hpp"
#include "nn/tensor.hpp"

namespace csdml::kernels {

FloatDatapath::FloatDatapath(const nn::LstmConfig& config,
                             const nn::LstmParams& params)
    : config_(config), owned_(params) {
  params_ = &owned_;
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
      const nn::Vector& bias = params_->bias[g];
      for (std::size_t j = 0; j < hidden; ++j) row[g * hidden + j] = bias[j];
    }
    const double* x = params_->embedding.row(t);
    for (std::size_t g = 0; g < nn::kNumGates; ++g) {
      double* seg = row + g * hidden;
      const nn::Matrix& w_x = params_->w_x[g];
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
    const nn::Matrix& w_h = params_->w_h[g];
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
  const double* row = params_->embedding.row(static_cast<std::size_t>(token));
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = row[i];
  return x;
}

GateVectors FloatDatapath::gates(const nn::Vector& x, const nn::Vector& h) const {
  const std::size_t hidden = config_.hidden_dim;
  GateVectors out;
  for (std::size_t g = 0; g < nn::kNumGates; ++g) {
    nn::Vector pre = params_->bias[g];
    nn::accumulate_vec_mat(x, params_->w_x[g], pre);
    nn::accumulate_vec_mat(h, params_->w_h[g], pre);
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
  return fixedpt::sigmoid(nn::dot(params_->dense_w, h) + params_->dense_b);
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
    : config_(config), div_(scale) {
  CSDML_REQUIRE(scale > 0, "scale must be positive");
  CSDML_REQUIRE(params_match_config(config, params), "params do not match config");
  embedding_rows_.reserve(static_cast<std::size_t>(config.vocab_size));
  for (std::size_t r = 0; r < params.embedding.rows(); ++r) {
    embedding_rows_.push_back(scaled({params.embedding.row(r), config.embed_dim}, scale));
  }
  for (std::size_t g = 0; g < nn::kNumGates; ++g) {
    w_x_cols_[g] = scaled_columns(params.w_x[g], scale);
    w_h_cols_[g] = scaled_columns(params.w_h[g], scale);
    bias_[g] = scaled(params.bias[g], scale);
  }
  dense_w_ = scaled(params.dense_w, scale);
  dense_b_ = fixedpt::ScaledFixed::from_double(params.dense_b, scale);
  tables_ = build_fixed_tables(embedding_rows_, w_x_cols_, w_h_cols_, bias_,
                               dense_w_, div_);
}

FixedVector scaled(std::span<const double> values, std::int64_t scale) {
  FixedVector out;
  out.reserve(values.size());
  for (const double v : values) {
    out.push_back(fixedpt::ScaledFixed::from_double(v, scale));
  }
  return out;
}

std::vector<FixedVector> scaled_columns(const nn::Matrix& m, std::int64_t scale) {
  std::vector<FixedVector> cols(m.cols());
  for (std::size_t j = 0; j < m.cols(); ++j) {
    cols[j].reserve(m.rows());
    for (std::size_t i = 0; i < m.rows(); ++i) {
      cols[j].push_back(fixedpt::ScaledFixed::from_double(m(i, j), scale));
    }
  }
  return cols;
}

namespace {

/// Per-gate columns packed row-major: entry (i, g·hidden + j) is element i
/// of column j of gate g, so one row spans every gate with unit stride.
std::vector<std::int64_t> pack_rows(std::span<const std::vector<FixedVector>> cols,
                                    std::size_t rows, std::size_t hidden) {
  const std::size_t width = cols.size() * hidden;
  std::vector<std::int64_t> packed(rows * width);
  for (std::size_t g = 0; g < cols.size(); ++g) {
    for (std::size_t j = 0; j < hidden; ++j) {
      const FixedVector& col = cols[g][j];
      for (std::size_t i = 0; i < rows; ++i) {
        packed[i * width + g * hidden + j] = col[i].raw();
      }
    }
  }
  return packed;
}

}  // namespace

FixedTables build_fixed_tables(std::span<const FixedVector> embedding_rows,
                               std::span<const std::vector<FixedVector>> w_x_cols,
                               std::span<const std::vector<FixedVector>> w_h_cols,
                               std::span<const FixedVector> bias,
                               const FixedVector& dense_w,
                               const fixedpt::InvariantScale& div) {
  const std::size_t gates = w_x_cols.size();
  const std::size_t hidden = dense_w.size();
  const std::size_t gate_width = gates * hidden;
  const std::size_t embed = gate_width == 0 ? 0 : w_x_cols[0][0].size();
  FixedTables tables;

  // Raw-integer `bias + W_x·x_t` per token. Integer addition is exact, so
  // folding the x half here, one embedding element at a time over a
  // packed W_x row (the forward's unit-stride shape), leaves the fused
  // result bit-identical to the reference accumulation order.
  std::vector<std::int64_t> bias_row(gate_width);
  for (std::size_t g = 0; g < gates; ++g) {
    for (std::size_t j = 0; j < hidden; ++j) bias_row[g * hidden + j] = bias[g][j].raw();
  }
  const std::vector<std::int64_t> w_x_packed = pack_rows(w_x_cols, embed, hidden);
  const std::int64_t w_x_limit = fixedpt::row_x_limit(div, w_x_packed);
  tables.token_table.resize(embedding_rows.size() * gate_width);
  for (std::size_t t = 0; t < embedding_rows.size(); ++t) {
    std::int64_t* row = tables.token_table.data() + t * gate_width;
    std::copy(bias_row.begin(), bias_row.end(), row);
    for (std::size_t i = 0; i < embed; ++i) {
      fixedpt::mul_add_row(div, w_x_packed.data() + i * gate_width,
                           embedding_rows[t][i].raw(), w_x_limit, row, gate_width);
    }
  }

  tables.w_h_packed = pack_rows(w_h_cols, hidden, hidden);
  tables.w_h_limit = fixedpt::row_x_limit(div, tables.w_h_packed);
  tables.dense_w.reserve(hidden);
  for (const fixedpt::ScaledFixed w : dense_w) tables.dense_w.push_back(w.raw());
  return tables;
}

FixedVector FixedDatapath::preprocess(nn::TokenId token) const {
  CSDML_REQUIRE(token >= 0 && token < config_.vocab_size, "token out of range");
  return embedding_rows_[static_cast<std::size_t>(token)];
}

FixedGateVectors FixedDatapath::gates(const FixedVector& x,
                                      const FixedVector& h) const {
  const std::size_t hidden = config_.hidden_dim;
  FixedGateVectors out;
  for (std::size_t g = 0; g < nn::kNumGates; ++g) {
    out.act[g].reserve(hidden);
    for (std::size_t j = 0; j < hidden; ++j) {
      fixedpt::ScaledFixed acc = bias_[g][j];
      const FixedVector& wx = w_x_cols_[g][j];
      for (std::size_t i = 0; i < x.size(); ++i) acc += wx[i] * x[i];
      const FixedVector& wh = w_h_cols_[g][j];
      for (std::size_t i = 0; i < h.size(); ++i) acc += wh[i] * h[i];
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
  fixedpt::ScaledFixed acc = dense_b_;
  for (std::size_t j = 0; j < h.size(); ++j) acc += dense_w_[j] * h[j];
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
  scratch.h.assign(hidden, 0);
}

double FixedDatapath::infer(nn::TokenSpan sequence) const {
  FixedScratch scratch;
  return infer(sequence, scratch);
}

double FixedDatapath::infer(nn::TokenSpan sequence, FixedScratch& scratch) const {
  CSDML_REQUIRE(!sequence.empty(), "empty sequence");
  const std::size_t hidden = config_.hidden_dim;
  const std::int64_t scale = div_.scale();
  ensure_scratch(scratch);
  std::int64_t* pre = scratch.pre.data();
  std::int64_t* c = scratch.c.data();
  std::int64_t* h = scratch.h.data();
  const std::size_t gate_width = nn::kNumGates * hidden;
  using Fx = fixedpt::ScaledFixed;

  for (const nn::TokenId token : sequence) {
    CSDML_REQUIRE(token >= 0 && token < config_.vocab_size, "token out of range");
    const std::int64_t* row =
        tables_.token_table.data() + static_cast<std::size_t>(token) * gate_width;
    std::copy(row, row + gate_width, pre);
    for (std::size_t i = 0; i < hidden; ++i) {
      if (h[i] == 0) continue;  // exact: skipped products are exactly zero
      fixedpt::mul_add_row(div_, tables_.w_h_packed.data() + i * gate_width, h[i],
                           tables_.w_h_limit, pre, gate_width);
    }
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

  std::int64_t logit = dense_b_.raw();
  for (std::size_t j = 0; j < hidden; ++j) {
    logit += div_.mul(tables_.dense_w[j], h[j]);
  }
  return fixedpt::sigmoid_fixed(Fx::from_raw(logit, scale)).to_double();
}

}  // namespace csdml::kernels
