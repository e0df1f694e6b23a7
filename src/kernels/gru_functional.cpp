#include "kernels/gru_functional.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "fixed/activations.hpp"
#include "fixed/row_kernel.hpp"

namespace csdml::kernels {

FixedGruDatapath::FixedGruDatapath(const nn::GruConfig& config,
                                   const nn::GruParams& params,
                                   std::int64_t scale)
    : config_(config), params_(params), div_(scale) {
  CSDML_REQUIRE(params_match_config(config, params), "params do not match config");
  tables_ = build_fixed_tables(params.embedding, params.w_x, params.w_h, params.bias,
                               params.dense_w, params.dense_b, div_);
}

double FixedGruDatapath::infer_reference(nn::TokenSpan sequence) const {
  CSDML_REQUIRE(!sequence.empty(), "empty sequence");
  const std::size_t hidden = config_.hidden_dim;
  const Fx zero = Fx::from_raw(0, scale());
  const Fx one = fx(1.0);
  std::vector<Fx> h(hidden, zero);
  std::vector<Fx> z(hidden, zero);
  std::vector<Fx> r(hidden, zero);
  std::vector<Fx> g(hidden, zero);
  std::vector<Fx> x(config_.embed_dim, zero);

  for (const nn::TokenId token : sequence) {
    CSDML_REQUIRE(token >= 0 && token < config_.vocab_size, "token range");
    const double* row = params_.embedding.row(static_cast<std::size_t>(token));
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = fx(row[i]);

    // z and r gates (PLAN sigmoid).
    for (const std::size_t gate : {nn::kUpdate, nn::kReset}) {
      auto& out = gate == nn::kUpdate ? z : r;
      for (std::size_t j = 0; j < hidden; ++j) {
        Fx acc = fx(params_.bias[gate][j]);
        const nn::Matrix& wx = params_.w_x[gate];
        for (std::size_t i = 0; i < x.size(); ++i) acc += fx(wx(i, j)) * x[i];
        const nn::Matrix& wh = params_.w_h[gate];
        for (std::size_t i = 0; i < hidden; ++i) acc += fx(wh(i, j)) * h[i];
        out[j] = fixedpt::sigmoid_fixed(acc);
      }
    }
    // Candidate over r ⊙ h (softsign).
    for (std::size_t j = 0; j < hidden; ++j) {
      Fx acc = fx(params_.bias[nn::kCandidateGate][j]);
      const nn::Matrix& wx = params_.w_x[nn::kCandidateGate];
      for (std::size_t i = 0; i < x.size(); ++i) acc += fx(wx(i, j)) * x[i];
      const nn::Matrix& wh = params_.w_h[nn::kCandidateGate];
      for (std::size_t i = 0; i < hidden; ++i) acc += fx(wh(i, j)) * (r[i] * h[i]);
      g[j] = fixedpt::softsign_fixed(acc);
    }
    // h' = (1 - z) h + z g.
    for (std::size_t j = 0; j < hidden; ++j) {
      h[j] = (one - z[j]) * h[j] + z[j] * g[j];
    }
  }

  Fx logit = fx(params_.dense_b);
  for (std::size_t j = 0; j < hidden; ++j) logit += fx(params_.dense_w[j]) * h[j];
  return fixedpt::sigmoid_fixed(logit).to_double();
}

double FixedGruDatapath::infer(nn::TokenSpan sequence) const {
  GruFixedScratch scratch;
  return infer(sequence, scratch);
}

double FixedGruDatapath::infer(nn::TokenSpan sequence,
                               GruFixedScratch& scratch) const {
  CSDML_REQUIRE(!sequence.empty(), "empty sequence");
  const std::size_t hidden = config_.hidden_dim;
  const std::int64_t scale = div_.scale();
  const std::int64_t one_raw = fx(1.0).raw();
  const std::size_t gate_width = nn::kNumGruGates * hidden;
  scratch.pre.resize(gate_width);
  scratch.z.resize(hidden);
  scratch.r.resize(hidden);
  scratch.h.assign(hidden, 0);
  std::int64_t* pre = scratch.pre.data();
  std::int64_t* z = scratch.z.data();
  std::int64_t* r = scratch.r.data();
  std::int64_t* h = scratch.h.data();

  for (const nn::TokenId token : sequence) {
    CSDML_REQUIRE(token >= 0 && token < config_.vocab_size, "token range");
    const std::int64_t* row =
        tables_.token_table.data() + static_cast<std::size_t>(token) * gate_width;
    std::copy(row, row + gate_width, pre);

    // Recurrent half for z and r (the candidate's recurrent term needs r,
    // computed below, so its columns wait for the second pass).
    const std::size_t zr_width = 2 * hidden;
    for (std::size_t i = 0; i < hidden; ++i) {
      if (h[i] == 0) continue;  // exact: skipped products are exactly zero
      fixedpt::mul_add_row(div_, tables_.w_h_packed.data() + i * gate_width, h[i],
                           tables_.w_h_limit, pre, zr_width);
    }
    for (std::size_t j = 0; j < hidden; ++j) {
      z[j] = fixedpt::sigmoid_fixed(Fx::from_raw(pre[nn::kUpdate * hidden + j],
                                                 scale))
                 .raw();
      r[j] = fixedpt::sigmoid_fixed(Fx::from_raw(pre[nn::kReset * hidden + j],
                                                 scale))
                 .raw();
    }
    // Candidate recurrent half over r ⊙ h.
    std::int64_t* cand = pre + nn::kCandidateGate * hidden;
    for (std::size_t i = 0; i < hidden; ++i) {
      const std::int64_t rh = div_.mul(r[i], h[i]);
      if (rh == 0) continue;
      fixedpt::mul_add_row(
          div_, tables_.w_h_packed.data() + i * gate_width + nn::kCandidateGate * hidden,
          rh, tables_.w_h_limit, cand, hidden);
    }
    // h' = (1 - z) h + z g.
    for (std::size_t j = 0; j < hidden; ++j) {
      const std::int64_t g_act =
          fixedpt::softsign_fixed(Fx::from_raw(cand[j], scale)).raw();
      h[j] = div_.mul(one_raw - z[j], h[j]) + div_.mul(z[j], g_act);
    }
  }

  std::int64_t logit = tables_.dense_b;
  for (std::size_t j = 0; j < hidden; ++j) {
    logit += div_.mul(tables_.dense_w[j], h[j]);
  }
  return fixedpt::sigmoid_fixed(Fx::from_raw(logit, scale)).to_double();
}

}  // namespace csdml::kernels
