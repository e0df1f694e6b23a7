#include "kernels/mixed.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "common/error.hpp"
#include "fixed/qfixed.hpp"
#include "fixed/scaled_fixed.hpp"

namespace csdml::kernels {

namespace {

using fixedpt::QFixed;

/// Exact-raw conversion between Q formats (arithmetic shift).
template <typename QTo, typename QFrom>
QTo convert(QFrom value) {
  constexpr int shift = QTo::kFracBits - QFrom::kFracBits;
  if constexpr (shift >= 0) {
    return QTo::from_raw(value.raw() << shift);
  } else {
    // Round to nearest on narrowing.
    const std::int64_t half = std::int64_t{1} << (-shift - 1);
    return QTo::from_raw((value.raw() + (value.raw() >= 0 ? half : -half)) >>
                         (-shift));
  }
}

/// PLAN sigmoid in pure Q arithmetic (coefficients are exact binary).
template <typename Q>
Q sigmoid_plan_q(Q x) {
  const std::int64_t one = Q::kOne;
  const std::uint64_t umag = fixedpt::magnitude(x.raw());
  if (umag >= static_cast<std::uint64_t>(5 * one)) {
    return Q::from_raw(x.raw() >= 0 ? one : 0);
  }
  const std::int64_t mag = static_cast<std::int64_t>(umag);  // < 5·one
  std::int64_t half;
  if (8 * mag >= 19 * one) {  // |x| >= 2.375
    half = mag / 32 + (27 * one) / 32;
  } else if (mag >= one) {
    half = mag / 8 + (5 * one) / 8;
  } else {
    half = mag / 4 + one / 2;
  }
  return Q::from_raw(x.raw() >= 0 ? half : one - half);
}

/// softsign in pure Q arithmetic: raw * one / (|raw| + one).
template <typename Q>
Q softsign_q(Q x) {
  const std::int64_t one = Q::kOne;
  const std::int64_t raw = x.raw();
  const __int128 numerator = static_cast<__int128>(raw) * one;
  const __int128 denominator = static_cast<__int128>(fixedpt::magnitude(raw)) + one;
  const __int128 half = denominator / 2;
  const __int128 adjusted = numerator >= 0 ? numerator + half : numerator - half;
  return Q::from_raw(static_cast<std::int64_t>(adjusted / denominator));
}

template <typename GateQ, typename StateQ>
class MixedDatapath final : public IQuantizedInference {
 public:
  MixedDatapath(const nn::LstmConfig& config, const nn::LstmParams& params,
                std::string description)
      : config_(config), description_(std::move(description)) {
    const std::size_t hidden = config.hidden_dim;
    const std::size_t embed = config.embed_dim;
    const std::size_t gate_width = nn::kNumGates * hidden;

    // Same fusion as the deployed datapaths: x_t is one of vocab_size
    // embedding rows, so `bias + W_x·x_t` is a per-token constant —
    // precompute it once in the narrow gate format (integer arithmetic
    // keeps this exactly the reference accumulation).
    std::vector<std::vector<GateQ>> w_x_cols(gate_width);
    std::vector<GateQ> bias(gate_width);
    for (std::size_t g = 0; g < nn::kNumGates; ++g) {
      for (std::size_t j = 0; j < hidden; ++j) {
        auto& col = w_x_cols[g * hidden + j];
        col.reserve(embed);
        for (std::size_t i = 0; i < embed; ++i) {
          col.push_back(GateQ::from_double(params.w_x[g](i, j)));
        }
        bias[g * hidden + j] = GateQ::from_double(params.bias[g][j]);
      }
    }
    token_table_.resize(static_cast<std::size_t>(config.vocab_size) * gate_width);
    std::vector<GateQ> x(embed);
    for (std::size_t t = 0; t < static_cast<std::size_t>(config.vocab_size); ++t) {
      for (std::size_t i = 0; i < embed; ++i) {
        x[i] = GateQ::from_double(params.embedding(t, i));
      }
      GateQ* row = token_table_.data() + t * gate_width;
      for (std::size_t col = 0; col < gate_width; ++col) {
        GateQ acc = bias[col];
        for (std::size_t i = 0; i < embed; ++i) acc += w_x_cols[col][i] * x[i];
        row[col] = acc;
      }
    }
    // Packed row-major recurrent block: w_h[g](i,j) at (i, g·hidden + j).
    w_h_packed_.resize(hidden * gate_width);
    for (std::size_t g = 0; g < nn::kNumGates; ++g) {
      for (std::size_t i = 0; i < hidden; ++i) {
        for (std::size_t j = 0; j < hidden; ++j) {
          w_h_packed_[i * gate_width + g * hidden + j] =
              GateQ::from_double(params.w_h[g](i, j));
        }
      }
    }
    dense_w_.reserve(hidden);
    for (std::size_t j = 0; j < hidden; ++j) {
      dense_w_.push_back(StateQ::from_double(params.dense_w[j]));
    }
    dense_b_ = StateQ::from_double(params.dense_b);
  }

  double infer(nn::TokenSpan sequence) const override {
    CSDML_REQUIRE(!sequence.empty(), "empty sequence");
    const std::size_t hidden = config_.hidden_dim;
    const std::size_t gate_width = nn::kNumGates * hidden;
    std::vector<StateQ> c(hidden, StateQ::from_raw(0));
    std::vector<StateQ> h(hidden, StateQ::from_raw(0));
    std::vector<GateQ> h_narrow(hidden, GateQ::from_raw(0));
    std::vector<GateQ> pre(gate_width);

    for (const nn::TokenId token : sequence) {
      CSDML_REQUIRE(token >= 0 && token < config_.vocab_size, "token range");
      // kernel_preprocess + the W_x half of kernel_gates: one table row.
      const GateQ* row =
          token_table_.data() + static_cast<std::size_t>(token) * gate_width;
      std::copy(row, row + gate_width, pre.begin());
      for (std::size_t i = 0; i < hidden; ++i) {
        const GateQ hi = h_narrow[i];
        if (hi.raw() == 0) continue;  // exact: products of zero are zero
        const GateQ* wrow = w_h_packed_.data() + i * gate_width;
        for (std::size_t col = 0; col < gate_width; ++col) {
          pre[col] += wrow[col] * hi;
        }
      }
      for (std::size_t g = 0; g < nn::kNumGates; ++g) {
        GateQ* seg = pre.data() + g * hidden;
        for (std::size_t j = 0; j < hidden; ++j) {
          seg[j] = g == nn::kCandidate ? softsign_q(seg[j])
                                       : sigmoid_plan_q(seg[j]);
        }
      }
      // kernel_hidden_state in the wide format.
      for (std::size_t j = 0; j < hidden; ++j) {
        const StateQ i_gate = convert<StateQ>(pre[nn::kInput * hidden + j]);
        const StateQ f_gate = convert<StateQ>(pre[nn::kForget * hidden + j]);
        const StateQ g_cand = convert<StateQ>(pre[nn::kCandidate * hidden + j]);
        const StateQ o_gate = convert<StateQ>(pre[nn::kOutput * hidden + j]);
        c[j] = f_gate * c[j] + i_gate * g_cand;
        h[j] = o_gate * softsign_q(c[j]);
        h_narrow[j] = convert<GateQ>(h[j]);
      }
    }

    StateQ logit = dense_b_;
    for (std::size_t j = 0; j < hidden; ++j) logit += dense_w_[j] * h[j];
    return sigmoid_plan_q(logit).to_double();
  }

  std::string describe() const override { return description_; }

 private:
  nn::LstmConfig config_;
  std::string description_;
  std::vector<GateQ> token_table_;  ///< vocab × 4·hidden: bias + W_x·x_token
  std::vector<GateQ> w_h_packed_;   ///< hidden × 4·hidden
  std::vector<StateQ> dense_w_;
  StateQ dense_b_{};
};

}  // namespace

const char* precision_name(PrecisionPreset preset) {
  switch (preset) {
    case PrecisionPreset::UniformQ10: return "uniform-q10";
    case PrecisionPreset::UniformQ16: return "uniform-q16";
    case PrecisionPreset::UniformQ24: return "uniform-q24";
    case PrecisionPreset::GatesQ16StateQ24: return "mixed-q16/q24";
  }
  throw PreconditionError("unknown precision preset");
}

std::unique_ptr<IQuantizedInference> make_mixed_datapath(
    const nn::LstmConfig& config, const nn::LstmParams& params,
    PrecisionPreset preset) {
  using Q10 = QFixed<10>;
  using Q16 = fixedpt::Q16;
  using Q24 = fixedpt::Q24;
  switch (preset) {
    case PrecisionPreset::UniformQ10:
      return std::make_unique<MixedDatapath<Q10, Q10>>(config, params,
                                                       "Q10 gates / Q10 state");
    case PrecisionPreset::UniformQ16:
      return std::make_unique<MixedDatapath<Q16, Q16>>(config, params,
                                                       "Q16 gates / Q16 state");
    case PrecisionPreset::UniformQ24:
      return std::make_unique<MixedDatapath<Q24, Q24>>(config, params,
                                                       "Q24 gates / Q24 state");
    case PrecisionPreset::GatesQ16StateQ24:
      return std::make_unique<MixedDatapath<Q16, Q24>>(config, params,
                                                       "Q16 gates / Q24 state");
  }
  throw PreconditionError("unknown precision preset");
}

std::uint32_t dsp_per_gate_mac(PrecisionPreset preset) {
  switch (preset) {
    case PrecisionPreset::UniformQ10:
    case PrecisionPreset::UniformQ16:
    case PrecisionPreset::GatesQ16StateQ24:
      return 1;  // operands fit the DSP48E2's 18x27 multiplier
    case PrecisionPreset::UniformQ24:
      return 2;  // needs a two-slice cascade
  }
  throw PreconditionError("unknown precision preset");
}

}  // namespace csdml::kernels
