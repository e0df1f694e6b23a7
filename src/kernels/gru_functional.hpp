// Fixed-point GRU datapath — the functional half of the GRU port, using
// the same arithmetic the deployed LSTM build uses: the paper's 10^6
// decimal scaling with post-product correction, PLAN sigmoid for the z/r
// gates, softsign for the candidate.
//
// Like the LSTM datapaths, `infer` runs the fused table-driven fast path
// (precomputed vocab × 3·hidden `bias + W_x·x_token` table, packed
// hidden × 3·hidden recurrent block, reusable scratch); integer arithmetic
// makes it bit-identical to `infer_reference`, the seed's naive loop.
#pragma once

#include <cstdint>
#include <vector>

#include "fixed/scaled_fixed.hpp"
#include "kernels/functional.hpp"
#include "nn/gru.hpp"

namespace csdml::kernels {

/// Reusable per-thread scratch for FixedGruDatapath::infer.
struct GruFixedScratch {
  std::vector<std::int64_t> pre;  ///< 3·hidden raw pre-activations
  std::vector<std::int64_t> z;
  std::vector<std::int64_t> r;
  std::vector<std::int64_t> h;
};

class FixedGruDatapath {
 public:
  FixedGruDatapath(const nn::GruConfig& config, const nn::GruParams& params,
                   std::int64_t scale = fixedpt::kPaperScale);

  const nn::GruConfig& config() const { return config_; }
  const nn::GruParams& params() const { return params_; }
  std::int64_t scale() const { return div_.scale(); }

  /// Forward pass -> ransomware probability (fused table-driven path).
  double infer(nn::TokenSpan sequence) const;
  double infer(nn::TokenSpan sequence, GruFixedScratch& scratch) const;
  /// The seed's unoptimized loop — the parity oracle. It scales each
  /// operand from the parameters when called and never reads the tables.
  double infer_reference(nn::TokenSpan sequence) const;
  int predict(nn::TokenSpan sequence) const {
    return infer(sequence) >= 0.5 ? 1 : 0;
  }

 private:
  using Fx = fixedpt::ScaledFixed;
  Fx fx(double v) const { return Fx::from_double(v, div_.scale()); }

  nn::GruConfig config_;
  nn::GruParams params_;  ///< the reference path's operands
  const fixedpt::InvariantScale div_;  ///< the scale and its product correction
  FixedTables tables_;  ///< fused-path layouts, 3 gates
};

}  // namespace csdml::kernels
