// Functional (value-level) implementations of the five kernels.
//
// The engine pairs these with the HLS cost model: the cost model says how
// long each kernel takes; these say what it computes. The float datapath
// reproduces the offline model bit-for-bit (same operation order as
// nn::LstmClassifier); the fixed datapath runs the paper's 10^6-scaled
// integer arithmetic, so tests can quantify exactly how much accuracy the
// fixed-point optimization costs.
//
// Two implementations coexist per datapath:
//
//   - the *reference* decomposition (preprocess / gates / hidden_state /
//     infer_reference): naive per-token loops that mirror Fig. 2 stage by
//     stage. Kept as the parity oracle and for stage-level tests. They read
//     only the datapath's parameters (the fixed ones scale each operand
//     with ScaledFixed::from_double when called), never the fused tables.
//   - the *fused* path (`infer`): every per-token state lives in a
//     reusable scratch, so there is no allocation after warm-up. The float
//     path precomputes `bias + W_x·x_t` per token into a vocab_size ×
//     4·hidden table (x_t is always one of vocab_size embedding rows) and
//     walks the four per-gate recurrent matrices packed into one row-major
//     hidden × 4·hidden block with unit stride. The fixed path stages only
//     the scaled parameters, like the paper's host program, and runs one
//     (embed+hidden)-wide GEMV per step over a packed [W_x; W_h] block
//     against [x_t; h_{t-1}], as each kernel_gates CU does. Results are
//     bit-identical to the reference (same per-accumulator operation order
//     for float; integer arithmetic is exact for fixed).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "fixed/row_kernel.hpp"
#include "fixed/scaled_fixed.hpp"
#include "nn/lstm.hpp"

namespace csdml::kernels {

/// True when every parameter tensor has the shape `config` implies:
/// embedding vocab × embed, each w_x embed × hidden, each w_h
/// hidden × hidden, each bias and dense_w hidden. The datapaths index
/// these tensors unchecked.
inline bool params_match_config(const nn::LstmConfig& config,
                                const nn::LstmParams& params) {
  const std::size_t embed = config.embed_dim;
  const std::size_t hidden = config.hidden_dim;
  bool ok = config.vocab_size >= 0 &&
            params.embedding.rows() == static_cast<std::size_t>(config.vocab_size) &&
            params.embedding.cols() == embed && params.dense_w.size() == hidden;
  for (std::size_t g = 0; g < nn::kNumGates; ++g) {
    ok = ok && params.w_x[g].rows() == embed && params.w_x[g].cols() == hidden &&
         params.w_h[g].rows() == hidden && params.w_h[g].cols() == hidden &&
         params.bias[g].size() == hidden;
  }
  return ok;
}

/// Output of the four parallel kernel_gates CUs for one item.
struct GateVectors {
  std::array<nn::Vector, nn::kNumGates> act;
};

/// Reusable per-thread scratch for FloatDatapath::infer. Sized lazily on
/// first use; reusing one across calls makes the hot loop allocation-free.
struct FloatScratch {
  nn::Vector pre;  ///< 4·hidden gate pre-activations, then activations
  nn::Vector c;
  nn::Vector h;
};

/// Float datapath: exactly the offline model's arithmetic, reorganised
/// into the kernel decomposition of Fig. 2.
class FloatDatapath {
 public:
  FloatDatapath(const nn::LstmConfig& config, const nn::LstmParams& params);

  const nn::LstmConfig& config() const { return config_; }
  const nn::LstmParams& params() const { return params_; }

  /// kernel_preprocess: one-hot × embedding matrix.
  nn::Vector preprocess(nn::TokenId token) const;
  /// kernel_gates ×4: gate vectors from x_t and h_{t-1}.
  GateVectors gates(const nn::Vector& x, const nn::Vector& h) const;
  /// kernel_hidden_state: updates c and h in place from the gate vectors.
  void hidden_state(const GateVectors& gates, nn::Vector& c, nn::Vector& h) const;
  /// Final fully-connected layer + sigmoid.
  double dense(const nn::Vector& h) const;

  /// Whole-sequence forward pass through the fused table-driven kernels.
  double infer(nn::TokenSpan sequence) const;
  /// Same, reusing caller-owned scratch (allocation-free once warm).
  double infer(nn::TokenSpan sequence, FloatScratch& scratch) const;

  /// The seed's unoptimized stage-by-stage loop — the parity/bench oracle.
  double infer_reference(nn::TokenSpan sequence) const;

  /// vocab_size × 4·hidden precomputed `bias + W_x·x_token` table.
  const nn::Matrix& token_gate_table() const { return token_table_; }

 private:
  void build_tables();
  void ensure_scratch(FloatScratch& scratch) const;

  nn::LstmConfig config_;
  nn::LstmParams params_;
  nn::Matrix token_table_;  ///< vocab × 4·hidden: bias + W_x·embedding row
  nn::Matrix w_h_packed_;   ///< hidden × 4·hidden: w_h[g](i,j) at (i, g·hidden+j)
};

using FixedVector = std::vector<fixedpt::ScaledFixed>;

struct FixedGateVectors {
  std::array<FixedVector, nn::kNumGates> act;
};

/// The scaled parameters in the layouts the fused fixed-point forward
/// reads, every element at the datapath's one scale, gates in nn::Gate
/// order. Nothing else: the forward computes every product per step.
struct FixedTables {
  std::vector<std::int64_t> embedding;  ///< vocab × embed, row t is x_t
  std::vector<std::int64_t> bias;       ///< 4·hidden: bias[g][j] at g·hidden+j
  /// (embed+hidden) × 4·hidden: w_x[g](i,j) at row i, col g·hidden+j, then
  /// w_h[g](i,j) at row embed+i; its x_limit covers the whole block.
  fixedpt::PackedRows w_xh;
  std::vector<std::int64_t> dense_w;  ///< hidden
  std::int64_t dense_b{0};            ///< the dense layer's bias
};

/// Weight staging for the fixed datapath: scales each `double` parameter
/// once (ScaledFixed::from_double, so a NaN or out-of-range weight throws
/// its PreconditionError) straight into the layout the forward reads.
FixedTables build_fixed_tables(const nn::LstmParams& params,
                               const fixedpt::InvariantScale& div);

/// Reusable per-thread scratch for FixedDatapath::infer (raw-integer
/// domain; every element carries the datapath's single scale implicitly).
struct FixedScratch {
  std::vector<std::int64_t> pre;  ///< 4·hidden raw pre-activations/activations
  std::vector<std::int64_t> c;
  std::vector<std::int64_t> xh;   ///< [x_t; h]: embed, then hidden elements
};

/// Fixed datapath: the paper's integer arithmetic at `scale` (paper: 10^6),
/// every multiply corrected per the paper's scheme.
class FixedDatapath {
 public:
  FixedDatapath(const nn::LstmConfig& config, const nn::LstmParams& params,
                std::int64_t scale = fixedpt::kPaperScale);

  const nn::LstmConfig& config() const { return config_; }
  const nn::LstmParams& params() const { return params_; }
  std::int64_t scale() const { return div_.scale(); }

  FixedVector preprocess(nn::TokenId token) const;
  FixedGateVectors gates(const FixedVector& x, const FixedVector& h) const;
  void hidden_state(const FixedGateVectors& gates, FixedVector& c,
                    FixedVector& h) const;
  double dense(const FixedVector& h) const;

  /// Fused forward pass; bit-identical to infer_reference.
  double infer(nn::TokenSpan sequence) const;
  double infer(nn::TokenSpan sequence, FixedScratch& scratch) const;

  /// The seed's unoptimized stage-by-stage loop — the parity/bench oracle.
  double infer_reference(nn::TokenSpan sequence) const;

 private:
  void ensure_scratch(FixedScratch& scratch) const;
  fixedpt::ScaledFixed fx(double v) const {
    return fixedpt::ScaledFixed::from_double(v, div_.scale());
  }

  nn::LstmConfig config_;
  nn::LstmParams params_;  ///< the reference path's operands
  const fixedpt::InvariantScale div_;  ///< the scale and its product correction
  FixedTables tables_;  ///< fused-path layouts
};

}  // namespace csdml::kernels
