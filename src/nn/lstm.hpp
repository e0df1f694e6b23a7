// The paper's classifier: embedding lookup -> single LSTM layer -> dense
// head with sigmoid output, trained offline and then ported to the CSD.
//
// With the paper's configuration (vocabulary 278, embedding 8, hidden 32)
// the parameter counts match the paper exactly: 2,224 embedding
// parameters, 5,248 LSTM parameters (7,472 total) plus a 32-weight + 1-bias
// fully-connected layer.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "nn/dataset.hpp"
#include "nn/tensor.hpp"

namespace csdml::nn {

/// Activation applied to the candidate vector and the cell state. The
/// paper replaces tanh with softsign on the FPGA; training with the same
/// activation keeps the offline and in-storage models identical.
enum class CellActivation { Tanh, Softsign };

double apply_cell_activation(CellActivation activation, double x);
/// Derivative with respect to the pre-activation input.
double cell_activation_derivative(CellActivation activation, double x);

struct LstmConfig {
  TokenId vocab_size{278};
  std::size_t embed_dim{8};
  std::size_t hidden_dim{32};
  CellActivation activation{CellActivation::Softsign};

  bool operator==(const LstmConfig&) const = default;
};

/// Gate indices; order fixed across weight files and kernels.
enum Gate : std::size_t { kInput = 0, kForget = 1, kCandidate = 2, kOutput = 3 };
inline constexpr std::size_t kNumGates = 4;
inline constexpr std::array<const char*, kNumGates> kGateNames{"input", "forget",
                                                               "candidate", "output"};

struct LstmParams {
  Matrix embedding;                       // vocab × embed
  std::array<Matrix, kNumGates> w_x;      // embed × hidden, per gate
  std::array<Matrix, kNumGates> w_h;      // hidden × hidden, per gate
  std::array<Vector, kNumGates> bias;     // hidden, per gate
  Vector dense_w;                         // hidden
  double dense_b{0.0};

  static LstmParams zeros(const LstmConfig& config);
  static LstmParams glorot(const LstmConfig& config, Rng& rng);

  /// Pointers to every scalar parameter in a stable, documented order
  /// (embedding row-major, then per-gate w_x, w_h, bias in Gate order,
  /// then dense weights, then dense bias). Optimisers iterate this.
  std::vector<double*> parameter_pointers();

  std::size_t embedding_parameter_count() const { return embedding.size(); }
  std::size_t lstm_parameter_count() const;
  std::size_t dense_parameter_count() const { return dense_w.size() + 1; }
  std::size_t total_parameter_count() const;
};

/// Per-timestep forward activations cached for BPTT.
struct StepCache {
  Vector x;                                // embedding of the consumed token
  std::array<Vector, kNumGates> preact;    // z = W_x x + W_h h_prev + b
  std::array<Vector, kNumGates> act;       // gate activations
  Vector c;                                // cell state after the step
  Vector h;                                // hidden state after the step
  Vector c_act;                            // cell activation of c
};

struct ForwardCache {
  std::vector<StepCache> steps;
  double logit{0.0};
  double probability{0.5};
};

class LstmClassifier {
 public:
  LstmClassifier(LstmConfig config, Rng& rng);
  LstmClassifier(LstmConfig config, LstmParams params);

  const LstmConfig& config() const { return config_; }
  const LstmParams& params() const { return params_; }
  LstmParams& mutable_params() { return params_; }

  /// Embedding lookup for one token (bounds-checked).
  Vector embed(TokenId token) const;

  /// One LSTM step. h/c are updated in place; returns the gate cache when
  /// `cache` is non-null.
  void step(const Vector& x, Vector& h, Vector& c, StepCache* cache) const;

  /// Full forward pass over a token window -> ransomware probability.
  /// Accepts any contiguous token view (e.g. a detect::TokenRing window)
  /// without copying. When `cache` is non-null every intermediate needed
  /// by BPTT is stored.
  double forward(TokenSpan sequence, ForwardCache* cache) const;

  /// Hard decision at threshold 0.5.
  int predict(TokenSpan sequence) const;

 private:
  LstmConfig config_;
  LstmParams params_;
};

}  // namespace csdml::nn
