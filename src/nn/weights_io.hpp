// Text-file weight exchange between the offline trainer and the CSD host
// program.
//
// The paper: "Once the embeddings and LSTM have been trained until
// convergence, the associated weights and biases are extracted and written
// to a text file ... the host program ... ingests this text file amid
// initializing the FPGA." This module defines that file. The format keeps
// TensorFlow get_weights()'s decomposition — the input-to-hidden kernel,
// the recurrent kernel and the bias terms are stored as separate arrays —
// plus the embedding matrix and the dense head.
#pragma once

#include <iosfwd>
#include <string>

#include "nn/gru.hpp"
#include "nn/lstm.hpp"

namespace csdml::nn {

struct ModelSnapshot {
  LstmConfig config;
  LstmParams params;
};

/// Serialises config + parameters (full double precision).
void save_weights(std::ostream& out, const LstmConfig& config,
                  const LstmParams& params);
void save_weights_file(const std::string& path, const LstmConfig& config,
                       const LstmParams& params);

/// Parses a weight file; throws ParseError on malformed input and
/// PreconditionError, before allocating, on a dimension that is not a
/// positive integer or a model above the loader's 2^21-parameter cap.
ModelSnapshot load_weights(std::istream& in);
ModelSnapshot load_weights_file(const std::string& path);

// --- GRU variant (same format family, "csdml-gru-weights" magic) --------

struct GruModelSnapshot {
  GruConfig config;
  GruParams params;
};

void save_gru_weights(std::ostream& out, const GruConfig& config,
                      const GruParams& params);
void save_gru_weights_file(const std::string& path, const GruConfig& config,
                           const GruParams& params);
GruModelSnapshot load_gru_weights(std::istream& in);
GruModelSnapshot load_gru_weights_file(const std::string& path);

}  // namespace csdml::nn
