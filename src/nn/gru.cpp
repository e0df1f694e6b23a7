#include "nn/gru.hpp"

#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "fixed/activations.hpp"

namespace csdml::nn {

GruParams GruParams::zeros(const GruConfig& config) {
  CSDML_REQUIRE(config.vocab_size > 0 && config.embed_dim > 0 &&
                    config.hidden_dim > 0,
                "invalid GRU dimensions");
  GruParams p;
  p.embedding = Matrix(static_cast<std::size_t>(config.vocab_size), config.embed_dim);
  for (std::size_t g = 0; g < kNumGruGates; ++g) {
    p.w_x[g] = Matrix(config.embed_dim, config.hidden_dim);
    p.w_h[g] = Matrix(config.hidden_dim, config.hidden_dim);
    p.bias[g] = Vector(config.hidden_dim, 0.0);
  }
  p.dense_w = Vector(config.hidden_dim, 0.0);
  return p;
}

GruParams GruParams::glorot(const GruConfig& config, Rng& rng) {
  GruParams p = zeros(config);
  p.embedding.glorot_init(rng);
  for (std::size_t g = 0; g < kNumGruGates; ++g) {
    p.w_x[g].glorot_init(rng);
    p.w_h[g].glorot_init(rng);
  }
  // Update-gate bias at -1 biases toward carrying state (the GRU analogue
  // of the LSTM's forget-bias trick: h' = (1-z) h + z g, small z keeps h).
  for (auto& b : p.bias[kUpdate]) b = -1.0;
  const double limit = std::sqrt(6.0 / static_cast<double>(config.hidden_dim + 1));
  for (auto& w : p.dense_w) w = rng.uniform(-limit, limit);
  return p;
}

std::vector<double*> GruParams::parameter_pointers() {
  std::vector<double*> out;
  out.reserve(total_parameter_count());
  for (std::size_t i = 0; i < embedding.size(); ++i) out.push_back(embedding.data() + i);
  for (std::size_t g = 0; g < kNumGruGates; ++g) {
    for (std::size_t i = 0; i < w_x[g].size(); ++i) out.push_back(w_x[g].data() + i);
    for (std::size_t i = 0; i < w_h[g].size(); ++i) out.push_back(w_h[g].data() + i);
    for (auto& b : bias[g]) out.push_back(&b);
  }
  for (auto& w : dense_w) out.push_back(&w);
  out.push_back(&dense_b);
  return out;
}

std::size_t GruParams::recurrent_parameter_count() const {
  std::size_t count = 0;
  for (std::size_t g = 0; g < kNumGruGates; ++g) {
    count += w_x[g].size() + w_h[g].size() + bias[g].size();
  }
  return count;
}

std::size_t GruParams::total_parameter_count() const {
  return embedding.size() + recurrent_parameter_count() + dense_w.size() + 1;
}

GruClassifier::GruClassifier(GruConfig config, Rng& rng)
    : config_(config), params_(GruParams::glorot(config, rng)) {}

GruClassifier::GruClassifier(GruConfig config, GruParams params)
    : config_(config), params_(std::move(params)) {
  CSDML_REQUIRE(params_.embedding.rows() ==
                        static_cast<std::size_t>(config_.vocab_size) &&
                    params_.dense_w.size() == config_.hidden_dim,
                "params do not match config");
}

Vector GruClassifier::embed(TokenId token) const {
  CSDML_REQUIRE(token >= 0 && token < config_.vocab_size, "token out of range");
  Vector x(config_.embed_dim);
  const double* row = params_.embedding.row(static_cast<std::size_t>(token));
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = row[i];
  return x;
}

void GruClassifier::step(const Vector& x, Vector& h, GruStepCache* cache) const {
  const std::size_t hidden = config_.hidden_dim;
  CSDML_REQUIRE(x.size() == config_.embed_dim && h.size() == hidden,
                "step: wrong sizes");

  // z and r see (x, h_prev); the candidate sees (x, r ⊙ h_prev).
  std::array<Vector, kNumGruGates> preact;
  std::array<Vector, kNumGruGates> act;
  for (const std::size_t g : {kUpdate, kReset}) {
    preact[g] = params_.bias[g];
    accumulate_vec_mat(x, params_.w_x[g], preact[g]);
    accumulate_vec_mat(h, params_.w_h[g], preact[g]);
    act[g].resize(hidden);
    for (std::size_t j = 0; j < hidden; ++j) {
      act[g][j] = fixedpt::sigmoid(preact[g][j]);
    }
  }
  Vector reset_h(hidden);
  for (std::size_t j = 0; j < hidden; ++j) reset_h[j] = act[kReset][j] * h[j];

  preact[kCandidateGate] = params_.bias[kCandidateGate];
  accumulate_vec_mat(x, params_.w_x[kCandidateGate], preact[kCandidateGate]);
  accumulate_vec_mat(reset_h, params_.w_h[kCandidateGate], preact[kCandidateGate]);
  act[kCandidateGate].resize(hidden);
  for (std::size_t j = 0; j < hidden; ++j) {
    act[kCandidateGate][j] =
        apply_cell_activation(config_.activation, preact[kCandidateGate][j]);
  }

  Vector new_h(hidden);
  for (std::size_t j = 0; j < hidden; ++j) {
    const double z = act[kUpdate][j];
    new_h[j] = (1.0 - z) * h[j] + z * act[kCandidateGate][j];
  }

  if (cache != nullptr) {
    cache->x = x;
    cache->preact = preact;
    cache->act = act;
    cache->reset_h = reset_h;
    cache->h = new_h;
  }
  h = std::move(new_h);
}

double GruClassifier::forward(const Sequence& sequence,
                              std::vector<GruStepCache>* cache) const {
  CSDML_REQUIRE(!sequence.empty(), "empty sequence");
  Vector h(config_.hidden_dim, 0.0);
  if (cache != nullptr) {
    cache->clear();
    cache->reserve(sequence.size());
  }
  for (const TokenId token : sequence) {
    const Vector x = embed(token);
    if (cache != nullptr) {
      cache->emplace_back();
      step(x, h, &cache->back());
    } else {
      step(x, h, nullptr);
    }
  }
  return fixedpt::sigmoid(dot(params_.dense_w, h) + params_.dense_b);
}

int GruClassifier::predict(const Sequence& sequence) const {
  return forward(sequence, nullptr) >= 0.5 ? 1 : 0;
}

double gru_backward(const GruClassifier& model, const Sequence& sequence,
                    int label, GruGradients& grads) {
  const GruConfig& config = model.config();
  const GruParams& params = model.params();
  const std::size_t hidden = config.hidden_dim;

  std::vector<GruStepCache> cache;
  const double probability = model.forward(sequence, &cache);
  const double loss = bce_loss(probability, label);
  const double dlogit = probability - static_cast<double>(label);

  const Vector& h_final = cache.back().h;
  for (std::size_t j = 0; j < hidden; ++j) grads.dense_w[j] += h_final[j] * dlogit;
  grads.dense_b += dlogit;

  Vector dh(hidden, 0.0);
  for (std::size_t j = 0; j < hidden; ++j) dh[j] = params.dense_w[j] * dlogit;

  Vector daz(hidden);
  Vector dar(hidden);
  Vector dag(hidden);
  for (std::size_t t = cache.size(); t-- > 0;) {
    const GruStepCache& step = cache[t];
    const Vector* h_prev_ptr = t > 0 ? &cache[t - 1].h : nullptr;
    Vector zero(hidden, 0.0);
    const Vector& h_prev = h_prev_ptr != nullptr ? *h_prev_ptr : zero;

    Vector dh_prev(hidden, 0.0);
    // h = (1-z) h_prev + z g
    for (std::size_t j = 0; j < hidden; ++j) {
      const double z = step.act[kUpdate][j];
      const double g = step.act[kCandidateGate][j];
      const double dz = dh[j] * (g - h_prev[j]);
      daz[j] = dz * z * (1.0 - z);
      const double dg = dh[j] * z;
      dag[j] = dg * cell_activation_derivative(config.activation,
                                               step.preact[kCandidateGate][j]);
      dh_prev[j] += dh[j] * (1.0 - z);
    }

    // Candidate path: ag = Wg x + Ug (r ⊙ h_prev) + bg.
    Vector d_reset_h(hidden, 0.0);
    accumulate_mat_vec(params.w_h[kCandidateGate], dag, d_reset_h);
    for (std::size_t j = 0; j < hidden; ++j) {
      const double r = step.act[kReset][j];
      dar[j] = d_reset_h[j] * h_prev[j] * r * (1.0 - r);
      dh_prev[j] += d_reset_h[j] * r;
    }

    // Gate weight gradients + recurrent flow.
    Vector dx(config.embed_dim, 0.0);
    accumulate_outer(step.x, daz, grads.w_x[kUpdate]);
    accumulate_outer(step.x, dar, grads.w_x[kReset]);
    accumulate_outer(step.x, dag, grads.w_x[kCandidateGate]);
    if (h_prev_ptr != nullptr) {
      accumulate_outer(h_prev, daz, grads.w_h[kUpdate]);
      accumulate_outer(h_prev, dar, grads.w_h[kReset]);
    }
    accumulate_outer(step.reset_h, dag, grads.w_h[kCandidateGate]);
    add_in_place(grads.bias[kUpdate], daz);
    add_in_place(grads.bias[kReset], dar);
    add_in_place(grads.bias[kCandidateGate], dag);
    accumulate_mat_vec(params.w_x[kUpdate], daz, dx);
    accumulate_mat_vec(params.w_x[kReset], dar, dx);
    accumulate_mat_vec(params.w_x[kCandidateGate], dag, dx);
    accumulate_mat_vec(params.w_h[kUpdate], daz, dh_prev);
    accumulate_mat_vec(params.w_h[kReset], dar, dh_prev);

    const auto token_row = static_cast<std::size_t>(sequence[t]);
    double* emb_grad = grads.embedding.row(token_row);
    for (std::size_t i = 0; i < dx.size(); ++i) emb_grad[i] += dx[i];

    dh = std::move(dh_prev);
  }
  return loss;
}

TrainResult train_gru(GruClassifier& model, const SequenceDataset& train_set,
                      const SequenceDataset& test_set, const TrainConfig& config) {
  CSDML_REQUIRE(!train_set.empty() && !test_set.empty(), "empty datasets");
  CSDML_REQUIRE(config.epochs > 0 && config.batch_size > 0,
                "epochs/batch_size must be positive");

  AdamOptimizer optimizer({.learning_rate = config.learning_rate},
                          model.params().total_parameter_count());
  const std::vector<double*> param_ptrs = model.mutable_params().parameter_pointers();
  GruGradients grads = GruParams::zeros(model.config());
  const std::vector<double*> grad_ptrs = grads.parameter_pointers();

  Rng shuffle_rng(config.shuffle_seed);
  std::vector<std::size_t> order(train_set.size());
  std::iota(order.begin(), order.end(), 0);

  const auto evaluate_model = [&]() {
    ConfusionMatrix cm;
    for (std::size_t i = 0; i < test_set.size(); ++i) {
      cm.add(test_set.labels[i], model.predict(test_set.sequences[i]));
    }
    return cm;
  };

  TrainResult result;
  for (std::size_t epoch = 1; epoch <= config.epochs; ++epoch) {
    shuffle_rng.shuffle(order);
    double train_loss = 0.0;
    std::size_t batch_fill = 0;
    const auto flush = [&]() {
      if (batch_fill == 0) return;
      optimizer.step(param_ptrs, grad_ptrs, static_cast<double>(batch_fill));
      for (double* g : grad_ptrs) *g = 0.0;
      batch_fill = 0;
    };
    for (const std::size_t idx : order) {
      train_loss +=
          gru_backward(model, train_set.sequences[idx], train_set.labels[idx], grads);
      if (++batch_fill == config.batch_size) flush();
    }
    flush();

    if (epoch % config.evaluate_every == 0 || epoch == config.epochs) {
      EpochRecord record;
      record.epoch = epoch;
      record.mean_train_loss = train_loss / static_cast<double>(train_set.size());
      record.test_confusion = evaluate_model();
      record.test_accuracy = record.test_confusion.accuracy();
      result.history.push_back(record);
      if (record.test_accuracy > result.best_test_accuracy) {
        result.best_test_accuracy = record.test_accuracy;
        result.best_epoch = epoch;
        result.best_confusion = record.test_confusion;
      }
    }
  }
  return result;
}

}  // namespace csdml::nn
