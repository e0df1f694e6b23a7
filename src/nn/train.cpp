#include "nn/train.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "fixed/activations.hpp"

namespace csdml::nn {

double bce_loss(double probability, int label) {
  CSDML_REQUIRE(label == 0 || label == 1, "label must be binary");
  const double p = std::clamp(probability, 1e-12, 1.0 - 1e-12);
  return label == 1 ? -std::log(p) : -std::log(1.0 - p);
}

double backward(const LstmClassifier& model, const Sequence& sequence, int label,
                LstmGradients& grads) {
  const LstmConfig& config = model.config();
  const LstmParams& params = model.params();
  const std::size_t hidden = config.hidden_dim;

  ForwardCache cache;
  const double probability = model.forward(sequence, &cache);
  const double loss = bce_loss(probability, label);

  // d loss / d logit for sigmoid + BCE.
  const double dlogit = probability - static_cast<double>(label);

  const Vector& h_final = cache.steps.back().h;
  for (std::size_t j = 0; j < hidden; ++j) grads.dense_w[j] += h_final[j] * dlogit;
  grads.dense_b += dlogit;

  Vector dh(hidden, 0.0);
  for (std::size_t j = 0; j < hidden; ++j) dh[j] = params.dense_w[j] * dlogit;
  Vector dc(hidden, 0.0);

  std::array<Vector, kNumGates> dz;
  for (auto& v : dz) v.resize(hidden);

  for (std::size_t t = cache.steps.size(); t-- > 0;) {
    const StepCache& step = cache.steps[t];
    const Vector* c_prev = t > 0 ? &cache.steps[t - 1].c : nullptr;
    const Vector* h_prev = t > 0 ? &cache.steps[t - 1].h : nullptr;

    for (std::size_t j = 0; j < hidden; ++j) {
      const double i_gate = step.act[kInput][j];
      const double f_gate = step.act[kForget][j];
      const double g_cand = step.act[kCandidate][j];
      const double o_gate = step.act[kOutput][j];
      const double cp = c_prev != nullptr ? (*c_prev)[j] : 0.0;

      // Output gate sees act(c); cell path sees dh through o * act'(c).
      const double d_o = dh[j] * step.c_act[j];
      const double dc_total =
          dc[j] + dh[j] * o_gate *
                      cell_activation_derivative(config.activation, step.c[j]);

      const double d_i = dc_total * g_cand;
      const double d_f = dc_total * cp;
      const double d_g = dc_total * i_gate;

      dz[kInput][j] = d_i * i_gate * (1.0 - i_gate);
      dz[kForget][j] = d_f * f_gate * (1.0 - f_gate);
      dz[kOutput][j] = d_o * o_gate * (1.0 - o_gate);
      dz[kCandidate][j] =
          d_g * cell_activation_derivative(config.activation, step.preact[kCandidate][j]);

      dc[j] = dc_total * f_gate;  // flows to the previous timestep
    }

    Vector dx(config.embed_dim, 0.0);
    Vector dh_prev(hidden, 0.0);
    for (std::size_t g = 0; g < kNumGates; ++g) {
      accumulate_outer(step.x, dz[g], grads.w_x[g]);
      if (h_prev != nullptr) accumulate_outer(*h_prev, dz[g], grads.w_h[g]);
      add_in_place(grads.bias[g], dz[g]);
      accumulate_mat_vec(params.w_x[g], dz[g], dx);
      accumulate_mat_vec(params.w_h[g], dz[g], dh_prev);
    }

    const auto token_row = static_cast<std::size_t>(sequence[t]);
    double* emb_grad = grads.embedding.row(token_row);
    for (std::size_t i = 0; i < dx.size(); ++i) emb_grad[i] += dx[i];

    dh = std::move(dh_prev);
  }
  return loss;
}

AdamOptimizer::AdamOptimizer(Config config, std::size_t parameter_count)
    : config_(config), m_(parameter_count, 0.0), v_(parameter_count, 0.0) {
  CSDML_REQUIRE(parameter_count > 0, "optimizer over zero parameters");
}

void AdamOptimizer::step(const std::vector<double*>& params,
                         const std::vector<double*>& grads, double scale) {
  CSDML_REQUIRE(params.size() == m_.size() && grads.size() == m_.size(),
                "optimizer parameter count mismatch");
  CSDML_REQUIRE(scale > 0.0, "scale must be positive");
  ++t_;
  const double bias1 = 1.0 - std::pow(config_.beta1, static_cast<double>(t_));
  const double bias2 = 1.0 - std::pow(config_.beta2, static_cast<double>(t_));
  for (std::size_t i = 0; i < params.size(); ++i) {
    const double g = *grads[i] / scale;
    m_[i] = config_.beta1 * m_[i] + (1.0 - config_.beta1) * g;
    v_[i] = config_.beta2 * v_[i] + (1.0 - config_.beta2) * g * g;
    const double m_hat = m_[i] / bias1;
    const double v_hat = v_[i] / bias2;
    *params[i] -= config_.learning_rate * m_hat / (std::sqrt(v_hat) + config_.epsilon);
  }
}

ConfusionMatrix evaluate(const LstmClassifier& model, const SequenceDataset& dataset) {
  CSDML_REQUIRE(!dataset.empty(), "evaluating on empty dataset");
  ConfusionMatrix cm;
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    cm.add(dataset.labels[i], model.predict(dataset.sequences[i]));
  }
  return cm;
}

namespace {

/// Global-norm gradient clipping over the raw (un-averaged) batch grads.
void clip_gradients(const std::vector<double*>& grads, double max_norm,
                    double batch_scale) {
  if (max_norm <= 0.0) return;
  double sum_sq = 0.0;
  for (const double* g : grads) {
    const double value = *g / batch_scale;
    sum_sq += value * value;
  }
  const double norm = std::sqrt(sum_sq);
  if (norm <= max_norm) return;
  const double shrink = max_norm / norm;
  for (double* g : grads) *g *= shrink;
}

}  // namespace

TrainResult train(LstmClassifier& model, const SequenceDataset& train_set,
                  const SequenceDataset& test_set, const TrainConfig& config,
                  const std::function<void(const EpochRecord&)>& progress) {
  CSDML_REQUIRE(!train_set.empty() && !test_set.empty(),
                "train/test sets must be non-empty");
  CSDML_REQUIRE(config.epochs > 0 && config.batch_size > 0,
                "epochs/batch_size must be positive");

  const std::size_t param_count = model.params().total_parameter_count();
  AdamOptimizer optimizer({.learning_rate = config.learning_rate}, param_count);
  const std::vector<double*> param_ptrs = model.mutable_params().parameter_pointers();

  LstmGradients grads = LstmParams::zeros(model.config());
  const std::vector<double*> grad_ptrs = grads.parameter_pointers();

  Rng shuffle_rng(config.shuffle_seed);
  std::vector<std::size_t> order(train_set.size());
  std::iota(order.begin(), order.end(), 0);

  TrainResult result;
  for (std::size_t epoch = 1; epoch <= config.epochs; ++epoch) {
    shuffle_rng.shuffle(order);
    double train_loss = 0.0;
    std::size_t batch_fill = 0;

    const auto flush_batch = [&]() {
      if (batch_fill == 0) return;
      const auto scale = static_cast<double>(batch_fill);
      clip_gradients(grad_ptrs, config.gradient_clip_norm, scale);
      optimizer.step(param_ptrs, grad_ptrs, scale);
      for (double* g : grad_ptrs) *g = 0.0;
      batch_fill = 0;
    };

    for (const std::size_t idx : order) {
      train_loss +=
          backward(model, train_set.sequences[idx], train_set.labels[idx], grads);
      if (++batch_fill == config.batch_size) flush_batch();
    }
    flush_batch();

    if (epoch % config.evaluate_every == 0 || epoch == config.epochs) {
      EpochRecord record;
      record.epoch = epoch;
      record.mean_train_loss = train_loss / static_cast<double>(train_set.size());
      record.test_confusion = evaluate(model, test_set);
      record.test_accuracy = record.test_confusion.accuracy();
      result.history.push_back(record);
      if (record.test_accuracy > result.best_test_accuracy) {
        result.best_test_accuracy = record.test_accuracy;
        result.best_epoch = epoch;
        result.best_confusion = record.test_confusion;
      }
      if (progress) progress(record);
    }
  }
  return result;
}

}  // namespace csdml::nn
