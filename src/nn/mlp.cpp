#include "nn/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "fixed/activations.hpp"

namespace csdml::nn {

MlpParams MlpParams::zeros(const MlpConfig& config) {
  CSDML_REQUIRE(config.vocab_size > 0 && config.hidden_dim > 0,
                "invalid MLP dimensions");
  MlpParams p;
  p.w1 = Matrix(static_cast<std::size_t>(config.vocab_size), config.hidden_dim);
  p.b1 = Vector(config.hidden_dim, 0.0);
  p.w2 = Vector(config.hidden_dim, 0.0);
  return p;
}

MlpParams MlpParams::glorot(const MlpConfig& config, Rng& rng) {
  MlpParams p = zeros(config);
  p.w1.glorot_init(rng);
  const double limit = std::sqrt(6.0 / static_cast<double>(config.hidden_dim + 1));
  for (auto& w : p.w2) w = rng.uniform(-limit, limit);
  return p;
}

std::vector<double*> MlpParams::parameter_pointers() {
  std::vector<double*> out;
  out.reserve(total_parameter_count());
  for (std::size_t i = 0; i < w1.size(); ++i) out.push_back(w1.data() + i);
  for (auto& b : b1) out.push_back(&b);
  for (auto& w : w2) out.push_back(&w);
  out.push_back(&b2);
  return out;
}

std::size_t MlpParams::total_parameter_count() const {
  return w1.size() + b1.size() + w2.size() + 1;
}

MlpClassifier::MlpClassifier(MlpConfig config, Rng& rng)
    : config_(config), params_(MlpParams::glorot(config, rng)) {}

Vector MlpClassifier::featurize(const Sequence& sequence) const {
  CSDML_REQUIRE(!sequence.empty(), "empty sequence");
  Vector histogram(static_cast<std::size_t>(config_.vocab_size), 0.0);
  for (const TokenId token : sequence) {
    CSDML_REQUIRE(token >= 0 && token < config_.vocab_size, "token range");
    histogram[static_cast<std::size_t>(token)] += 1.0;
  }
  const double n = static_cast<double>(sequence.size());
  for (double& v : histogram) v /= n;
  return histogram;
}

namespace {
double relu(double x) { return x > 0.0 ? x : 0.0; }
}  // namespace

double MlpClassifier::forward(const Sequence& sequence) const {
  const Vector features = featurize(sequence);
  Vector hidden = params_.b1;
  accumulate_vec_mat(features, params_.w1, hidden);
  double logit = params_.b2;
  for (std::size_t j = 0; j < hidden.size(); ++j) {
    logit += params_.w2[j] * relu(hidden[j]);
  }
  return fixedpt::sigmoid(logit);
}

int MlpClassifier::predict(const Sequence& sequence) const {
  return forward(sequence) >= 0.5 ? 1 : 0;
}

double MlpClassifier::backward(const Sequence& sequence, int label,
                               MlpParams& grads) const {
  const Vector features = featurize(sequence);
  Vector pre = params_.b1;
  accumulate_vec_mat(features, params_.w1, pre);
  Vector hidden(pre.size());
  for (std::size_t j = 0; j < pre.size(); ++j) hidden[j] = relu(pre[j]);
  double logit = params_.b2;
  for (std::size_t j = 0; j < hidden.size(); ++j) {
    logit += params_.w2[j] * hidden[j];
  }
  const double probability = fixedpt::sigmoid(logit);
  const double loss = bce_loss(probability, label);
  const double dlogit = probability - static_cast<double>(label);

  grads.b2 += dlogit;
  Vector dpre(pre.size());
  for (std::size_t j = 0; j < hidden.size(); ++j) {
    grads.w2[j] += hidden[j] * dlogit;
    dpre[j] = params_.w2[j] * dlogit * (pre[j] > 0.0 ? 1.0 : 0.0);
  }
  add_in_place(grads.b1, dpre);
  accumulate_outer(features, dpre, grads.w1);
  return loss;
}

TrainResult train_mlp(MlpClassifier& model, const SequenceDataset& train_set,
                      const SequenceDataset& test_set, const TrainConfig& config) {
  CSDML_REQUIRE(!train_set.empty() && !test_set.empty(), "empty datasets");
  AdamOptimizer optimizer({.learning_rate = config.learning_rate},
                          model.params().total_parameter_count());
  const std::vector<double*> param_ptrs = model.mutable_params().parameter_pointers();
  MlpParams grads = MlpParams::zeros(model.config());
  const std::vector<double*> grad_ptrs = grads.parameter_pointers();

  Rng shuffle_rng(config.shuffle_seed);
  std::vector<std::size_t> order(train_set.size());
  std::iota(order.begin(), order.end(), 0);

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
          model.backward(train_set.sequences[idx], train_set.labels[idx], grads);
      if (++batch_fill == config.batch_size) flush();
    }
    flush();

    if (epoch % config.evaluate_every == 0 || epoch == config.epochs) {
      EpochRecord record;
      record.epoch = epoch;
      record.mean_train_loss = train_loss / static_cast<double>(train_set.size());
      ConfusionMatrix cm;
      for (std::size_t i = 0; i < test_set.size(); ++i) {
        cm.add(test_set.labels[i], model.predict(test_set.sequences[i]));
      }
      record.test_confusion = cm;
      record.test_accuracy = cm.accuracy();
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
