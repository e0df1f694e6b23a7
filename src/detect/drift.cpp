#include "detect/drift.hpp"

#include <numeric>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace csdml::detect {

CategoryDistribution category_distribution(const std::vector<nn::TokenId>& tokens) {
  CSDML_REQUIRE(!tokens.empty(), "empty token stream");
  const auto& vocab = ransomware::ApiVocabulary::instance();
  CategoryDistribution dist{};
  for (const nn::TokenId token : tokens) {
    dist[static_cast<std::size_t>(vocab.call(token).category)] += 1.0;
  }
  for (double& v : dist) v /= static_cast<double>(tokens.size());
  return dist;
}

CategoryDistribution category_distribution(const nn::SequenceDataset& dataset) {
  CSDML_REQUIRE(!dataset.empty(), "empty dataset");
  std::vector<nn::TokenId> all;
  for (const auto& seq : dataset.sequences) {
    all.insert(all.end(), seq.begin(), seq.end());
  }
  return category_distribution(all);
}

obs::AlertRule category_drift_rule() {
  obs::AlertRule rule;
  rule.id = "detect.category_drift";
  rule.series = kCategoryPsiSeries;
  rule.kind = obs::AlertRuleKind::AboveThreshold;
  rule.threshold = 0.25;
  rule.min_samples = 1;  // every window counts, the first one included
  rule.fire_for = 2;
  return rule;
}

DriftMonitor::DriftMonitor(CategoryDistribution reference,
                           std::size_t window_tokens)
    : reference_(reference), window_tokens_(window_tokens) {
  CSDML_REQUIRE(window_tokens_ > 0, "window must be positive");
  CSDML_REQUIRE(std::accumulate(reference_.begin(), reference_.end(), 0.0) > 0.0,
                "reference distribution needs positive mass");
}

std::optional<double> DriftMonitor::observe(nn::TokenId token) {
  const auto& vocab = ransomware::ApiVocabulary::instance();
  counts_[static_cast<std::size_t>(vocab.call(token).category)] += 1.0;
  if (++tokens_in_window_ < window_tokens_) return std::nullopt;

  // Window complete: evaluate and reset the accumulator.
  const double psi = population_stability_index(reference_, counts_);
  counts_.fill(0.0);
  tokens_in_window_ = 0;
  ++windows_;
  return psi;
}

}  // namespace csdml::detect
