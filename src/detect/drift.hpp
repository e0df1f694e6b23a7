// Workload drift monitoring — the trigger side of the CTI update loop.
//
// The deployed model should be retrained "once new ransomware strains are
// uncovered" (paper Section III-A); in practice the first signal is often
// not a CTI feed but the drive's own traffic drifting away from what the
// model was trained on. The monitor keeps a reference API-category
// distribution (from the training corpus) and reports the Population
// Stability Index (common/stats) of each completed traffic window against
// it. Thresholding and debouncing belong to the alert engine: record each
// window's PSI into a time series and latch it with category_drift_rule(),
// whose alarm an operator (or the SOC workflow example) answers with a
// retraining cycle.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "nn/dataset.hpp"
#include "obs/anomaly.hpp"
#include "ransomware/api_vocab.hpp"

namespace csdml::detect {

inline constexpr std::size_t kCategoryCount =
    static_cast<std::size_t>(ransomware::ApiCategory::Misc) + 1;

using CategoryDistribution = std::array<double, kCategoryCount>;

/// Normalised API-category histogram of a token stream.
CategoryDistribution category_distribution(const std::vector<nn::TokenId>& tokens);
CategoryDistribution category_distribution(const nn::SequenceDataset& dataset);

/// Time series carrying one PSI sample per completed monitor window.
inline constexpr const char* kCategoryPsiSeries = "detect.category_psi";

/// Latches on a major category shift (PSI > 0.25) sustained for two
/// consecutive windows of kCategoryPsiSeries.
obs::AlertRule category_drift_rule();

class DriftMonitor {
 public:
  DriftMonitor(CategoryDistribution reference, std::size_t window_tokens);

  /// Feeds one observed API call; when this call completes a window,
  /// returns that window's PSI against the reference.
  std::optional<double> observe(nn::TokenId token);

  std::uint64_t windows_evaluated() const { return windows_; }

 private:
  CategoryDistribution reference_;
  std::size_t window_tokens_;
  CategoryDistribution counts_{};
  std::size_t tokens_in_window_{0};
  std::uint64_t windows_{0};
};

}  // namespace csdml::detect
