// Drift monitor tests: the API-category distribution source, its per-
// window PSI (the shared primitive in common/stats), and the end-to-end
// path through the category drift alert rule.
#include "detect/drift.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "detect/cti.hpp"
#include "obs/flight_recorder.hpp"
#include "ransomware/dataset_builder.hpp"

namespace csdml::detect {
namespace {

const ransomware::BuiltDataset& corpus() {
  static const ransomware::BuiltDataset built = [] {
    ransomware::DatasetSpec spec = ransomware::DatasetSpec::small();
    spec.ransomware_windows = 200;
    spec.benign_windows = 235;
    return ransomware::build_dataset(spec);
  }();
  return built;
}

TEST(Drift, DistributionIsNormalised) {
  const CategoryDistribution dist = category_distribution(corpus().data);
  double sum = 0.0;
  for (const double v : dist) {
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

/// Category distribution of a stream made of one API call.
CategoryDistribution single_call_distribution(const char* api) {
  const nn::TokenId token = ransomware::ApiVocabulary::instance().require(api);
  return category_distribution(std::vector<nn::TokenId>(10, token));
}

struct AlarmRun {
  std::uint64_t fired_at_window{0};  ///< 1-based; 0 = never latched
  std::vector<double> psi;           ///< one per completed window
};

/// Streams `traffic` through a monitor referenced on the corpus, feeding
/// each window's PSI to the category drift alert rule.
AlarmRun run_through_alert_rule(const nn::SequenceDataset& traffic,
                                std::size_t window_tokens) {
  DriftMonitor monitor(category_distribution(corpus().data), window_tokens);
  obs::FlightRecorder recorder(16);
  obs::AlertEngine alerts(&recorder);
  alerts.add_rule(category_drift_rule());
  obs::TimeSeriesStore store;
  AlarmRun run;
  for (const auto& window : traffic.sequences) {
    for (const nn::TokenId token : window) {
      const std::optional<double> psi = monitor.observe(token);
      if (!psi) continue;
      const auto now = static_cast<std::int64_t>(monitor.windows_evaluated());
      store.record(kCategoryPsiSeries, now, *psi);
      alerts.evaluate(store, now);
      run.psi.push_back(*psi);
      if (run.fired_at_window == 0 && alerts.active_count() > 0) {
        run.fired_at_window = monitor.windows_evaluated();
      }
    }
  }
  return run;
}

TEST(Drift, PsiZeroForIdenticalDistributions) {
  // A window whose category mix equals the reference reads PSI 0.
  const auto& vocab = ransomware::ApiVocabulary::instance();
  const std::vector<nn::TokenId> block = {
      vocab.require("CryptEncrypt"), vocab.require("NtWriteFile"),
      vocab.require("NtWriteFile"), vocab.require("NtReadFile")};
  DriftMonitor monitor(category_distribution(block), block.size());
  std::optional<double> psi;
  for (const nn::TokenId token : block) psi = monitor.observe(token);
  ASSERT_TRUE(psi.has_value());
  EXPECT_NEAR(*psi, 0.0, 1e-12);
  EXPECT_EQ(monitor.windows_evaluated(), 1u);
}

TEST(Drift, PsiPositiveAndSymmetricOrderOfMagnitude) {
  const CategoryDistribution crypto = single_call_distribution("CryptEncrypt");
  const CategoryDistribution files = single_call_distribution("NtWriteFile");
  const double ab = population_stability_index(crypto, files);
  EXPECT_GT(ab, 0.25);  // a major shift
  EXPECT_NEAR(ab, population_stability_index(files, crypto), 1e-9);
}

TEST(Drift, StockTrafficDoesNotAlarm) {
  // Replay the corpus itself (same distribution).
  const AlarmRun run = run_through_alert_rule(corpus().data, 1'000);
  EXPECT_EQ(run.fired_at_window, 0u);
  EXPECT_GT(run.psi.size(), 10u);
  // Single 1000-call windows of stock traffic do spike past 0.25 when a
  // rare category happens to be absent; the typical window sits below the
  // major-shift band and the two-window debounce absorbs the spikes.
  EXPECT_LT(percentile(run.psi, 0.5), 0.25);
}

TEST(Drift, NovelStrainTrafficAlarms) {
  // Traffic dominated by the stealth strain (container encryption, no
  // registry/service/propagation activity): categories shift hard.
  const auto strain =
      make_emerging_strain(ransomware::ransomware_families()[1], 1);
  const nn::SequenceDataset traffic = windows_from_strain(strain, 120, 100, 25, 3);
  const AlarmRun run = run_through_alert_rule(traffic, 1'000);
  // The rule debounces: two consecutive windows over 0.25 latch it.
  EXPECT_GE(run.fired_at_window, 2u);
  EXPECT_GT(percentile(run.psi, 0.5), 0.25);
}

TEST(Drift, Guards) {
  EXPECT_THROW(category_distribution(std::vector<nn::TokenId>{}),
               PreconditionError);
  CategoryDistribution reference{};
  EXPECT_THROW(DriftMonitor(reference, 10), PreconditionError);  // no mass
  reference[0] = 1.0;
  EXPECT_THROW(DriftMonitor(reference, 0), PreconditionError);
}

}  // namespace
}  // namespace csdml::detect
