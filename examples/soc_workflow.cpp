// soc_workflow: day-2 operations end to end.
//
//   1. Deploy the trained classifier across a 4-board fleet.
//   2. A DriftMonitor scores live traffic against the training
//      distribution; each window's PSI feeds an alert rule, which latches
//      when a stealth strain (unknown to the model) appears.
//   3. The operator answers with the CTI loop: retrain on detonations of
//      the new strain + replay buffer, then roll the weights out through
//      the fleet's canary-gated update.
//   4. Verify: the strain is now caught, the stock workload still scans
//      clean, and every alert comes with an occlusion attribution.
//
//   $ ./build/examples/soc_workflow
#include <cstdint>
#include <iostream>
#include <optional>

#include "detect/attribution.hpp"
#include "detect/cti.hpp"
#include "detect/drift.hpp"
#include "nn/train.hpp"
#include "ransomware/dataset_builder.hpp"
#include "serve/fleet.hpp"

int main() {
  using namespace csdml;

  // --- 1. offline training + fleet deployment ---------------------------
  ransomware::DatasetSpec spec = ransomware::DatasetSpec::small();
  spec.ransomware_windows = 500;
  spec.benign_windows = 588;
  const ransomware::BuiltDataset built = ransomware::build_dataset(spec);
  Rng rng(3);
  const nn::TrainTestSplit split = nn::split_dataset(built.data, 0.2, rng);
  nn::LstmConfig config;
  nn::LstmClassifier model(config, rng);
  nn::TrainConfig tc;
  tc.epochs = 6;
  tc.batch_size = 32;
  nn::train(model, split.train, split.test, tc);

  serve::BoardFleet fleet(config, model.params(), serve::FleetConfig{.boards = 4},
                          [](const serve::Verdict&) {});
  std::cout << "deployed weight image v" << fleet.weight_version() << " to "
            << fleet.board_count() << " boards; stock test accuracy "
            << nn::evaluate(model, split.test).accuracy() << "\n\n";

  // --- 2. drift monitoring over live traffic ----------------------------
  detect::DriftMonitor monitor(detect::category_distribution(built.data),
                               2'000);
  obs::AlertEngine alerts;
  alerts.add_rule(detect::category_drift_rule());
  obs::TimeSeriesStore psi_series;

  const auto strain = detect::make_emerging_strain(
      ransomware::ransomware_families()[1], 7);
  const nn::SequenceDataset strain_traffic =
      detect::windows_from_strain(strain, 120, 100, 25, 11);

  std::size_t drift_at_window = 0;
  double drift_psi = 0.0;
  for (std::size_t w = 0; w < strain_traffic.size() && drift_at_window == 0;
       ++w) {
    for (const nn::TokenId token : strain_traffic.sequences[w]) {
      const std::optional<double> psi = monitor.observe(token);
      if (!psi) continue;
      // One sample per monitor window on the window-count timeline.
      const auto now = static_cast<std::int64_t>(monitor.windows_evaluated());
      psi_series.record(detect::kCategoryPsiSeries, now, *psi);
      alerts.evaluate(psi_series, now);
      if (alerts.active_count() > 0) {
        drift_at_window = w + 1;
        drift_psi = *psi;
      }
    }
  }
  std::cout << "drift alarm after " << drift_at_window
            << " traffic windows (PSI " << drift_psi
            << " vs threshold 0.25)\n";

  const nn::SequenceDataset strain_eval =
      detect::windows_from_strain(strain, 60, 100, 37, 13);
  std::size_t caught_before = 0;
  for (const auto& w : strain_eval.sequences) {
    caught_before += model.predict(w) == 1;
  }
  std::cout << "strain recall before update: "
            << static_cast<double>(caught_before) / strain_eval.size() << "\n\n";

  // --- 3. CTI retraining + canary-gated fleet rollout ---------------------
  nn::TrainConfig fine_tune = tc;
  fine_tune.epochs = 8;
  fine_tune.learning_rate = 0.005;
  // incorporate_strain stages the new weights on board 0, the rollout's
  // canary; the fleet update re-verifies it bit-exactly before any other
  // board flips.
  const detect::CtiUpdateReport report = detect::incorporate_strain(
      model, fleet.engine(0), strain, split.train, fine_tune);
  const serve::RolloutReport rollout = fleet.update_weights(model.params());
  if (!rollout.ok) {
    std::cerr << "rollout rejected by the canary gate\n";
    return 1;
  }
  std::cout << "CTI update applied: strain recall "
            << report.strain_recall_before << " -> "
            << report.strain_recall_after << ", replay accuracy "
            << report.replay_accuracy_after << ", fleet at weight image v"
            << fleet.weight_version() << "\n\n";

  // --- 4. verification + attribution -------------------------------------
  const serve::ScanReport scan = fleet.scan(strain_eval.sequences);
  std::cout << "fleet re-scan of strain traffic: " << scan.flagged << "/"
            << scan.scanned << " flagged across " << fleet.board_count()
            << " boards (makespan " << scan.makespan.as_microseconds()
            << " us)\n";

  for (std::size_t i = 0; i < strain_eval.size(); ++i) {
    if (scan.labels[i] == 1) {
      const detect::AttributionReport why = detect::attribute_window(
          model, strain_eval.sequences[i], {.top_k = 4});
      std::cout << "\nsample alert attribution (p=" << why.probability << "):\n";
      for (const auto& call : why.top_calls) {
        std::cout << "  [" << call.position << "] " << call.api_name << "  (+"
                  << call.contribution << ")\n";
      }
      break;
    }
  }
  return 0;
}
