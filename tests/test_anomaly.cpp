// Alert-engine tests: latch/clear hysteresis under a flapping metric,
// the two acceptance-criterion detections — an injected p99 latency
// regression (EWMA z-score) and an injected verdict-score distribution
// shift (PSI/KS drift) — each latching a flight-recorded alert on a
// fully deterministic injected clock, plus the critical auto-dump path.
#include "obs/anomaly.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "temp_path.hpp"

namespace csdml::obs {
namespace {

/// Records one value and evaluates, advancing the injected clock one
/// collector interval per call. Returns the transitions of this tick.
std::vector<Alert> step(AlertEngine& engine, TimeSeriesStore& store,
                        const std::string& series, std::int64_t& now_us,
                        double value) {
  now_us += 100'000;
  store.record(series, now_us, value);
  return engine.evaluate(store, now_us);
}

/// Flight events whose detail matches exactly.
std::size_t count_events(const FlightRecorder& recorder,
                         const std::string& detail) {
  std::size_t n = 0;
  for (const FlightEvent& event : recorder.snapshot()) {
    if (event.kind == FlightEventKind::Alert && detail == event.detail) ++n;
  }
  return n;
}

TEST(AlertEngine, ThresholdLatchAndClearWithHysteresis) {
  registry().reset();
  FlightRecorder recorder(64);
  AlertEngine engine(&recorder);
  AlertRule rule;
  rule.id = "b0.defer.high";
  rule.series = "b0.deferred.delta";
  rule.kind = AlertRuleKind::AboveThreshold;
  rule.threshold = 100.0;
  rule.clear_threshold = 80.0;  // hysteresis band (80, 100]
  rule.min_samples = 1;
  rule.fire_for = 2;
  rule.clear_for = 3;
  rule.board = 0;
  engine.add_rule(rule);

  TimeSeriesStore store;
  std::int64_t now_us = 0;

  // One spike is not an alert (fire_for = 2).
  EXPECT_TRUE(step(engine, store, rule.series, now_us, 150.0).empty());
  EXPECT_TRUE(step(engine, store, rule.series, now_us, 50.0).empty());
  EXPECT_EQ(engine.active_count(), 0u);

  // Two consecutive violations latch exactly one fired transition.
  EXPECT_TRUE(step(engine, store, rule.series, now_us, 150.0).empty());
  const std::vector<Alert> fired =
      step(engine, store, rule.series, now_us, 150.0);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_TRUE(fired[0].active);
  EXPECT_EQ(fired[0].rule_id, rule.id);
  EXPECT_EQ(fired[0].board, 0);
  EXPECT_EQ(engine.active_count(), 1u);
  EXPECT_TRUE(engine.board_alerted(0, AlertSeverity::Warning));
  EXPECT_FALSE(engine.board_alerted(0, AlertSeverity::Critical));
  EXPECT_FALSE(engine.board_alerted(1, AlertSeverity::Warning));
  EXPECT_EQ(count_events(recorder, "b0.defer.high"), 1u);
  EXPECT_EQ(registry().counter_value("alerts.fired"), 1u);

  // 90 sits inside the hysteresis band: below the fire threshold but
  // above the clear threshold, so the latched alert holds.
  step(engine, store, rule.series, now_us, 90.0);
  EXPECT_EQ(engine.active_count(), 1u);

  // A flapping metric (clean/violating alternation) never accumulates
  // clear_for consecutive clean evals — the alert must not strobe.
  for (int i = 0; i < 6; ++i) {
    const double value = i % 2 == 0 ? 50.0 : 150.0;
    EXPECT_TRUE(step(engine, store, rule.series, now_us, value).empty());
  }
  EXPECT_EQ(engine.active_count(), 1u);
  EXPECT_EQ(registry().counter_value("alerts.fired"), 1u);  // no re-fires

  // Three consecutive clean evals clear it, once.
  step(engine, store, rule.series, now_us, 50.0);
  step(engine, store, rule.series, now_us, 50.0);
  const std::vector<Alert> cleared =
      step(engine, store, rule.series, now_us, 50.0);
  ASSERT_EQ(cleared.size(), 1u);
  EXPECT_FALSE(cleared[0].active);
  EXPECT_EQ(engine.active_count(), 0u);
  EXPECT_EQ(registry().counter_value("alerts.cleared"), 1u);
  EXPECT_EQ(count_events(recorder, "b0.defer.high:clear"), 1u);
  EXPECT_EQ(engine.alerts().front().fire_count, 1u);
}

TEST(AlertEngine, ThresholdRulesWaitOutWarmup) {
  FlightRecorder recorder(64);
  AlertEngine engine(&recorder);
  AlertRule rule;
  rule.id = "warmup";
  rule.series = "s";
  rule.threshold = 10.0;
  rule.min_samples = 4;
  rule.fire_for = 2;
  engine.add_rule(rule);

  TimeSeriesStore store;
  std::int64_t now_us = 0;
  // Violating values during warm-up accumulate no streak at all.
  for (int i = 0; i < 3; ++i) step(engine, store, "s", now_us, 500.0);
  EXPECT_EQ(engine.active_count(), 0u);
  step(engine, store, "s", now_us, 500.0);  // sample 4: first counted eval
  EXPECT_EQ(engine.active_count(), 0u);
  step(engine, store, "s", now_us, 500.0);  // second: latch
  EXPECT_EQ(engine.active_count(), 1u);
}

TEST(AlertEngine, StaleSeriesDoesNotAdvanceStreaks) {
  FlightRecorder recorder(64);
  AlertEngine engine(&recorder);
  AlertRule rule;
  rule.id = "stale";
  rule.series = "s";
  rule.threshold = 10.0;
  rule.min_samples = 1;
  rule.fire_for = 2;
  engine.add_rule(rule);

  TimeSeriesStore store;
  std::int64_t now_us = 0;
  step(engine, store, "s", now_us, 500.0);
  // Re-evaluating without a new sample must not double-count the same
  // violation (a fast evaluator against a slow sampler).
  engine.evaluate(store, now_us + 1);
  engine.evaluate(store, now_us + 2);
  EXPECT_EQ(engine.active_count(), 0u);
  step(engine, store, "s", now_us, 500.0);
  EXPECT_EQ(engine.active_count(), 1u);
}

// Acceptance criterion: an injected p99 latency regression raises a
// latched alert with a flight-recorder event, on an injected clock.
TEST(AlertEngine, InjectedP99RegressionLatchesEwmaAlert) {
  registry().reset();
  FlightRecorder recorder(64);
  AlertEngine engine(&recorder);
  AlertRule rule;
  rule.id = "b0.p99.regression";
  rule.series = "fleet.b0.p99_us";
  rule.kind = AlertRuleKind::EwmaZScore;
  rule.threshold = 6.0;
  rule.min_samples = 8;
  rule.fire_for = 2;
  rule.clear_for = 3;
  rule.severity = AlertSeverity::Warning;
  rule.board = 0;
  engine.add_rule(rule);

  TimeSeriesStore store;
  std::int64_t now_us = 0;
  // Stable baseline with deterministic jitter: p99 ~120us +- 4.
  for (int i = 0; i < 24; ++i) {
    EXPECT_TRUE(
        step(engine, store, rule.series, now_us, 120.0 + (i % 3) * 4.0)
            .empty())
        << "baseline tick " << i << " must not alert";
  }
  EXPECT_EQ(engine.active_count(), 0u);

  // Inject a 6x p99 step; the z-score latches after fire_for ticks.
  std::int64_t fired_at = 0;
  const std::int64_t regression_start = now_us;
  for (int i = 0; i < 8 && fired_at == 0; ++i) {
    for (const Alert& alert :
         step(engine, store, rule.series, now_us, 720.0 + (i % 3) * 4.0)) {
      if (alert.active) fired_at = alert.fired_at_us;
    }
  }
  ASSERT_NE(fired_at, 0) << "regression never latched";
  EXPECT_EQ(fired_at - regression_start, 2 * 100'000)
      << "EWMA latch latency should be exactly fire_for ticks";
  EXPECT_TRUE(engine.board_alerted(0, AlertSeverity::Warning));
  EXPECT_EQ(count_events(recorder, "b0.p99.regression"), 1u);

  // The regression itself must not pollute the baseline: it stays
  // latched for as long as the regression lasts.
  for (int i = 0; i < 32; ++i) {
    step(engine, store, rule.series, now_us, 720.0 + (i % 3) * 4.0);
  }
  EXPECT_EQ(engine.active_count(), 1u);

  // Recovery to the old baseline clears it after clear_for ticks.
  std::vector<Alert> cleared;
  for (int i = 0; i < 8 && cleared.empty(); ++i) {
    cleared = step(engine, store, rule.series, now_us, 120.0 + (i % 3) * 4.0);
  }
  ASSERT_EQ(cleared.size(), 1u);
  EXPECT_FALSE(cleared[0].active);
  EXPECT_EQ(engine.active_count(), 0u);
}

// Acceptance criterion: an injected verdict-score distribution shift
// latches the drift alert (PSI/KS vs the calibration baseline), appends
// a flight event, and — being critical — triggers the auto-dump.
TEST(AlertEngine, InjectedScoreShiftLatchesDriftAlertAndAutoDumps) {
  registry().reset();
  const std::string dump_path =
      testing::temp_path("csdml_drift_dump.json");
  std::remove(dump_path.c_str());
  ::setenv("CSDML_FLIGHT_DUMP", dump_path.c_str(), 1);

  FlightRecorder recorder(64);
  AlertEngine engine(&recorder);
  DriftConfig drift;
  drift.bins = 10;
  drift.window = 128;
  drift.min_scores = 32;
  drift.fire_for = 2;
  drift.clear_for = 3;
  engine.enable_drift(drift);
  EXPECT_TRUE(engine.drift_enabled());

  // Calibration: benign-heavy score distribution clustered low.
  for (int i = 0; i < 128; ++i) {
    engine.observe_score(0.05 + 0.02 * (i % 5));
  }
  engine.calibrate_drift();

  TimeSeriesStore store;
  std::int64_t now_us = 0;
  // In-distribution traffic: PSI ~0, no alert however long it runs.
  for (int i = 0; i < 8; ++i) {
    engine.observe_score(0.05 + 0.02 * (i % 5));
    now_us += 100'000;
    EXPECT_TRUE(engine.evaluate(store, now_us).empty());
  }
  EXPECT_LT(engine.drift_psi(), 0.05);
  EXPECT_EQ(engine.active_count(), 0u);

  // Distribution shift: scores flood toward the high end (the model
  // drifting off calibration), swamping the rolling window.
  for (int i = 0; i < 128; ++i) {
    engine.observe_score(0.85 + 0.01 * (i % 5));
  }
  EXPECT_GT(engine.drift_psi(), drift.psi_threshold);
  EXPECT_GT(engine.drift_ks(), drift.ks_threshold);

  std::vector<Alert> fired;
  for (int i = 0; i < 4 && fired.empty(); ++i) {
    now_us += 100'000;
    fired = engine.evaluate(store, now_us);
  }
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_TRUE(fired[0].active);
  EXPECT_EQ(fired[0].rule_id, "model.score_drift");
  EXPECT_EQ(fired[0].severity, AlertSeverity::Critical);
  EXPECT_EQ(engine.active_count(), 1u);
  EXPECT_EQ(count_events(recorder, "model.score_drift"), 1u);
  EXPECT_EQ(registry().counter_value("alerts.fired.critical"), 1u);

  // Critical latch auto-dumped the post-mortem to CSDML_FLIGHT_DUMP.
  std::ifstream dump(dump_path);
  ASSERT_TRUE(dump.good()) << "auto-dump missing at " << dump_path;
  std::string json((std::istreambuf_iterator<char>(dump)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("alert:model.score_drift"), std::string::npos);
  EXPECT_NE(json.find("flight_recorder"), std::string::npos);

  // Scores returning to calibration wash the window; the alert clears
  // after clear_for clean evaluations.
  for (int i = 0; i < 128; ++i) {
    engine.observe_score(0.05 + 0.02 * (i % 5));
  }
  std::vector<Alert> cleared;
  for (int i = 0; i < 8 && cleared.empty(); ++i) {
    now_us += 100'000;
    cleared = engine.evaluate(store, now_us);
  }
  ASSERT_EQ(cleared.size(), 1u);
  EXPECT_FALSE(cleared[0].active);
  EXPECT_EQ(engine.active_count(), 0u);

  ::unsetenv("CSDML_FLIGHT_DUMP");
  std::remove(dump_path.c_str());
}

TEST(ScoreDrift, PsiAndKsAgainstExplicitBaseline) {
  DriftConfig config;
  config.bins = 10;
  config.window = 64;
  config.min_scores = 16;
  ScoreDrift drift(config);

  std::vector<double> baseline;
  for (int i = 0; i < 64; ++i) baseline.push_back(0.1 + 0.01 * (i % 8));
  drift.set_baseline(baseline);
  EXPECT_TRUE(drift.calibrated());

  // Below min_scores both statistics read 0 (not spuriously huge).
  for (int i = 0; i < 8; ++i) drift.observe(0.9);
  EXPECT_DOUBLE_EQ(drift.psi(), 0.0);
  EXPECT_DOUBLE_EQ(drift.ks(), 0.0);

  // A fully shifted window maxes the CDF gap and blows past the PSI
  // rule of thumb.
  for (int i = 0; i < 64; ++i) drift.observe(0.9);
  EXPECT_GT(drift.psi(), 1.0);
  EXPECT_DOUBLE_EQ(drift.ks(), 1.0);

  // Matching the baseline again settles both back near zero.
  for (int i = 0; i < 64; ++i) drift.observe(0.1 + 0.01 * (i % 8));
  EXPECT_LT(drift.psi(), 0.05);
  EXPECT_LT(drift.ks(), 0.05);
}

TEST(ScoreDrift, ScoresClampedIntoUnitInterval) {
  ScoreDrift drift(DriftConfig{.bins = 4, .window = 8, .min_scores = 2});
  drift.observe(-3.0);
  drift.observe(7.0);
  drift.observe(1.0);  // exact upper edge lands in the last bin
  EXPECT_EQ(drift.observed(), 3u);
  drift.calibrate();
  EXPECT_TRUE(drift.calibrated());
  EXPECT_DOUBLE_EQ(drift.psi(), 0.0);  // window == baseline
}

TEST(ScoreDrift, EmptyBaselineLeavesDriftUncalibrated) {
  ScoreDrift drift(DriftConfig{.bins = 10, .window = 64, .min_scores = 16});
  drift.set_baseline({});
  EXPECT_FALSE(drift.calibrated());
  drift.calibrate();  // the rolling window is still empty too
  EXPECT_FALSE(drift.calibrated());
  for (int i = 0; i < 32; ++i) drift.observe(0.1);
  EXPECT_DOUBLE_EQ(drift.psi(), 0.0);
  EXPECT_DOUBLE_EQ(drift.ks(), 0.0);
}

// A zero-mass calibration baseline must not read as infinite drift: the
// engine stays uncalibrated, so no critical alert latches and nothing is
// auto-dumped.
TEST(AlertEngine, CalibrationWithoutScoresNeverLatchesDrift) {
  registry().reset();
  const std::string dump_path =
      testing::temp_path("csdml_empty_baseline.json");
  std::remove(dump_path.c_str());
  ::setenv("CSDML_FLIGHT_DUMP", dump_path.c_str(), 1);

  FlightRecorder recorder(64);
  AlertEngine engine(&recorder);
  engine.enable_drift(DriftConfig{.bins = 10, .window = 64, .min_scores = 16});
  engine.calibrate_drift();  // before any score arrived
  for (int i = 0; i < 32; ++i) engine.observe_score(0.1);

  TimeSeriesStore store;
  std::int64_t now_us = 0;
  for (int i = 0; i < 4; ++i) {
    now_us += 100'000;
    EXPECT_TRUE(engine.evaluate(store, now_us).empty());
  }
  EXPECT_DOUBLE_EQ(engine.drift_psi(), 0.0);
  EXPECT_DOUBLE_EQ(engine.drift_ks(), 0.0);
  EXPECT_EQ(engine.active_count(), 0u);
  EXPECT_EQ(count_events(recorder, "model.score_drift"), 0u);
  EXPECT_FALSE(std::filesystem::exists(dump_path));

  ::unsetenv("CSDML_FLIGHT_DUMP");
  std::remove(dump_path.c_str());
}

TEST(AlertEngine, RateOfChangeCatchesCliffsBelowStaticLines) {
  FlightRecorder recorder(64);
  AlertEngine engine(&recorder);
  AlertRule rule;
  rule.id = "thru.cliff";
  rule.series = "thru";
  rule.kind = AlertRuleKind::RateOfChange;
  rule.threshold = 0.5;  // >50% change tick-over-tick
  rule.min_samples = 2;
  rule.fire_for = 1;
  engine.add_rule(rule);

  TimeSeriesStore store;
  std::int64_t now_us = 0;
  step(engine, store, "thru", now_us, 1000.0);
  step(engine, store, "thru", now_us, 980.0);   // -2%: fine
  step(engine, store, "thru", now_us, 1020.0);  // +4%: fine
  EXPECT_EQ(engine.active_count(), 0u);
  // Throughput halves in one tick — a cliff no static threshold on the
  // absolute level would see.
  const std::vector<Alert> fired = step(engine, store, "thru", now_us, 400.0);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_TRUE(fired[0].active);
}

}  // namespace
}  // namespace csdml::obs
