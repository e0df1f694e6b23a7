// Alert-engine tests: latch/clear hysteresis under a flapping metric, an
// injected p99 latency regression (EWMA z-score) latching a
// flight-recorded alert on a fully deterministic injected clock, and the
// critical latch's auto-dump path and severity counter.
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

  // One clean eval is not clear_for of them: the latched alert holds.
  EXPECT_TRUE(step(engine, store, rule.series, now_us, 90.0).empty());
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

// A critical latch counts `alerts.fired.critical`, names its board to the
// fleet's drain hook, and auto-dumps the flight recorder while the
// regression is still live.
TEST(AlertEngine, CriticalLatchCountsSeverityAndAutoDumps) {
  registry().reset();
  const std::string dump_path =
      testing::temp_path("csdml_critical_dump.json");
  std::remove(dump_path.c_str());
  ::setenv("CSDML_FLIGHT_DUMP", dump_path.c_str(), 1);

  FlightRecorder recorder(64);
  AlertEngine engine(&recorder);
  AlertRule rule;
  rule.id = "b1.shed.critical";
  rule.series = "fleet.b1.shed.delta";
  rule.kind = AlertRuleKind::AboveThreshold;
  rule.threshold = 10.0;
  rule.min_samples = 1;
  rule.fire_for = 2;
  rule.clear_for = 3;
  rule.severity = AlertSeverity::Critical;
  rule.board = 1;
  engine.add_rule(rule);

  TimeSeriesStore store;
  std::int64_t now_us = 0;
  EXPECT_TRUE(step(engine, store, rule.series, now_us, 50.0).empty());
  EXPECT_FALSE(std::filesystem::exists(dump_path));
  const std::vector<Alert> fired =
      step(engine, store, rule.series, now_us, 50.0);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_TRUE(fired[0].active);
  EXPECT_EQ(fired[0].rule_id, rule.id);
  EXPECT_EQ(fired[0].severity, AlertSeverity::Critical);
  EXPECT_EQ(engine.active_count(), 1u);
  EXPECT_TRUE(engine.board_alerted(1));
  EXPECT_FALSE(engine.board_alerted(0));
  EXPECT_EQ(count_events(recorder, rule.id), 1u);
  EXPECT_EQ(registry().counter_value("alerts.fired.critical"), 1u);
  EXPECT_EQ(registry().counter_value("alerts.fired.warning"), 0u);

  // The critical latch auto-dumped the post-mortem to CSDML_FLIGHT_DUMP.
  std::ifstream dump(dump_path);
  ASSERT_TRUE(dump.good()) << "auto-dump missing at " << dump_path;
  std::string json((std::istreambuf_iterator<char>(dump)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("alert:b1.shed.critical"), std::string::npos);
  EXPECT_NE(json.find("flight_recorder"), std::string::npos);

  // Back under the threshold, it clears after clear_for clean evals.
  std::vector<Alert> cleared;
  for (int i = 0; i < 8 && cleared.empty(); ++i) {
    cleared = step(engine, store, rule.series, now_us, 0.0);
  }
  ASSERT_EQ(cleared.size(), 1u);
  EXPECT_FALSE(cleared[0].active);
  EXPECT_EQ(engine.active_count(), 0u);
  EXPECT_FALSE(engine.board_alerted(1));

  ::unsetenv("CSDML_FLIGHT_DUMP");
  std::remove(dump_path.c_str());
}

}  // namespace
}  // namespace csdml::obs
