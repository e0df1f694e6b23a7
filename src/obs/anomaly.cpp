#include "obs/anomaly.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/units.hpp"
#include "obs/flight_recorder.hpp"

namespace csdml::obs {

namespace {

/// EwmaZScore smoothing factor.
constexpr double kEwmaAlpha = 0.2;

}  // namespace

const char* alert_severity_name(AlertSeverity severity) {
  switch (severity) {
    case AlertSeverity::Info:
      return "info";
    case AlertSeverity::Warning:
      return "warning";
    case AlertSeverity::Critical:
      return "critical";
  }
  return "unknown";
}

AlertEngine::AlertEngine(FlightRecorder* recorder)
    : recorder_(recorder != nullptr ? recorder : &FlightRecorder::instance()) {}

void AlertEngine::add_rule(AlertRule rule) {
  std::lock_guard<std::mutex> lock(mutex_);
  RuleState state;
  state.alert.rule_id = rule.id;
  state.alert.severity = rule.severity;
  state.alert.board = rule.board;
  state.rule = std::move(rule);
  rules_[state.rule.id] = std::move(state);
}

bool AlertEngine::violated(RuleState& state, double value) {
  const AlertRule& rule = state.rule;
  switch (rule.kind) {
    case AlertRuleKind::AboveThreshold:
      return value > rule.threshold;
    case AlertRuleKind::EwmaZScore: {
      bool violation = false;
      if (state.ewma_seeded && state.seen_samples >= rule.min_samples) {
        const double stddev = std::sqrt(std::max(state.ewma_var, 1e-12));
        const double z = std::abs(value - state.ewma) / stddev;
        violation = z > rule.threshold;
      }
      if (!state.ewma_seeded) {
        state.ewma = value;
        state.ewma_var = 0.0;
        state.ewma_seeded = true;
      } else if (!violation) {
        // Only clean samples update the baseline: folding a regression
        // into the EWMA would teach the rule to accept it.
        const double diff = value - state.ewma;
        state.ewma += kEwmaAlpha * diff;
        state.ewma_var =
            (1.0 - kEwmaAlpha) * (state.ewma_var + kEwmaAlpha * diff * diff);
      }
      return violation;
    }
  }
  return false;
}

void AlertEngine::transition(RuleState& state, bool violation, double value,
                             std::int64_t now_us,
                             std::vector<Alert>& transitions) {
  Alert& alert = state.alert;
  alert.value = value;
  if (violation) {
    ++state.violation_streak;
    state.clean_streak = 0;
  } else {
    ++state.clean_streak;
    state.violation_streak = 0;
  }

  const char* severity = alert_severity_name(alert.severity);
  if (!alert.active && state.violation_streak >= state.rule.fire_for) {
    alert.active = true;
    alert.fired_at_us = now_us;
    ++alert.fire_count;
    char message[96];
    std::snprintf(message, sizeof(message), "%s fired (value %.3f)",
                  state.rule.id.c_str(), value);
    alert.message = message;
    registry().add_counter("alerts.fired");
    registry().add_counter(std::string("alerts.fired.") + severity);
    // Collector timestamps are microseconds; the recorder's timeline is
    // picoseconds.
    recorder_->record(FlightEventKind::Alert, "anomaly",
                      state.rule.id.c_str(), TimePoint{now_us * 1'000'000},
                      /*trace_id=*/0,
                      static_cast<std::uint64_t>(
                          state.rule.board < 0 ? 0 : state.rule.board));
    if (alert.severity == AlertSeverity::Critical) {
      const std::string reason = "alert:" + state.rule.id;
      recorder_->auto_dump(reason.c_str());
    }
    transitions.push_back(alert);
  } else if (alert.active && state.clean_streak >= state.rule.clear_for) {
    alert.active = false;
    alert.cleared_at_us = now_us;
    char message[96];
    std::snprintf(message, sizeof(message), "%s cleared (value %.3f)",
                  state.rule.id.c_str(), value);
    alert.message = message;
    registry().add_counter("alerts.cleared");
    recorder_->record(FlightEventKind::Alert, "anomaly",
                      (state.rule.id + ":clear").c_str(),
                      TimePoint{now_us * 1'000'000}, /*trace_id=*/0,
                      static_cast<std::uint64_t>(
                          state.rule.board < 0 ? 0 : state.rule.board));
    transitions.push_back(alert);
  }
}

std::vector<Alert> AlertEngine::evaluate(const TimeSeriesStore& store,
                                         std::int64_t now_us) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Alert> transitions;

  for (auto& [id, state] : rules_) {
    const std::uint64_t samples = store.samples(state.rule.series);
    if (samples == 0 || samples == state.seen_samples) continue;
    state.seen_samples = samples;
    const double value = store.last(state.rule.series);
    if (samples < state.rule.min_samples &&
        state.rule.kind == AlertRuleKind::AboveThreshold) {
      continue;  // threshold rules wait out the warm-up window
    }
    // EWMA rules run through violated() during warm-up so their baselines
    // seed; the min_samples gate inside keeps them quiet.
    const bool violation = violated(state, value);
    transition(state, violation, value, now_us, transitions);
  }

  std::size_t active = 0;
  for (const auto& [id, state] : rules_) {
    if (state.alert.active) ++active;
  }
  registry().set_gauge("alerts.active", static_cast<double>(active));
  return transitions;
}

std::vector<Alert> AlertEngine::alerts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Alert> out;
  out.reserve(rules_.size());
  for (const auto& [id, state] : rules_) out.push_back(state.alert);
  return out;
}

std::vector<Alert> AlertEngine::active_alerts() const {
  std::vector<Alert> out;
  for (Alert& alert : alerts()) {
    if (alert.active) out.push_back(std::move(alert));
  }
  return out;
}

std::size_t AlertEngine::active_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t active = 0;
  for (const auto& [id, state] : rules_) {
    if (state.alert.active) ++active;
  }
  return active;
}

bool AlertEngine::board_alerted(int board, AlertSeverity min_severity) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [id, state] : rules_) {
    if (state.alert.active && state.rule.board == board &&
        state.alert.severity >= min_severity) {
      return true;
    }
  }
  return false;
}

}  // namespace csdml::obs
