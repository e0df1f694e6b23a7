#include "obs/anomaly.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "common/stats.hpp"
#include "common/units.hpp"
#include "obs/flight_recorder.hpp"

namespace csdml::obs {

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

const char* alert_rule_kind_name(AlertRuleKind kind) {
  switch (kind) {
    case AlertRuleKind::AboveThreshold:
      return "above_threshold";
    case AlertRuleKind::BelowThreshold:
      return "below_threshold";
    case AlertRuleKind::EwmaZScore:
      return "ewma_zscore";
    case AlertRuleKind::RateOfChange:
      return "rate_of_change";
  }
  return "unknown";
}

ScoreDrift::ScoreDrift(DriftConfig config) : config_(config) {
  config_.bins = std::max<std::size_t>(config_.bins, 2);
  config_.window = std::max<std::size_t>(config_.window, config_.bins);
  counts_.assign(config_.bins, 0.0);
}

std::size_t ScoreDrift::bin_of(double score) const {
  return std::min(config_.bins - 1,
                  static_cast<std::size_t>(score * config_.bins));
}

void ScoreDrift::observe(double score) {
  score = std::clamp(score, 0.0, 1.0);
  window_.push_back(score);
  ++counts_[bin_of(score)];
  ++observed_;
  if (window_.size() > config_.window) {
    --counts_[bin_of(window_.front())];
    window_.pop_front();
  }
}

void ScoreDrift::calibrate() { baseline_ = counts_; }

void ScoreDrift::set_baseline(const std::vector<double>& scores) {
  baseline_.assign(config_.bins, 0.0);
  for (const double score : scores) {
    ++baseline_[bin_of(std::clamp(score, 0.0, 1.0))];
  }
}

bool ScoreDrift::calibrated() const {
  return std::accumulate(baseline_.begin(), baseline_.end(), 0.0) > 0.0;
}

bool ScoreDrift::comparable() const {
  return calibrated() && !window_.empty() &&
         window_.size() >= config_.min_scores;
}

double ScoreDrift::psi() const {
  return comparable() ? population_stability_index(baseline_, counts_) : 0.0;
}

double ScoreDrift::ks() const {
  return comparable() ? ks_statistic(baseline_, counts_) : 0.0;
}

AlertEngine::AlertEngine(FlightRecorder* recorder)
    : recorder_(recorder != nullptr ? recorder : &FlightRecorder::instance()) {}

void AlertEngine::add_rule(AlertRule rule) {
  std::lock_guard<std::mutex> lock(mutex_);
  RuleState state;
  if (std::isnan(rule.clear_threshold)) rule.clear_threshold = rule.threshold;
  state.alert.rule_id = rule.id;
  state.alert.severity = rule.severity;
  state.alert.board = rule.board;
  state.rule = std::move(rule);
  rules_[state.rule.id] = std::move(state);
}

std::size_t AlertEngine::rule_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return rules_.size();
}

void AlertEngine::enable_drift(DriftConfig config) {
  std::lock_guard<std::mutex> lock(mutex_);
  drift_.emplace(config);
  drift_state_ = RuleState{};
  drift_state_.rule.id = "model.score_drift";
  drift_state_.rule.severity = config.severity;
  drift_state_.rule.fire_for = config.fire_for;
  drift_state_.rule.clear_for = config.clear_for;
  drift_state_.alert.rule_id = drift_state_.rule.id;
  drift_state_.alert.severity = config.severity;
  drift_state_.alert.board = -1;
}

bool AlertEngine::drift_enabled() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return drift_.has_value();
}

void AlertEngine::observe_score(double score) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (drift_) drift_->observe(score);
}

void AlertEngine::calibrate_drift() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (drift_) drift_->calibrate();
}

void AlertEngine::set_drift_baseline(const std::vector<double>& scores) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (drift_) drift_->set_baseline(scores);
}

double AlertEngine::drift_psi() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return drift_ ? drift_->psi() : 0.0;
}

double AlertEngine::drift_ks() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return drift_ ? drift_->ks() : 0.0;
}

bool AlertEngine::violated(RuleState& state, double value) {
  const AlertRule& rule = state.rule;
  // An active alert clears against clear_threshold instead of threshold,
  // widening the hysteresis band for the threshold-style kinds.
  const bool active = state.alert.active;
  switch (rule.kind) {
    case AlertRuleKind::AboveThreshold:
      return active ? value > rule.clear_threshold : value > rule.threshold;
    case AlertRuleKind::BelowThreshold:
      return active ? value < rule.clear_threshold : value < rule.threshold;
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
        const double alpha = rule.ewma_alpha;
        const double diff = value - state.ewma;
        state.ewma += alpha * diff;
        state.ewma_var =
            (1.0 - alpha) * (state.ewma_var + alpha * diff * diff);
      }
      return violation;
    }
    case AlertRuleKind::RateOfChange: {
      bool violation = false;
      if (state.has_previous && state.seen_samples >= rule.min_samples) {
        const double base = std::max(std::abs(state.previous), 1.0);
        violation = std::abs(value - state.previous) / base > rule.threshold;
      }
      state.previous = value;
      state.has_previous = true;
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
        (state.rule.kind == AlertRuleKind::AboveThreshold ||
         state.rule.kind == AlertRuleKind::BelowThreshold)) {
      continue;  // threshold rules wait out the warm-up window
    }
    // EWMA / rate-of-change rules run through violated() during warm-up so
    // their baselines seed; the min_samples gate inside keeps them quiet.
    const bool violation = violated(state, value);
    transition(state, violation, value, now_us, transitions);
  }

  if (drift_) {
    drift_state_.alert.severity = drift_->config().severity;
    const bool ready = drift_->calibrated() &&
                       drift_->observed() >= drift_->config().min_scores;
    if (ready) {
      const double psi = drift_->psi();
      const double ks = drift_->ks();
      const bool violation = psi > drift_->config().psi_threshold ||
                             ks > drift_->config().ks_threshold;
      transition(drift_state_, violation, psi, now_us, transitions);
    }
  }

  std::size_t active = 0;
  for (const auto& [id, state] : rules_) {
    if (state.alert.active) ++active;
  }
  if (drift_state_.alert.active) ++active;
  registry().set_gauge("alerts.active", static_cast<double>(active));
  return transitions;
}

std::vector<Alert> AlertEngine::alerts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Alert> out;
  out.reserve(rules_.size() + 1);
  for (const auto& [id, state] : rules_) out.push_back(state.alert);
  if (drift_) out.push_back(drift_state_.alert);
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
  if (drift_state_.alert.active) ++active;
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
