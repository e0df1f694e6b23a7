#include "detect/window_tracker.hpp"

#include "common/error.hpp"

namespace csdml::detect {

static_assert(sizeof(WindowTracker) <= 80,
              "per-process state is held for every tracked pid; keep it small");

void validate(const DetectorConfig& config) {
  CSDML_REQUIRE(config.window_length > 0, "window must be positive");
  CSDML_REQUIRE(config.hop > 0, "hop must be positive");
  CSDML_REQUIRE(config.consecutive_alerts > 0,
                "consecutive_alerts must be positive");
}

bool WindowTracker::on_call(nn::TokenId token, const DetectorConfig& config) {
  window_.push(token);
  ++calls_seen_;
  ++calls_since_eval_;
  if (!window_.full()) return false;
  const bool first_full_window = calls_seen_ == config.window_length;
  if (!first_full_window && calls_since_eval_ < config.hop) return false;
  calls_since_eval_ = 0;
  return true;
}

WindowTracker::VerdictOutcome WindowTracker::on_verdict(
    double probability, const DetectorConfig& config) {
  alert_streak_ = probability >= config.threshold ? alert_streak_ + 1 : 0;
  VerdictOutcome outcome;
  outcome.alert = alert_streak_ >= config.consecutive_alerts;
  outcome.debounced = !outcome.alert && alert_streak_ > 0;
  outcome.migrated_resolved = migrated_owed_;
  migrated_owed_ = false;
  return outcome;
}

void WindowTracker::on_deferred(const DetectorConfig& config) {
  // Priming the hop counter makes the next call due (the first-full-window
  // condition can never re-trigger).
  calls_since_eval_ = config.hop;
  deferral_owed_ = true;
}

WindowTracker::Snapshot WindowTracker::snapshot() const {
  const nn::TokenSpan view = window_.view();
  Snapshot snapshot;
  snapshot.window.assign(view.begin(), view.end());
  snapshot.calls_seen = calls_seen_;
  snapshot.calls_since_eval = calls_since_eval_;
  snapshot.alert_streak = alert_streak_;
  snapshot.deferral_owed = deferral_owed_;
  snapshot.migrated_owed = migrated_owed_;
  return snapshot;
}

WindowTracker WindowTracker::restore(const Snapshot& snapshot,
                                     const DetectorConfig& config) {
  WindowTracker tracker(config);
  tracker.window_.warm(
      nn::TokenSpan(snapshot.window.data(), snapshot.window.size()));
  tracker.calls_seen_ = snapshot.calls_seen;
  tracker.calls_since_eval_ = snapshot.calls_since_eval;
  tracker.alert_streak_ = snapshot.alert_streak;
  tracker.migrated_owed_ = snapshot.migrated_owed || snapshot.deferral_owed;
  if (snapshot.deferral_owed) tracker.on_deferred(config);
  return tracker;
}

}  // namespace csdml::detect
