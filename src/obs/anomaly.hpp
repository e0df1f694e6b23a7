// Rule-based alerting over the fleet time-series.
//
// Declarative AlertRules watch one series each: a static threshold for
// absolute SLOs (a board deferring at all, the API-category PSI of
// detect::DriftMonitor crossing 0.25) and an EWMA z-score for "abnormal
// vs its own recent past" (a board's p99 stepping up). Model drift has
// one path: DriftMonitor records a PSI per traffic window into a series,
// and category_drift_rule() latches it like any other rule.
//
// Alerts latch with hysteresis (`fire_for` consecutive violations to
// fire, `clear_for` consecutive clean evaluations to clear) so a flapping
// metric cannot strobe the fleet's drain logic. Every transition
// increments `alerts.*` counters and appends a flight-recorder event;
// critical latches additionally trigger the recorder's auto-dump path so
// the post-mortem is on disk while the regression is still live.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/timeseries.hpp"

namespace csdml::obs {

class FlightRecorder;

enum class AlertSeverity : std::uint8_t { Info = 0, Warning, Critical };

const char* alert_severity_name(AlertSeverity severity);

enum class AlertRuleKind : std::uint8_t {
  AboveThreshold = 0,  ///< value > threshold
  EwmaZScore,          ///< |value - ewma| / stddev > threshold
};

struct AlertRule {
  std::string id;      ///< stable identifier, e.g. "b0.p99.regression"
  std::string series;  ///< time-series the rule watches
  AlertRuleKind kind{AlertRuleKind::AboveThreshold};
  double threshold{0.0};
  std::uint64_t min_samples{8}; ///< samples before the rule can fire
  std::uint32_t fire_for{2};    ///< consecutive violations to latch
  std::uint32_t clear_for{3};   ///< consecutive clean evals to clear
  AlertSeverity severity{AlertSeverity::Warning};
  int board{-1};  ///< owning board index, -1 for fleet-wide rules
};

/// Live alert state for one rule.
struct Alert {
  std::string rule_id;
  AlertSeverity severity{AlertSeverity::Warning};
  int board{-1};
  bool active{false};
  std::int64_t fired_at_us{0};
  std::int64_t cleared_at_us{0};
  double value{0.0};  ///< observed value at the latest evaluation
  std::uint64_t fire_count{0};
  std::string message;
};

/// Evaluates every rule against the time-series store, owning latch/clear
/// state. One evaluation per collector tick. Thread-safe: evaluate and
/// add_rule may race.
class AlertEngine {
 public:
  /// `recorder` defaults to the process-global flight recorder.
  explicit AlertEngine(FlightRecorder* recorder = nullptr);

  void add_rule(AlertRule rule);

  /// Evaluates all rules against `store` at `now_us`; returns alerts that
  /// transitioned (fired or cleared) this round. Updates `alerts.*`
  /// counters, the `alerts.active` gauge, the flight recorder, and — for
  /// critical latches — the auto-dump path.
  std::vector<Alert> evaluate(const TimeSeriesStore& store,
                              std::int64_t now_us);

  /// All alert states, latched and idle, sorted by rule id.
  std::vector<Alert> alerts() const;
  /// Currently latched alerts only.
  std::vector<Alert> active_alerts() const;
  std::size_t active_count() const;
  /// True when a latched alert of at least `min_severity` names `board` —
  /// the hook fleet health sweeps use to drain on alert state.
  bool board_alerted(int board,
                     AlertSeverity min_severity = AlertSeverity::Critical) const;

 private:
  struct RuleState {
    AlertRule rule;
    Alert alert;
    std::uint32_t violation_streak{0};
    std::uint32_t clean_streak{0};
    // EWMA baseline (EwmaZScore).
    double ewma{0.0};
    double ewma_var{0.0};
    bool ewma_seeded{false};
    std::uint64_t seen_samples{0};  ///< raw samples already consumed
  };

  /// Returns true when the rule's condition is violated for `value`.
  static bool violated(RuleState& state, double value);
  void transition(RuleState& state, bool violation, double value,
                  std::int64_t now_us, std::vector<Alert>& transitions);

  FlightRecorder* recorder_;
  mutable std::mutex mutex_;
  std::map<std::string, RuleState> rules_;
};

}  // namespace csdml::obs
