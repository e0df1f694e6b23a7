// Rule- and statistics-based alerting over the fleet time-series, plus
// model-quality drift detection.
//
// Two failure families need automated "something changed" signals:
//
//  * System regressions — a board's p99 stepping up, shed/deferred spiking,
//    throughput collapsing. Declarative AlertRules cover these: static
//    thresholds for absolute SLOs, EWMA z-score for "abnormal vs its own
//    recent past", rate-of-change for cliffs that never cross a static
//    line.
//  * Silent model decay — the verdict-score distribution drifting off the
//    calibration baseline while latency metrics stay green (the
//    generalizability failure Reategui et al. document for block-level
//    ransomware detectors). ScoreDrift keeps a rolling histogram of
//    verdict probabilities and compares it against a frozen baseline with
//    PSI and the KS statistic.
//
// Alerts latch with hysteresis (`fire_for` consecutive violations to
// fire, `clear_for` consecutive clean evaluations to clear) so a flapping
// metric cannot strobe the fleet's drain logic. Every transition
// increments `alerts.*` counters and appends a flight-recorder event;
// critical latches additionally trigger the recorder's auto-dump path so
// the post-mortem is on disk while the regression is still live.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "obs/timeseries.hpp"

namespace csdml::obs {

class FlightRecorder;

enum class AlertSeverity : std::uint8_t { Info = 0, Warning, Critical };

const char* alert_severity_name(AlertSeverity severity);

enum class AlertRuleKind : std::uint8_t {
  AboveThreshold = 0,  ///< value > threshold
  BelowThreshold,      ///< value < threshold
  EwmaZScore,          ///< |value - ewma| / stddev > threshold
  RateOfChange,        ///< |value - previous| / max(|previous|, 1) > threshold
};

const char* alert_rule_kind_name(AlertRuleKind kind);

struct AlertRule {
  std::string id;      ///< stable identifier, e.g. "b0.p99.regression"
  std::string series;  ///< time-series the rule watches
  AlertRuleKind kind{AlertRuleKind::AboveThreshold};
  double threshold{0.0};
  /// Clear condition threshold; defaults to `threshold` when NaN. A lower
  /// clear bar (for AboveThreshold rules) widens the hysteresis band.
  double clear_threshold{std::numeric_limits<double>::quiet_NaN()};
  double ewma_alpha{0.2};       ///< EwmaZScore smoothing factor
  std::uint64_t min_samples{8}; ///< samples before the rule can fire
  std::uint32_t fire_for{2};    ///< consecutive violations to latch
  std::uint32_t clear_for{3};   ///< consecutive clean evals to clear
  AlertSeverity severity{AlertSeverity::Warning};
  int board{-1};  ///< owning board index, -1 for fleet-wide rules
};

/// Live alert state for one rule (or the drift monitor).
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

/// Verdict-score drift monitor configuration.
struct DriftConfig {
  std::size_t bins{20};        ///< histogram bins over [0, 1]
  std::size_t window{512};     ///< rolling scores retained
  std::size_t min_scores{64};  ///< scores before drift can be evaluated
  double psi_threshold{0.25};  ///< industry rule of thumb: >0.25 = shifted
  double ks_threshold{0.30};
  std::uint32_t fire_for{2};
  std::uint32_t clear_for{3};
  AlertSeverity severity{AlertSeverity::Critical};
};

/// Rolling verdict-score histogram compared against a frozen calibration
/// baseline with the shared PSI/KS primitive (common/stats). Not
/// thread-safe; the engine serialises access.
class ScoreDrift {
 public:
  explicit ScoreDrift(DriftConfig config = {});

  void observe(double score);  ///< score clamped into [0, 1]
  /// Freezes the current rolling histogram as the calibration baseline.
  void calibrate();
  /// Installs an explicit baseline (e.g. from a validation set).
  void set_baseline(const std::vector<double>& scores);
  /// True once the baseline holds at least one score: calibrating on an
  /// empty window (or an empty explicit baseline) leaves drift
  /// uncalibrated instead of comparing against a zero-mass histogram.
  bool calibrated() const;
  std::uint64_t observed() const { return observed_; }

  /// Population Stability Index of the rolling window vs the baseline
  /// (0 when uncalibrated or below min_scores).
  double psi() const;
  /// Kolmogorov–Smirnov statistic (max CDF gap) vs the baseline.
  double ks() const;

  const DriftConfig& config() const { return config_; }

 private:
  /// Both histograms hold enough mass to compare.
  bool comparable() const;
  std::size_t bin_of(double score) const;

  DriftConfig config_;
  std::deque<double> window_;
  std::vector<double> counts_;    ///< rolling histogram
  std::vector<double> baseline_;  ///< frozen calibration histogram
  std::uint64_t observed_{0};
};

/// Evaluates every rule (and the drift monitor) against the time-series
/// store, owning latch/clear state. One evaluation per collector tick.
/// Thread-safe: evaluate/observe_score/add_rule may race.
class AlertEngine {
 public:
  /// `recorder` defaults to the process-global flight recorder.
  explicit AlertEngine(FlightRecorder* recorder = nullptr);

  void add_rule(AlertRule rule);
  std::size_t rule_count() const;

  /// Enables verdict-score drift monitoring. Scores observed before this
  /// call are dropped.
  void enable_drift(DriftConfig config = {});
  bool drift_enabled() const;
  /// Feeds one verdict probability to the drift monitor (cheap no-op when
  /// drift is disabled) — called from serving verdict sinks.
  void observe_score(double score);
  /// Freezes the rolling score histogram as the calibration baseline.
  void calibrate_drift();
  void set_drift_baseline(const std::vector<double>& scores);
  double drift_psi() const;
  double drift_ks() const;

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
    // EWMA baseline (EwmaZScore) and previous sample (RateOfChange).
    double ewma{0.0};
    double ewma_var{0.0};
    bool ewma_seeded{false};
    double previous{0.0};
    bool has_previous{false};
    std::uint64_t seen_samples{0};  ///< raw samples already consumed
  };

  /// Returns true when the rule's condition is violated for `value`.
  static bool violated(RuleState& state, double value);
  void transition(RuleState& state, bool violation, double value,
                  std::int64_t now_us, std::vector<Alert>& transitions);

  FlightRecorder* recorder_;
  mutable std::mutex mutex_;
  std::map<std::string, RuleState> rules_;
  std::optional<ScoreDrift> drift_;
  RuleState drift_state_;  ///< latch bookkeeping for the drift monitor
};

}  // namespace csdml::obs
