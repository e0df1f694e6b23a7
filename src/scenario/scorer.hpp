// ScenarioScorer — grades a finished campaign and digests the outcome.
//
// Three questions, straight from the paper's evaluation: did the detector
// catch every attack (and how many API calls past the first classifiable
// point did it take), how many files did the encryption loop finish
// before the verdict landed, and did any benign process get flagged?
// Plus the serving-layer conservation laws, so a scenario cannot "pass"
// by silently dropping classifications.
//
// The outcome digest is FNV-1a over the *integer* outcome record — the
// sorted verdict stream (pid, call_index, alert, degraded, board), the
// per-process score rows, the fleet accounting, and the gate verdicts.
// Probabilities and wall-clock quantities are deliberately excluded:
// the digest must be byte-stable for a fixed seed so it can be a golden
// file, and floating-point text formatting / timing are the two things
// that are not.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "nn/dataset.hpp"
#include "scenario/scenario.hpp"
#include "serve/fleet.hpp"

namespace csdml::scenario {

/// Sentinel for "never happened" call indices / latencies.
inline constexpr std::uint64_t kNever = ~std::uint64_t{0};

/// Renders a digest the way golden files store it (16 hex digits).
std::string format_digest(std::uint64_t digest);

struct ProcessOutcome {
  detect::ProcessId pid{0};
  bool attack{false};
  std::uint64_t verdicts{0};
  std::uint64_t alerts{0};
  /// call_index of the first alerting verdict (kNever if none).
  std::uint64_t first_alert_call{kNever};
  /// first_alert_call - window_length: calls past the first classifiable
  /// point (kNever if never detected). 0 means caught on the very first
  /// full window.
  std::uint64_t detection_latency{kNever};
  /// Attack pids only: completed encrypt→rename motifs in the trace
  /// prefix the detector let through (capped at the spec's `calls` for
  /// undetected attacks).
  std::uint64_t files_lost{0};
  /// Distinct boards that served this pid (> 1 means it crossed a
  /// failover rehash).
  std::uint32_t boards_seen{0};
};

struct ScoreSummary {
  std::vector<ProcessOutcome> processes;  ///< pid ascending
  std::uint64_t attacks{0};
  std::uint64_t benign{0};
  std::uint64_t detected{0};
  std::uint64_t false_positives{0};
  std::uint64_t files_lost{0};     ///< summed over attack pids
  double fpr{0.0};                 ///< false_positives / benign (0 if none)
  /// Per detected-attack latencies, ascending (bench derives p50/p95).
  std::vector<std::uint64_t> latencies;
  serve::BoardFleet::Stats fleet;  ///< end-of-run accounting
};

/// Pass/fail against the scenario's Budget plus the standing invariants.
struct GateReport {
  bool attacks_detected{true};       ///< every attack pid alerted
  bool latency_within_budget{true};  ///< max latency <= budget
  bool files_within_budget{true};    ///< summed files_lost <= budget
  bool fpr_within_budget{true};
  bool conservation{true};           ///< enqueued == verdicts + deferred
  bool failover_resolved{true};      ///< migrated deferrals re-served
  bool nothing_shed{true};           ///< determinism contract: shed == 0

  bool pass() const {
    return attacks_detected && latency_within_budget && files_within_budget &&
           fpr_within_budget && conservation && failover_resolved &&
           nothing_shed;
  }
};

/// Scores one run. `verdicts` must already be sorted by (pid, call_index);
/// `traces` maps each pid to the full sandbox trace it was fed from.
ScoreSummary score_scenario(
    const Scenario& scenario, const std::vector<serve::Verdict>& verdicts,
    const std::unordered_map<detect::ProcessId, std::vector<nn::TokenId>>&
        traces,
    const serve::BoardFleet::Stats& fleet);

GateReport evaluate_gates(const Scenario& scenario,
                          const ScoreSummary& summary);

/// The canonical outcome digest (see file header for what it covers).
std::uint64_t outcome_digest(const Scenario& scenario,
                             const std::vector<serve::Verdict>& verdicts,
                             const ScoreSummary& summary,
                             const GateReport& gates);

}  // namespace csdml::scenario
