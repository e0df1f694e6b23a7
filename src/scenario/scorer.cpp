#include "scenario/scorer.hpp"

#include <algorithm>
#include <cstdio>
#include <set>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "ransomware/sandbox.hpp"

namespace csdml::scenario {

std::string format_digest(std::uint64_t digest) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(digest));
  return buffer;
}

ScoreSummary score_scenario(
    const Scenario& scenario, const std::vector<serve::Verdict>& verdicts,
    const std::unordered_map<detect::ProcessId, std::vector<nn::TokenId>>&
        traces,
    const serve::BoardFleet::Stats& fleet) {
  ScoreSummary summary;
  summary.fleet = fleet;

  std::vector<ProcessSpec> cast = scenario.processes;
  std::sort(cast.begin(), cast.end(),
            [](const ProcessSpec& a, const ProcessSpec& b) {
              return a.pid < b.pid;
            });

  // Verdicts arrive sorted by (pid, call_index): one linear pass, with a
  // cursor per process.
  std::size_t cursor = 0;
  for (const ProcessSpec& spec : cast) {
    ProcessOutcome outcome;
    outcome.pid = spec.pid;
    outcome.attack = spec.attack;
    std::set<std::uint32_t> boards;
    while (cursor < verdicts.size() && verdicts[cursor].process < spec.pid) {
      ++cursor;  // verdicts for pids outside the cast (none in practice)
    }
    while (cursor < verdicts.size() && verdicts[cursor].process == spec.pid) {
      const serve::Verdict& verdict = verdicts[cursor];
      ++outcome.verdicts;
      boards.insert(verdict.board);
      if (verdict.alert) {
        ++outcome.alerts;
        if (outcome.first_alert_call == kNever) {
          outcome.first_alert_call = verdict.call_index;
        }
      }
      ++cursor;
    }
    outcome.boards_seen = static_cast<std::uint32_t>(boards.size());

    if (outcome.first_alert_call != kNever) {
      // call_index is the 1-based count of calls seen when the window
      // completed, so the first classifiable point is call window_length.
      outcome.detection_latency =
          outcome.first_alert_call >= scenario.window
              ? outcome.first_alert_call - scenario.window
              : 0;
    }

    if (spec.attack) {
      ++summary.attacks;
      const auto trace_it = traces.find(spec.pid);
      CSDML_REQUIRE(trace_it != traces.end(),
                    "scorer: missing trace for attack pid " +
                        std::to_string(spec.pid));
      // Exposure: every call the detector let through before the first
      // alert — the whole scheduled stream if it never alerted.
      const std::uint64_t exposure =
          outcome.first_alert_call != kNever
              ? std::min<std::uint64_t>(outcome.first_alert_call, spec.calls)
              : spec.calls;
      const std::vector<nn::TokenId>& trace = trace_it->second;
      const std::size_t prefix = static_cast<std::size_t>(
          std::min<std::uint64_t>(exposure, trace.size()));
      outcome.files_lost =
          ransomware::count_files_encrypted(nn::TokenSpan(trace.data(), prefix));
      summary.files_lost += outcome.files_lost;
      if (outcome.first_alert_call != kNever) {
        ++summary.detected;
        summary.latencies.push_back(outcome.detection_latency);
      }
    } else {
      ++summary.benign;
      if (outcome.alerts > 0) ++summary.false_positives;
    }
    summary.processes.push_back(outcome);
  }

  std::sort(summary.latencies.begin(), summary.latencies.end());
  if (summary.benign > 0) {
    summary.fpr = static_cast<double>(summary.false_positives) /
                  static_cast<double>(summary.benign);
  }
  return summary;
}

GateReport evaluate_gates(const Scenario& scenario,
                          const ScoreSummary& summary) {
  GateReport gates;
  gates.attacks_detected = summary.detected == summary.attacks;
  for (const ProcessOutcome& outcome : summary.processes) {
    if (outcome.attack && outcome.detection_latency != kNever &&
        outcome.detection_latency > scenario.budget.detection_latency) {
      gates.latency_within_budget = false;
    }
  }
  // An undetected attack blows the latency gate too: its exposure was the
  // whole stream.
  if (!gates.attacks_detected) gates.latency_within_budget = false;
  gates.files_within_budget = summary.files_lost <= scenario.budget.files_lost;
  gates.fpr_within_budget = summary.fpr <= scenario.budget.fpr;
  gates.conservation = summary.fleet.conservation_ok();
  gates.failover_resolved = summary.fleet.failover_resolved();
  gates.nothing_shed = summary.fleet.totals.shed == 0;
  return gates;
}

std::uint64_t outcome_digest(const Scenario& scenario,
                             const std::vector<serve::Verdict>& verdicts,
                             const ScoreSummary& summary,
                             const GateReport& gates) {
  // The recorded golden digests start from 1469598103934665603, the
  // standard offset basis with its last decimal digit dropped; any nonzero
  // basis digests as well, so it stays.
  Fnv1a hash(1469598103934665603ULL);
  hash.str("csdml-scenario-outcome-v1");
  hash.str(scenario.name);
  hash.u64(scenario.seed);
  hash.u64(scenario.boards);
  hash.u64(scenario.window);
  hash.u64(scenario.hop);
  hash.u64(scenario.debounce);

  hash.u64(verdicts.size());
  for (const serve::Verdict& verdict : verdicts) {
    hash.u32(verdict.process);
    hash.u64(verdict.call_index);
    hash.boolean(verdict.alert);
    hash.boolean(verdict.degraded);
    hash.u32(verdict.board);
  }

  hash.u64(summary.processes.size());
  for (const ProcessOutcome& outcome : summary.processes) {
    hash.u32(outcome.pid);
    hash.boolean(outcome.attack);
    hash.u64(outcome.verdicts);
    hash.u64(outcome.alerts);
    hash.u64(outcome.first_alert_call);
    hash.u64(outcome.detection_latency);
    hash.u64(outcome.files_lost);
    hash.u32(outcome.boards_seen);
  }
  hash.u64(summary.detected);
  hash.u64(summary.false_positives);
  hash.u64(summary.files_lost);

  // Fleet accounting — everything deterministic under the runner's
  // quiescent-point discipline. `batches` is deliberately absent: batch
  // composition is timing-dependent even when every per-window outcome
  // is not.
  const serve::BoardFleet::Stats& fleet = summary.fleet;
  hash.u64(fleet.totals.ingested);
  hash.u64(fleet.totals.enqueued);
  hash.u64(fleet.totals.shed);
  hash.u64(fleet.totals.deferred);
  hash.u64(fleet.totals.verdicts);
  hash.u64(fleet.totals.alerts);
  hash.u64(fleet.totals.migrated_in);
  hash.u64(fleet.totals.migrated_resolved);
  hash.u64(fleet.failovers);
  hash.u64(fleet.migrations);
  hash.u64(fleet.migrated_pending);
  hash.u64(fleet.readmissions);
  hash.u64(fleet.rollouts);
  hash.u64(fleet.weight_version);

  hash.boolean(gates.attacks_detected);
  hash.boolean(gates.latency_within_budget);
  hash.boolean(gates.files_within_budget);
  hash.boolean(gates.fpr_within_budget);
  hash.boolean(gates.conservation);
  hash.boolean(gates.failover_resolved);
  hash.boolean(gates.nothing_shed);
  return hash.value();
}

}  // namespace csdml::scenario
