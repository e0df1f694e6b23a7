// Scenario runner — replays one campaign through a real BoardFleet.
//
// Determinism contract (what makes golden digests possible):
//   * One ingest thread, round-robin over the cast: round r feeds each
//     active process its r-th trace token, in pid order.
//   * The fleet is flushed (fully quiescent) before every control event,
//     at every hop boundary, and before every health sweep — so sweep
//     decisions, failovers, and rollouts always observe the same state.
//   * Between those points the runner holds every board's device lock, so
//     no batch completes while calls are fed: a deferral never lands
//     mid-hop to re-arm a retry on the next call, however the coalescers
//     group or time their batches.
//   * Health sweeps run only at those explicit points
//     (health_check_interval = 0), and the fleet carries no alert rules, so
//     the only path to a drain is the engine latch — wall-clock timing can
//     never change an outcome.
//   * Engines never self-probe (recovery_probe_interval = 0): a latched
//     board, the lone board of a one-board fleet included, recovers only
//     through the quiescent sweep's probe, never on the Nth degraded
//     batch, whose count depends on coalescer grouping.
//   * Ring capacity exceeds the worst-case due-window burst between
//     flushes, so backpressure shedding never triggers (asserted by the
//     nothing_shed gate).
//   * Fault injection is restricted to the lethal kill plans (p = 1):
//     probabilistic mid-run storms would couple the fault-stream draw
//     order to batch-composition timing.
//   * Verdict arrival order (coalescer threads) is not deterministic —
//     the verdict *set* is — so the stream is sorted by (pid, call_index)
//     before scoring and digesting.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "scenario/model.hpp"
#include "scenario/scenario.hpp"
#include "scenario/scorer.hpp"
#include "serve/fleet.hpp"

namespace csdml::scenario {

struct RunOptions {
  /// Replaces the scenario's seed (trace generation + fleet hashing).
  std::optional<std::uint64_t> seed;
  /// Serve with the tiny model (smoke lanes). Digests differ from the
  /// full model's — golden files record full-model outcomes.
  bool tiny{false};
};

struct RunResult {
  Scenario scenario;  ///< as run (seed override applied)
  /// Sorted by (pid, call_index).
  std::vector<serve::Verdict> verdicts;
  ScoreSummary summary;
  GateReport gates;
  std::uint64_t digest{0};
  double model_test_accuracy{0.0};
  double wall_ms{0.0};  ///< informational only; never digested
};

/// Runs one scenario to completion. Same scenario + same options ⇒
/// identical verdicts, summary, gates, and digest, every time.
RunResult run_scenario(const Scenario& scenario, const RunOptions& options = {});

}  // namespace csdml::scenario
