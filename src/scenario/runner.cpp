#include "scenario/runner.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>

#include "common/error.hpp"
#include "ransomware/families.hpp"
#include "ransomware/sandbox.hpp"

namespace csdml::scenario {

namespace {

/// Extra trace margin generated beyond the scheduled calls, and the cap
/// on post-horizon rounds fed to resolve migrated deferrals (a deferral
/// only retries on its process's next call, so a failover near the end of
/// a stream needs a little more traffic to settle the conservation law).
constexpr std::uint64_t kResolveTailRounds = 64;

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

const ransomware::FamilyProfile& family_named(const std::string& name) {
  for (const ransomware::FamilyProfile& family :
       ransomware::ransomware_families()) {
    if (family.name == name) return family;
  }
  throw PreconditionError("scenario: unknown family `" + name + "`");
}

const ransomware::BenignProfile& benign_named(const std::string& name) {
  for (const ransomware::BenignProfile& profile :
       ransomware::benign_profiles()) {
    if (profile.name == name) return profile;
  }
  throw PreconditionError("scenario: unknown benign profile `" + name + "`");
}

}  // namespace

RunResult run_scenario(const Scenario& input, const RunOptions& options) {
  const auto wall_start = std::chrono::steady_clock::now();
  Scenario scenario = input;
  if (options.seed) scenario.seed = *options.seed;
  // The spec threshold is an operating point calibrated for the full
  // model. The tiny smoke model is deliberately under-trained and never
  // reaches the same confidence, so tiny runs re-calibrate to the model's
  // own operating point instead of silently missing every attack.
  if (options.tiny) scenario.threshold = std::min(scenario.threshold, 0.5);
  validate_scenario(scenario);

  const ScenarioModel& model = scenario_model(options.tiny);

  // Traces: one per process, seeded by (scenario seed, pid) so two casts
  // of the same profile/variant still emit distinct executions. Generated
  // long enough to cover the resolution tail.
  std::unordered_map<detect::ProcessId, std::vector<nn::TokenId>> traces;
  for (const ProcessSpec& spec : scenario.processes) {
    ransomware::SandboxConfig sandbox;
    sandbox.seed = splitmix(scenario.seed ^ (spec.pid * 0x100000001b3ULL));
    sandbox.background_noise_rate = spec.noise;
    const ransomware::SandboxTraceGenerator generator(sandbox);
    const std::size_t need =
        static_cast<std::size_t>(spec.calls + kResolveTailRounds);
    std::vector<nn::TokenId> trace =
        spec.attack
            ? generator.ransomware_trace(family_named(spec.profile),
                                         spec.variant, need)
            : generator.benign_trace(benign_named(spec.profile), spec.variant,
                                     need);
    CSDML_REQUIRE(trace.size() >= need, "scenario: trace shorter than asked");
    traces.emplace(spec.pid, std::move(trace));
  }

  serve::FleetConfig fleet_config;
  fleet_config.boards = scenario.boards;
  fleet_config.vnodes = 32;
  fleet_config.health_check_interval = 0;  // explicit sweeps only
  fleet_config.seed = scenario.seed;
  fleet_config.fault_rate = 0.0;  // only deterministic kill plans
  // No engine self-probes: they count degraded batches, so coalescer
  // grouping would decide when a latched lone board recovers.
  fleet_config.engine.retry.recovery_probe_interval = 0;
  fleet_config.canary_windows = 2;
  fleet_config.serve.shards = 4;
  // Worst case between flushes: every process has one due window per hop
  // rounds, plus one deferral retry per call while a board is latched —
  // bounded by cast size * hop. 1024 per shard leaves an order of
  // magnitude of headroom, so shedding (timing-dependent) cannot happen.
  fleet_config.serve.ring_capacity = 1024;
  fleet_config.serve.coalesce_max = 32;
  fleet_config.serve.coalesce_deadline = std::chrono::microseconds(200);
  fleet_config.serve.detector.window_length = scenario.window;
  fleet_config.serve.detector.hop = scenario.hop;
  fleet_config.serve.detector.consecutive_alerts = scenario.debounce;
  fleet_config.serve.detector.threshold = scenario.threshold;

  RunResult result;
  std::mutex verdict_mutex;
  serve::BoardFleet fleet(
      model.config, model.params, fleet_config,
      [&result, &verdict_mutex](const serve::Verdict& verdict) {
        const std::lock_guard<std::mutex> lock(verdict_mutex);
        result.verdicts.push_back(verdict);
      });

  const auto quiesce = [&fleet] {
    fleet.flush();
    fleet.check_health();
    fleet.flush();  // a failover's re-imports may owe verdicts already
  };

  const auto apply_event = [&](const EventSpec& event) {
    fleet.flush();
    switch (event.kind) {
      case EventSpec::Kind::KillBoard:
        fleet.kill_board(event.board);
        break;
      case EventSpec::Kind::ReviveBoard:
        fleet.revive_board(event.board);
        break;
      case EventSpec::Kind::KillOwner:
        fleet.kill_board(fleet.board_of(event.pid));
        break;
      case EventSpec::Kind::Rollout:
        // Re-rolls the weights the fleet is already serving: exercises
        // the canary gate, version stamping, and readmission catch-up
        // without perturbing detection quality mid-scenario.
        fleet.update_weights(model.params);
        break;
    }
  };

  const std::uint64_t horizon = scenario.horizon();
  std::size_t next_event = 0;
  for (std::uint64_t round = 0; round < horizon; ++round) {
    while (next_event < scenario.events.size() &&
           scenario.events[next_event].at <= round) {
      apply_event(scenario.events[next_event]);
      ++next_event;
    }
    for (const ProcessSpec& spec : scenario.processes) {
      if (round < spec.start || round - spec.start >= spec.calls) continue;
      const std::vector<nn::TokenId>& trace = traces.at(spec.pid);
      fleet.ingest(spec.pid, trace[static_cast<std::size_t>(round - spec.start)]);
    }
    if ((round + 1) % scenario.hop == 0) quiesce();
  }
  // Late events (at >= horizon) still fire.
  while (next_event < scenario.events.size()) {
    apply_event(scenario.events[next_event]);
    ++next_event;
  }
  quiesce();

  // Resolution tail: a deferral carried across a failover is only
  // re-served on its process's next call, so if the streams ended first,
  // feed a bounded trickle until the migrated ledger balances. Evaluated
  // at quiescent points, so the tail length is deterministic too.
  std::uint64_t tail = 0;
  while (tail < kResolveTailRounds) {
    // The ledger is only consulted at quiescent points (we just flushed),
    // so the tail length itself is deterministic.
    const serve::BoardFleet::Stats ledger = fleet.stats();
    if (ledger.failover_resolved()) break;
    const std::uint64_t chunk =
        std::min<std::uint64_t>(scenario.hop, kResolveTailRounds - tail);
    for (std::uint64_t i = 0; i < chunk; ++i, ++tail) {
      for (const ProcessSpec& spec : scenario.processes) {
        const std::vector<nn::TokenId>& trace = traces.at(spec.pid);
        fleet.ingest(spec.pid,
                     trace[static_cast<std::size_t>(spec.calls + tail)]);
      }
    }
    quiesce();
  }
  fleet.flush();

  const serve::BoardFleet::Stats stats = fleet.stats();
  fleet.stop();

  std::sort(result.verdicts.begin(), result.verdicts.end(),
            [](const serve::Verdict& a, const serve::Verdict& b) {
              if (a.process != b.process) return a.process < b.process;
              return a.call_index < b.call_index;
            });

  result.scenario = scenario;
  result.summary = score_scenario(scenario, result.verdicts, traces, stats);
  result.gates = evaluate_gates(scenario, result.summary);
  result.digest =
      outcome_digest(scenario, result.verdicts, result.summary, result.gates);
  result.model_test_accuracy = model.test_accuracy;
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();
  return result;
}

}  // namespace csdml::scenario
