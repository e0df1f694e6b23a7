// Health / SLO evaluation over the metrics registry.
//
// RanStop's observation drives the objective: what bounds the damage a
// ransomware process does before mitigation is the detection-latency
// *tail*, not the mean. So the serving SLO is expressed as "a target
// fraction of classifications complete within the latency budget", and
// health is the burn rate of the remaining error budget, combined with the
// degraded-mode signals PR 3 introduced (deferrals, host-fallback serves,
// the unhealthy latch). The verdict is machine-readable: `csdml stats
// --health` and bench_fault_resilience both consume it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace csdml::obs {

struct SloConfig {
  /// Latency histogram the SLO is evaluated over (microseconds).
  std::string latency_histogram{"detector.inference_us"};
  /// Latency budget per classification.
  double latency_slo_us{5'000.0};
  /// Target fraction of classifications within the budget (0.99 = "two
  /// nines of classifications are fast enough").
  double target{0.99};
  /// Burn >= 1 consumes error budget as fast as allowed -> Degraded;
  /// burn >= unhealthy_burn means the tail has collapsed -> Unhealthy.
  double unhealthy_burn{10.0};
  /// Fraction of classifications allowed to ride degraded paths (deferral
  /// or host fallback) before the verdict degrades.
  double degraded_serve_budget{0.01};
  /// Below this sample count the latency SLO is "no data yet", not a burn.
  std::uint64_t min_samples{20};
};

enum class HealthVerdict { Ok = 0, Degraded = 1, Unhealthy = 2 };

const char* health_verdict_name(HealthVerdict verdict);

struct HealthReport {
  HealthVerdict verdict{HealthVerdict::Ok};
  /// Error-budget burn rate: (observed violating fraction) / (allowed
  /// violating fraction). 1.0 = burning exactly at budget.
  double slo_burn{0.0};
  /// Fraction of classifications within the latency budget (1.0 = all).
  double within_slo{1.0};
  double p99_latency_us{0.0};
  std::uint64_t classifications{0};
  std::uint64_t deferred{0};
  std::uint64_t fallback_serves{0};
  std::uint64_t unhealthy_latches{0};
  std::uint64_t recoveries{0};
  bool csd_healthy{true};
  /// Human-readable causes for a non-Ok verdict, machine-greppable.
  std::vector<std::string> reasons;

  std::string to_text() const;
  /// Single object: {"health":{"verdict":"ok",...,"reasons":[...]}}.
  std::string to_json() const;
};

/// Evaluates the SLO + degraded-mode state over a snapshot. `csd_healthy`
/// is the live engine latch (snapshot counters cannot tell whether the
/// latest latch recovered).
HealthReport evaluate_health(const MetricsSnapshot& snapshot, bool csd_healthy,
                             const SloConfig& config = {});

}  // namespace csdml::obs
