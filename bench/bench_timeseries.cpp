// Telemetry collector cost + alert-detection latency.
//
// Two questions gate the time-series subsystem:
//
//  1. What does the collector cost the serving hot path? Measured two
//     ways. The duty cycle — one tick's wall cost over the sampling
//     interval — is the honest steady-state number and the gated one
//     (< 1%): the collector thread sleeps between ticks, so the tax on
//     serving is (tick_us / interval_us). The interleaved wall-clock
//     delta (serving blocks with the collector thread off vs on) is
//     reported too, but it is noise-dominated on a loaded 1-core runner
//     and informational only.
//
//  2. How fast does an injected p99 latency regression latch an alert?
//     Run on a fully deterministic injected clock/series: a baseline
//     stretch of ticks, then a stepped regression; the latency is
//     (ticks-to-latch x interval). No wall clock anywhere, so the number
//     is exact and reproducible.
//
// Emits BENCH_timeseries.json (into CSDML_METRICS_OUT when set); exit is
// nonzero only when the duty-cycle gate fails or the injected regression
// never latches.
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/json_writer.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "obs/anomaly.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/timeseries.hpp"
#include "ransomware/families.hpp"
#include "ransomware/sandbox.hpp"
#include "serve/fleet.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_s(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace csdml;
  bool tiny = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tiny") == 0) tiny = true;
  }

  const std::size_t calls = tiny ? 600 : 3'000;
  const std::size_t boards = 2;
  const std::uint64_t seed = 2024;

  bench::print_header("Telemetry collector overhead + alert latency");
  std::cout << "boards=" << boards << " calls=" << calls
            << (tiny ? "  [tiny smoke]" : "") << "\n";

  obs::registry().reset();
  nn::LstmConfig model_config;
  Rng rng(seed);
  const nn::LstmParams params = nn::LstmParams::glorot(model_config, rng);

  const ransomware::SandboxTraceGenerator sandbox{ransomware::SandboxConfig{}};
  const auto& families = ransomware::ransomware_families();
  const auto& benign = ransomware::benign_profiles();
  const std::vector<std::vector<nn::TokenId>> streams = {
      sandbox.ransomware_trace(families.front(), 0, calls),
      sandbox.benign_trace(benign[0], 1, calls),
      sandbox.benign_trace(benign[1], 2, calls),
  };

  serve::FleetConfig fleet_config;
  fleet_config.boards = boards;
  fleet_config.seed = seed;
  fleet_config.engine = kernels::EngineConfig{};
  fleet_config.serve.detector = detect::DetectorConfig{
      .window_length = 100, .hop = 25, .consecutive_alerts = 2};
  fleet_config.telemetry.collector_thread = false;  // ticked by hand below

  serve::BoardFleet fleet(model_config, params, fleet_config,
                          [](const serve::Verdict&) {});
  obs::TelemetryCollector& collector = *fleet.telemetry();

  // --- 1a: interleaved serving blocks, collector quiet vs ticking -------
  // Alternating blocks charge machine-load drift to both sides equally.
  const std::size_t block = 50;
  double quiet_s = 0.0;
  double ticking_s = 0.0;
  bool ticking = false;
  for (std::size_t base = 0; base < calls; base += block) {
    const std::size_t end = std::min(base + block, calls);
    const auto start = Clock::now();
    for (std::size_t i = base; i < end; ++i) {
      for (std::size_t p = 0; p < streams.size(); ++p) {
        fleet.ingest(static_cast<detect::ProcessId>(p + 1), streams[p][i]);
      }
      // In ticking blocks, sample at the configured cadence relative to
      // the ingest stream (every ~25 ingests approximates a 100 ms
      // interval against this workload's pace).
      if (ticking && i % 25 == 0) collector.tick();
    }
    fleet.flush();
    (ticking ? ticking_s : quiet_s) += elapsed_s(start);
    ticking = !ticking;
  }
  const double overhead_pct =
      quiet_s > 0.0 ? (ticking_s - quiet_s) / quiet_s * 100.0 : 0.0;

  // --- 1b: duty cycle — the gated number ---------------------------------
  // Cost of one tick in isolation (registry snapshot + sampling + alert
  // evaluation) against the interval the collector thread would sleep.
  const std::size_t tick_iters = tiny ? 200 : 1'000;
  const auto tick_start = Clock::now();
  for (std::size_t i = 0; i < tick_iters; ++i) collector.tick();
  const double tick_us =
      elapsed_s(tick_start) / static_cast<double>(tick_iters) * 1e6;
  const double interval_us =
      static_cast<double>(fleet_config.telemetry.tsdb.interval_us);
  const double duty_cycle_pct = tick_us / interval_us * 100.0;
  const bool overhead_ok = duty_cycle_pct < 1.0;

  fleet.stop();
  const serve::BoardFleet::Stats stats = fleet.stats();

  // --- 2: deterministic alert-detection latency --------------------------
  // Injected clock and injected series: baseline p99 ~120 us for 32 ticks,
  // then a 6x step regression. Latency = ticks from the first regressed
  // sample to the latch, times the sampling interval.
  obs::FlightRecorder recorder(256);
  obs::TimeSeriesStore store;
  obs::AlertEngine engine(&recorder);
  obs::AlertRule rule;
  rule.id = "bench.p99.regression";
  rule.series = "bench.p99_us";
  rule.kind = obs::AlertRuleKind::EwmaZScore;
  rule.threshold = 6.0;
  rule.min_samples = 8;
  rule.fire_for = 2;
  rule.clear_for = 3;
  rule.severity = obs::AlertSeverity::Warning;
  engine.add_rule(rule);

  std::int64_t now_us = 0;
  const std::int64_t step_us = 100'000;  // collector default interval
  Rng jitter(7);
  for (std::size_t i = 0; i < 32; ++i) {
    now_us += step_us;
    store.record(rule.series, now_us,
                 120.0 + static_cast<double>(jitter.uniform_int(0, 8)));
    engine.evaluate(store, now_us);
  }
  std::uint64_t ticks_to_latch = 0;
  bool fired = false;
  for (std::size_t i = 0; i < 16 && !fired; ++i) {
    now_us += step_us;
    ++ticks_to_latch;
    store.record(rule.series, now_us,
                 720.0 + static_cast<double>(jitter.uniform_int(0, 8)));
    for (const obs::Alert& alert : engine.evaluate(store, now_us)) {
      fired = fired || alert.active;
    }
  }
  const double detection_latency_us =
      static_cast<double>(ticks_to_latch * step_us);

  TextTable table({"measure", "value"});
  table.add_row({"serving quiet (s)", TextTable::num(quiet_s, 3)});
  table.add_row({"serving ticking (s)", TextTable::num(ticking_s, 3)});
  table.add_row({"interleaved overhead (%)", TextTable::num(overhead_pct, 2)});
  table.add_row({"tick cost (us)", TextTable::num(tick_us, 1)});
  table.add_row({"duty cycle (%)", TextTable::num(duty_cycle_pct, 3)});
  table.add_row({"ticks to latch", std::to_string(ticks_to_latch)});
  table.add_row(
      {"detection latency (us)", TextTable::num(detection_latency_us, 0)});
  table.print(std::cout);
  std::cout << "duty-cycle gate (<1%) " << (overhead_ok ? "ok" : "FAILED")
            << ", regression latch " << (fired ? "ok" : "MISSED")
            << ", conservation "
            << (stats.conservation_ok() ? "ok" : "VIOLATED") << "\n";

  JsonWriter json;
  json.begin_object();
  json.field("bench", "timeseries");
  json.key("config");
  json.begin_object();
  json.field("boards", static_cast<std::uint64_t>(boards));
  json.field("calls", static_cast<std::uint64_t>(calls));
  json.field("interval_us", interval_us);
  json.field("tiny", tiny);
  json.end_object();
  json.key("collector");
  json.begin_object();
  json.field("serving_quiet_s", quiet_s);
  json.field("serving_ticking_s", ticking_s);
  json.field("overhead_pct", overhead_pct);
  json.field("tick_us", tick_us);
  json.field("duty_cycle_pct", duty_cycle_pct);
  json.field("samples", collector.store().totals().samples);
  json.end_object();
  json.key("alert_detection");
  json.begin_object();
  json.field("fired", fired);
  json.field("ticks_to_latch", ticks_to_latch);
  json.field("latency_us", detection_latency_us);
  json.end_object();
  json.field("conservation_ok", stats.conservation_ok());
  json.field("pass", overhead_ok && fired && stats.conservation_ok());
  json.end_object();

  const char* out_dir = std::getenv("CSDML_METRICS_OUT");
  if (out_dir != nullptr && *out_dir != '\0') {
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);  // best effort
  }
  const std::string json_path =
      (out_dir != nullptr && *out_dir != '\0' ? std::string(out_dir) + "/"
                                              : std::string()) +
      "BENCH_timeseries.json";
  {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot write " << json_path << "\n";
      return 1;
    }
    out << json.str() << '\n';
  }
  std::cout << "\ntimeseries -> " << json_path << "\n";
  bench::dump_metrics_json("bench_timeseries");
  return overhead_ok && fired && stats.conservation_ok() ? 0 : 1;
}
