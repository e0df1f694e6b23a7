// Detection-path resilience under injected faults: how much classification
// throughput survives as the XRT launch-failure rate climbs, and what the
// retry / fallback / recovery machinery costs.
//
// For each fault rate the bench streams API-call windows through a
// StreamingDetector backed by a fault-injected engine with a host
// fallback, and reports classifications, degraded serves, retries,
// recoveries, wall-clock windows/sec, how often the engine's unhealthy
// latch fired and whether it is still set. Emits
// BENCH_fault_resilience.json (into CSDML_METRICS_OUT when set). `--tiny`
// shrinks the stream for CI.
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "baselines/host_baseline.hpp"
#include "bench_util.hpp"
#include "common/json_writer.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "detect/detector.hpp"
#include "faults/fault_plan.hpp"
#include "kernels/engine.hpp"
#include "obs/flight_recorder.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct CampaignRow {
  double fault_rate{0.0};
  std::uint64_t classifications{0};
  std::uint64_t degraded_serves{0};
  std::uint64_t deferred{0};
  std::uint64_t retries{0};
  std::uint64_t recoveries{0};
  std::uint64_t faults_injected{0};
  double windows_per_sec{0.0};
  std::uint64_t unhealthy_latches{0};
  bool csd_healthy{true};  ///< the engine's latch when the campaign ends
};

}  // namespace

int main(int argc, char** argv) {
  using namespace csdml;
  bool tiny = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tiny") == 0) tiny = true;
  }

  // Post-mortem coverage: if a campaign crashes the process, the flight
  // recorder still ships its last events as JSON before the re-raise.
  obs::FlightRecorder::install_crash_handler();

  nn::LstmConfig config;  // seed defaults: fit the xcku15p at every level
  const std::size_t window = tiny ? 12 : 100;
  const std::size_t calls = tiny ? 2'000 : 50'000;

  Rng rng(17);
  const nn::LstmParams params = nn::LstmParams::glorot(config, rng);
  const baselines::HostBaseline host("xeon-fallback", config, params,
                                     baselines::HostLatencyConfig::xeon_cpu());

  bench::print_header("Fault resilience (detection path under injection)");
  std::cout << "vocab=" << config.vocab_size << " hidden=" << config.hidden_dim
            << " window=" << window << " calls=" << calls
            << (tiny ? "  [tiny smoke]" : "") << "\n";

  // 0.25 is the storm rate: 3 consecutive launch failures per window are
  // likely enough that the unhealthy latch (and its flight-recorder dump)
  // fires deterministically even in the tiny CI campaign.
  const std::vector<double> fault_rates{0.0, 0.005, 0.02, 0.05, 0.25};
  std::vector<CampaignRow> rows;
  TextTable table({"fault_rate", "classified", "degraded", "deferred",
                   "retries", "recoveries", "windows_per_s", "latches",
                   "health"});
  for (const double rate : fault_rates) {
    // Fresh registry per campaign, so the metrics dump after the loop
    // holds the storm campaign alone rather than every rate's sum.
    obs::registry().reset();
    csd::SmartSsd board{csd::SmartSsdConfig{}};
    xrt::Device device{board};
    kernels::CsdLstmEngine engine(
        device, config, params,
        kernels::EngineConfig{.batch_threads = 1,
                              .retry = {.max_attempts = 3,
                                        .recovery_probe_interval = 8}});
    engine.set_fallback(&host);

    faults::FaultConfig fault_config;
    fault_config.seed = 404;
    fault_config.xrt_launch_failure_probability = rate;
    faults::FaultPlan plan(fault_config);
    board.set_fault_plan(&plan);

    detect::StreamingDetector detector(
        engine, detect::DetectorConfig{.window_length = window,
                                       .hop = window / 4,
                                       .threshold = 2.0});  // count, don't alert

    obs::MetricsRegistry& metrics = obs::registry();
    const std::uint64_t retries_before = metrics.counter_value("engine.retries");
    const std::uint64_t recoveries_before =
        metrics.counter_value("engine.recoveries");
    const std::uint64_t fallback_before =
        metrics.counter_value("engine.fallback_inferences");
    const std::uint64_t latches_before =
        metrics.counter_value("engine.marked_unhealthy");

    Rng token_rng(5 + static_cast<std::uint64_t>(rate * 1000));
    const auto start = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) {
      detector.on_api_call(1, static_cast<nn::TokenId>(token_rng.uniform_int(
                                  0, config.vocab_size - 1)));
    }
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();

    CampaignRow row;
    row.fault_rate = rate;
    row.classifications = detector.classifications_run();
    row.deferred = detector.degraded_classifications();
    row.degraded_serves =
        metrics.counter_value("engine.fallback_inferences") - fallback_before;
    row.retries = metrics.counter_value("engine.retries") - retries_before;
    row.recoveries =
        metrics.counter_value("engine.recoveries") - recoveries_before;
    row.faults_injected = plan.injected();
    row.windows_per_sec =
        elapsed > 0.0 ? static_cast<double>(row.classifications) / elapsed : 0.0;
    row.unhealthy_latches =
        metrics.counter_value("engine.marked_unhealthy") - latches_before;
    row.csd_healthy = engine.healthy();
    rows.push_back(row);
    table.add_row({TextTable::num(rate, 3),
                   std::to_string(row.classifications),
                   std::to_string(row.degraded_serves),
                   std::to_string(row.deferred),
                   std::to_string(row.retries),
                   std::to_string(row.recoveries),
                   TextTable::num(row.windows_per_sec, 0),
                   std::to_string(row.unhealthy_latches),
                   row.csd_healthy ? "ok" : "LATCHED"});
  }
  table.print(std::cout);

  JsonWriter json;
  json.begin_object();
  json.field("bench", "fault_resilience");
  json.key("config");
  json.begin_object();
  json.field("vocab_size", static_cast<std::int64_t>(config.vocab_size));
  json.field("hidden_dim", config.hidden_dim);
  json.field("window", window);
  json.field("calls", calls);
  json.field("tiny", tiny);
  json.end_object();
  json.key("campaigns");
  json.begin_array();
  for (const CampaignRow& row : rows) {
    json.begin_object();
    json.field("fault_rate", row.fault_rate);
    json.field("classifications", row.classifications);
    json.field("degraded_serves", row.degraded_serves);
    json.field("deferred", row.deferred);
    json.field("retries", row.retries);
    json.field("recoveries", row.recoveries);
    json.field("faults_injected", row.faults_injected);
    json.field("windows_per_sec", row.windows_per_sec);
    json.field("csd_healthy", row.csd_healthy);
    json.field("unhealthy_latches", row.unhealthy_latches);
    json.end_object();
  }
  json.end_array();
  json.field("final_csd_healthy", rows.back().csd_healthy);
  json.field("flight_events_recorded",
             obs::FlightRecorder::instance().recorded());
  json.end_object();

  const char* out_dir = std::getenv("CSDML_METRICS_OUT");
  if (out_dir != nullptr && *out_dir != '\0') {
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);  // best effort
  }
  const std::string json_path =
      (out_dir != nullptr && *out_dir != '\0' ? std::string(out_dir) + "/"
                                              : std::string()) +
      "BENCH_fault_resilience.json";
  {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot write " << json_path << "\n";
      return 1;
    }
    out << json.str() << '\n';
  }
  std::cout << "\nfault resilience -> " << json_path << "\n";
  bench::dump_metrics_json("bench_fault_resilience");
  return 0;
}
