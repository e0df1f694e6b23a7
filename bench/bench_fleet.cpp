// Fleet benchmark: the multi-board serving layer under scale-out,
// failover, and coordinated weight rollout.
//
// Three measurement groups, one BENCH_fleet.json:
//   scaling   the same workload through fleets of 1/2/4/8 boards —
//             aggregate ingest rate plus the per-run conservation check.
//             On a small host the boards' coalescer threads share cores,
//             so the curve is about *capacity isolation*, not linear
//             speedup; hw_threads is recorded so readers can judge.
//   failover  kill the board that owns a known-busy pid, measure the
//             kill→unhealthy-latch lag, the drain-and-rehash pause, the
//             kill→every-migrated-deferral-resolved recovery time, and
//             the revive→readmission probe time.
//   rollout   canary-gated weight flip across the fleet (total pause,
//             canary share, slowest single-board flip) plus the gate
//             drill: a rollout attempted while the canary board is dead
//             must be rejected with the fleet version unchanged.
//
// Emits BENCH_fleet.json (into CSDML_METRICS_OUT when set, else the
// working directory). `--tiny` shrinks everything for CI smoke.
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
#include "serve/fleet.hpp"

namespace {

using namespace csdml;
using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

struct Workload {
  nn::LstmConfig model;
  detect::DetectorConfig detector;
  std::size_t calls_per_process{0};
  std::size_t tail{64};  ///< extra tokens for post-failover resolution laps
  std::vector<std::vector<nn::TokenId>> streams;  ///< index p → pid p + 1
};

detect::ProcessId pid_of(std::size_t process_index) {
  return static_cast<detect::ProcessId>(process_index + 1);
}

serve::FleetConfig fleet_config_for(const Workload& work, std::size_t boards) {
  serve::FleetConfig config;
  config.boards = boards;
  config.health_check_interval = 0;  // sweeps are explicit: the bench paces them
  config.serve.detector = work.detector;
  config.engine =
      kernels::EngineConfig{.level = kernels::OptimizationLevel::FixedPoint};
  return config;
}

/// Feeds calls [begin, end) of every stream round-robin across two
/// ingestion threads.
void feed(serve::BoardFleet& fleet, const Workload& work, std::size_t begin,
          std::size_t end) {
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < 2; ++t) {
    workers.emplace_back([&fleet, &work, begin, end, t] {
      for (std::size_t i = begin; i < end; ++i) {
        for (std::size_t p = t; p < work.streams.size(); p += 2) {
          fleet.ingest(pid_of(p), work.streams[p][i]);
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
}

struct ScaleRun {
  std::size_t boards{0};
  double elapsed_s{0.0};
  double calls_per_sec{0.0};
  serve::BoardFleet::Stats stats;
};

ScaleRun run_scale(const Workload& work, const nn::LstmParams& params,
                   std::size_t boards) {
  obs::registry().reset();
  serve::BoardFleet fleet(work.model, params, fleet_config_for(work, boards),
                          [](const serve::Verdict&) {});
  const auto start = Clock::now();
  feed(fleet, work, 0, work.calls_per_process);
  fleet.flush();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();
  fleet.stop();

  ScaleRun run;
  run.boards = boards;
  run.elapsed_s = elapsed;
  run.calls_per_sec =
      static_cast<double>(work.streams.size() * work.calls_per_process) /
      elapsed;
  run.stats = fleet.stats();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  bool tiny = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tiny") == 0) tiny = true;
  }

  Workload work;
  if (tiny) {
    work.model.vocab_size = 41;
    work.model.embed_dim = 8;
    work.model.hidden_dim = 16;
    work.detector = detect::DetectorConfig{.window_length = 20, .hop = 5,
                                           .consecutive_alerts = 2};
    work.calls_per_process = 80;
  } else {
    work.detector = detect::DetectorConfig{.window_length = 100, .hop = 25,
                                           .consecutive_alerts = 2};
    work.calls_per_process = 400;
  }
  const std::size_t processes = tiny ? 8 : 24;
  Rng token_rng(99);
  for (std::size_t p = 0; p < processes; ++p) {
    std::vector<nn::TokenId> stream;
    stream.reserve(work.calls_per_process + work.tail);
    for (std::size_t i = 0; i < work.calls_per_process + work.tail; ++i) {
      stream.push_back(static_cast<nn::TokenId>(
          token_rng.uniform_int(0, work.model.vocab_size - 1)));
    }
    work.streams.push_back(std::move(stream));
  }
  Rng rng(31);
  const nn::LstmParams params = nn::LstmParams::glorot(work.model, rng);

  bench::print_header("Board fleet (placement, failover, rollout)");
  std::cout << "processes=" << processes << " calls=" << work.calls_per_process
            << " window=" << work.detector.window_length
            << " hop=" << work.detector.hop
            << " hw_threads=" << std::thread::hardware_concurrency()
            << (tiny ? "  [tiny smoke]" : "") << "\n";

  // --- scaling over board counts ---------------------------------------
  const std::vector<std::size_t> board_counts = {1, 2, 4, 8};
  std::vector<ScaleRun> scale_runs;
  bool conservation_all = true;
  for (const std::size_t boards : board_counts) {
    scale_runs.push_back(run_scale(work, params, boards));
    conservation_all =
        conservation_all && scale_runs.back().stats.conservation_ok();
  }
  TextTable scale_table(
      {"boards", "calls_s", "verdicts", "batches", "conservation"});
  for (const ScaleRun& run : scale_runs) {
    scale_table.add_row({std::to_string(run.boards),
                         TextTable::num(run.calls_per_sec, 0),
                         std::to_string(run.stats.totals.verdicts),
                         std::to_string(run.stats.totals.batches),
                         run.stats.conservation_ok() ? "ok" : "VIOLATED"});
  }
  scale_table.print(std::cout);
  if (!conservation_all) {
    std::cerr << "SCALING CONSERVATION VIOLATED (see table)\n";
    return 1;
  }

  // --- failover recovery -----------------------------------------------
  obs::registry().reset();
  serve::BoardFleet fleet(work.model, params, fleet_config_for(work, 4),
                          [](const serve::Verdict&) {});
  const std::size_t half = work.calls_per_process / 2;
  feed(fleet, work, 0, half);
  fleet.flush();

  // Kill the board that owns pid 1 — a stream we know keeps flowing.
  const std::size_t victim = fleet.board_of(pid_of(0));
  const auto kill_at = Clock::now();
  fleet.kill_board(victim);
  // Latch lag: traffic keeps flowing until the victim's next batch
  // exhausts its retries.
  std::size_t fed = half;
  while (fed < work.calls_per_process && fleet.engine(victim).healthy()) {
    feed(fleet, work, fed, fed + work.detector.hop);
    fed += work.detector.hop;
    fleet.flush();
  }
  const double kill_to_latch_us = us_since(kill_at);
  const bool latched = !fleet.engine(victim).healthy();

  // The drain: one sweep flushes the victim, exports its processes, and
  // rehashes them onto the survivors. This is the ingest-visible pause.
  const auto drain_at = Clock::now();
  fleet.check_health();
  const double drain_us = us_since(drain_at);

  // Recovery: feed until every migrated deferral has its re-served
  // verdict on the destination board.
  double kill_to_resolved_us = us_since(kill_at);
  for (std::size_t i = fed; i < work.calls_per_process + work.tail; ++i) {
    serve::BoardFleet::Stats stats = fleet.stats();
    if (stats.failover_resolved()) break;
    feed(fleet, work, i, i + 1);
    fleet.flush();
    kill_to_resolved_us = us_since(kill_at);
  }
  serve::BoardFleet::Stats failover_stats = fleet.stats();

  // Re-admission: detach the kill plan; the next sweep's recovery probe
  // brings the board back into the ring.
  fleet.revive_board(victim);
  const auto revive_at = Clock::now();
  // Two sweeps cover both shapes: if the victim is still in the ring with
  // its latch set (it never drained), the first sweep drains it; the next
  // sweep's recovery probe then re-admits it.
  fleet.check_health();
  if (!fleet.board_healthy(victim)) fleet.check_health();
  const double readmit_us = us_since(revive_at);
  const bool readmitted = fleet.board_healthy(victim);
  fleet.stop();

  std::cout << "failover: victim=board" << victim
            << " latch=" << TextTable::num(kill_to_latch_us, 0) << "us"
            << " drain=" << TextTable::num(drain_us, 0) << "us"
            << " resolved=" << TextTable::num(kill_to_resolved_us, 0) << "us"
            << " readmit=" << TextTable::num(readmit_us, 0) << "us"
            << " migrations=" << failover_stats.migrations
            << " migrated_pending=" << failover_stats.migrated_pending
            << " resolved=" << failover_stats.totals.migrated_resolved << "\n";
  if (!latched || failover_stats.failovers == 0 ||
      !failover_stats.conservation_ok() || !failover_stats.failover_resolved() ||
      !readmitted) {
    std::cerr << "FAILOVER DRILL FAILED (latched=" << latched
              << " failovers=" << failover_stats.failovers
              << " conservation=" << failover_stats.conservation_ok()
              << " resolved=" << failover_stats.failover_resolved()
              << " readmitted=" << readmitted << ")\n";
    return 1;
  }

  // --- coordinated rollout ----------------------------------------------
  obs::registry().reset();
  serve::BoardFleet rollout_fleet(work.model, params,
                                  fleet_config_for(work, 4),
                                  [](const serve::Verdict&) {});
  feed(rollout_fleet, work, 0, work.detector.window_length + work.detector.hop);
  rollout_fleet.flush();
  Rng rollout_rng(32);
  const nn::LstmParams next_params =
      nn::LstmParams::glorot(work.model, rollout_rng);
  const serve::RolloutReport rollout = rollout_fleet.update_weights(next_params);
  double max_board_us = 0.0;
  for (const double us : rollout.per_board_us) {
    max_board_us = std::max(max_board_us, us);
  }

  // Gate drill: kill the canary board, attempt another rollout — it must
  // be rejected (canary cannot vouch) and the version must not move.
  const std::uint64_t version_before = rollout_fleet.weight_version();
  rollout_fleet.kill_board(0);
  std::size_t gate_fed = 0;
  while (gate_fed < work.calls_per_process &&
         rollout_fleet.engine(0).healthy()) {
    feed(rollout_fleet, work, gate_fed, gate_fed + work.detector.hop);
    gate_fed += work.detector.hop;
    rollout_fleet.flush();
  }
  Rng gate_rng(33);
  const serve::RolloutReport gate =
      rollout_fleet.update_weights(nn::LstmParams::glorot(work.model, gate_rng));
  const bool gate_held = !gate.ok && !gate.canary_ok &&
                         rollout_fleet.weight_version() == version_before;
  rollout_fleet.stop();

  std::cout << "rollout: ok=" << rollout.ok << " version=" << rollout.version
            << " total=" << TextTable::num(rollout.total_us, 0) << "us"
            << " canary=" << TextTable::num(rollout.canary_us, 0) << "us"
            << " max_board=" << TextTable::num(max_board_us, 0) << "us"
            << "  canary-gate " << (gate_held ? "held" : "LEAKED") << "\n";
  if (!rollout.ok || !rollout.canary_ok || !gate_held) {
    std::cerr << "ROLLOUT DRILL FAILED\n";
    return 1;
  }

  // --- BENCH_fleet.json --------------------------------------------------
  JsonWriter json;
  json.begin_object();
  json.field("bench", "fleet");
  json.key("config");
  json.begin_object();
  json.field("processes", processes);
  json.field("calls_per_process", work.calls_per_process);
  json.field("window", work.detector.window_length);
  json.field("hop", work.detector.hop);
  json.field("hidden_dim", work.model.hidden_dim);
  json.field("hw_threads",
             static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  json.field("tiny", tiny);
  json.end_object();
  json.key("scaling");
  json.begin_array();
  for (const ScaleRun& run : scale_runs) {
    json.begin_object();
    json.field("boards", static_cast<std::int64_t>(run.boards));
    json.field("calls_per_sec", run.calls_per_sec);
    json.field("verdicts", run.stats.totals.verdicts);
    json.field("batches", run.stats.totals.batches);
    json.field("conservation_ok", run.stats.conservation_ok());
    json.end_object();
  }
  json.end_array();
  json.key("failover");
  json.begin_object();
  json.field("victim_board", static_cast<std::int64_t>(victim));
  json.field("kill_to_latch_us", kill_to_latch_us);
  json.field("drain_and_rehash_us", drain_us);
  json.field("kill_to_resolved_us", kill_to_resolved_us);
  json.field("readmit_us", readmit_us);
  json.field("migrations", failover_stats.migrations);
  json.field("migrated_pending", failover_stats.migrated_pending);
  json.field("migrated_resolved", failover_stats.totals.migrated_resolved);
  json.field("conservation_ok", failover_stats.conservation_ok());
  json.field("readmitted", readmitted);
  json.end_object();
  json.key("rollout");
  json.begin_object();
  json.field("boards", static_cast<std::int64_t>(std::size_t{4}));
  json.field("ok", rollout.ok);
  json.field("canary_ok", rollout.canary_ok);
  json.field("version", rollout.version);
  json.field("total_us", rollout.total_us);
  json.field("canary_us", rollout.canary_us);
  json.field("max_board_us", max_board_us);
  json.field("canary_gate_held", gate_held);
  json.end_object();
  json.end_object();

  const char* out_dir = std::getenv("CSDML_METRICS_OUT");
  if (out_dir != nullptr && *out_dir != '\0') {
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);  // best effort
  }
  const std::string json_path =
      (out_dir != nullptr && *out_dir != '\0' ? std::string(out_dir) + "/"
                                              : std::string()) +
      "BENCH_fleet.json";
  {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot write " << json_path << "\n";
      return 1;
    }
    out << json.str() << '\n';
  }
  std::cout << "\nfleet -> " << json_path << "\n";
  bench::dump_metrics_json("bench_fleet");
  return 0;
}
