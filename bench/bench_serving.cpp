// Serving-pipeline benchmark: synchronous per-call classification vs the
// sharded asynchronous pipeline (lock-free rings + micro-batch coalescing)
// across ingestion thread counts.
//
// Three measurements per thread count:
//   sync     one thread drives engine.infer per due window — also the
//            parity oracle (every classification captured bit-exactly)
//   sync-mt  N ingestion threads each classify their own processes
//            synchronously; the engine's device lock serialises them —
//            the pre-pipeline concurrency story
//   async    N ingestion threads feed the ServingPipeline; the coalescer
//            batches due windows into infer_batch
//
// Every async run is checked for bit-identical verdicts (probability,
// alert, call index, per-process order) against the sync oracle, and a
// deliberately starved run (tiny rings + slow sink) checks the
// backpressure contract: shed > 0, nothing lost.
//
// Emits BENCH_serving.json (into CSDML_METRICS_OUT when set, else the
// working directory). `--tiny` shrinks everything for CI smoke.
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/json_writer.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "csd/smartssd.hpp"
#include "detect/window_tracker.hpp"
#include "kernels/engine.hpp"
#include "serve/serving.hpp"
#include "xrt/runtime.hpp"

namespace {

using namespace csdml;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Workload {
  nn::LstmConfig model;
  detect::DetectorConfig detector;
  std::size_t calls_per_process{0};
  std::vector<std::vector<nn::TokenId>> streams;  ///< index p → pid p + 1
};

detect::ProcessId pid_of(std::size_t process_index) {
  return static_cast<detect::ProcessId>(process_index + 1);
}

struct ReplayVerdict {
  std::uint64_t call_index{0};
  double probability{0.0};  ///< compared bit-exactly: same datapath, no tolerance
  bool alert{false};

  bool operator==(const ReplayVerdict&) const = default;
};
/// Per-process verdict streams, in call order.
using VerdictLog = std::map<detect::ProcessId, std::vector<ReplayVerdict>>;

/// Drives one WindowTracker per process straight against engine.infer,
/// capturing every classification. The `processes` list names which
/// stream indices this replay owns (so sync-mt threads can partition the
/// workload without sharing state).
VerdictLog sync_replay(kernels::CsdLstmEngine& engine, const Workload& work,
                       const std::vector<std::size_t>& processes) {
  std::vector<detect::WindowTracker> trackers(processes.size(),
                                              detect::WindowTracker(work.detector));
  VerdictLog log;
  for (std::size_t i = 0; i < work.calls_per_process; ++i) {
    for (std::size_t p = 0; p < processes.size(); ++p) {
      const std::vector<nn::TokenId>& stream = work.streams[processes[p]];
      if (i >= stream.size()) continue;
      detect::WindowTracker& tracker = trackers[p];
      if (!tracker.on_call(stream[i], work.detector)) continue;
      tracker.on_enqueued();
      const double probability = engine.infer(tracker.window()).probability;
      log[pid_of(processes[p])].push_back(
          {tracker.calls_seen(), probability,
           tracker.on_verdict(probability, work.detector).alert});
    }
  }
  return log;
}

std::vector<std::vector<std::size_t>> partition(std::size_t processes,
                                                std::size_t threads) {
  std::vector<std::vector<std::size_t>> parts(threads);
  for (std::size_t p = 0; p < processes; ++p) parts[p % threads].push_back(p);
  return parts;
}

double histogram_p99(const std::string& name) {
  const obs::MetricsSnapshot snapshot = obs::registry().snapshot();
  for (const obs::HistogramSnapshot& histogram : snapshot.histograms) {
    if (histogram.name == name) return histogram.percentile(0.99);
  }
  return 0.0;
}

struct AsyncRun {
  std::size_t threads{0};
  double elapsed_s{0.0};
  double calls_per_sec{0.0};
  double p99_ingest_to_verdict_us{0.0};
  bool parity_ok{false};
  serve::ServingPipeline::Stats stats;
};

AsyncRun run_async(const Workload& work, const nn::LstmParams& params,
                   std::size_t threads, const VerdictLog& oracle) {
  csd::SmartSsd board{csd::SmartSsdConfig{}};
  xrt::Device device{board};
  kernels::CsdLstmEngine engine(
      device, work.model, params,
      kernels::EngineConfig{.level = kernels::OptimizationLevel::FixedPoint});
  obs::registry().reset();

  serve::ServeConfig config;
  config.detector = work.detector;
  std::mutex log_mutex;
  VerdictLog observed;
  serve::ServingPipeline pipeline(
      engine, config, [&](const serve::Verdict& verdict) {
        // Single coalescer thread delivers, but lock anyway — the sink
        // contract only promises "outside shard locks".
        std::lock_guard<std::mutex> lock(log_mutex);
        ReplayVerdict entry;
        entry.call_index = verdict.call_index;
        entry.probability = verdict.probability;
        entry.alert = verdict.alert;
        observed[verdict.process].push_back(entry);
      });

  const auto parts = partition(work.streams.size(), threads);
  const auto start = Clock::now();
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&pipeline, &work, &part = parts[t]] {
      for (std::size_t i = 0; i < work.calls_per_process; ++i) {
        for (const std::size_t p : part) {
          if (i < work.streams[p].size()) {
            pipeline.ingest(pid_of(p), work.streams[p][i]);
          }
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  pipeline.flush();
  const double elapsed = seconds_since(start);
  pipeline.stop();

  AsyncRun run;
  run.threads = threads;
  run.elapsed_s = elapsed;
  run.calls_per_sec =
      static_cast<double>(work.streams.size() * work.calls_per_process) /
      elapsed;
  run.p99_ingest_to_verdict_us = histogram_p99("serve.ingest_to_verdict_us");
  run.parity_ok = observed == oracle;
  run.stats = pipeline.stats();
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
    work.calls_per_process = 60;
  } else {
    work.detector = detect::DetectorConfig{.window_length = 100, .hop = 25,
                                           .consecutive_alerts = 2};
    work.calls_per_process = 1'000;
  }
  const std::size_t processes = tiny ? 4 : 16;
  Rng token_rng(99);
  for (std::size_t p = 0; p < processes; ++p) {
    std::vector<nn::TokenId> stream;
    stream.reserve(work.calls_per_process);
    for (std::size_t i = 0; i < work.calls_per_process; ++i) {
      stream.push_back(static_cast<nn::TokenId>(
          token_rng.uniform_int(0, work.model.vocab_size - 1)));
    }
    work.streams.push_back(std::move(stream));
  }

  Rng rng(31);
  const nn::LstmParams params = nn::LstmParams::glorot(work.model, rng);
  const std::size_t total_calls = processes * work.calls_per_process;

  bench::print_header("Serving pipeline (sync vs sharded async)");
  std::cout << "processes=" << processes << " calls=" << work.calls_per_process
            << " window=" << work.detector.window_length
            << " hop=" << work.detector.hop
            << " hw_threads=" << std::thread::hardware_concurrency()
            << (tiny ? "  [tiny smoke]" : "") << "\n";

  // --- sync oracle (single thread, also the parity reference) ----------
  std::vector<std::size_t> all_processes(processes);
  for (std::size_t p = 0; p < processes; ++p) all_processes[p] = p;
  VerdictLog oracle;
  double sync_elapsed = 0.0;
  {
    csd::SmartSsd board{csd::SmartSsdConfig{}};
    xrt::Device device{board};
    kernels::CsdLstmEngine engine(
        device, work.model, params,
        kernels::EngineConfig{.level = kernels::OptimizationLevel::FixedPoint});
    const auto start = Clock::now();
    oracle = sync_replay(engine, work, all_processes);
    sync_elapsed = seconds_since(start);
  }
  const double sync_calls_per_sec =
      static_cast<double>(total_calls) / sync_elapsed;
  std::size_t oracle_verdicts = 0;
  for (const auto& [pid, verdicts] : oracle) oracle_verdicts += verdicts.size();

  // --- per thread count: sync-mt vs async ------------------------------
  std::vector<std::size_t> thread_counts = tiny
                                               ? std::vector<std::size_t>{1, 2}
                                               : std::vector<std::size_t>{
                                                     1, 2, 4, 8, 16};
  struct Row {
    std::size_t threads{0};
    double sync_mt_calls_per_sec{0.0};
    AsyncRun async;
    double speedup{0.0};
  };
  std::vector<Row> rows;
  bool parity_all = true;
  for (const std::size_t threads : thread_counts) {
    Row row;
    row.threads = threads;
    {
      // sync-mt: each thread replays its own processes; every infer
      // serialises on the engine's device lock.
      csd::SmartSsd board{csd::SmartSsdConfig{}};
      xrt::Device device{board};
      kernels::CsdLstmEngine engine(
          device, work.model, params,
          kernels::EngineConfig{.level =
                                    kernels::OptimizationLevel::FixedPoint});
      const auto parts = partition(processes, threads);
      const auto start = Clock::now();
      std::vector<std::thread> workers;
      for (std::size_t t = 0; t < threads; ++t) {
        workers.emplace_back([&engine, &work, &part = parts[t]] {
          sync_replay(engine, work, part);
        });
      }
      for (std::thread& worker : workers) worker.join();
      row.sync_mt_calls_per_sec =
          static_cast<double>(total_calls) / seconds_since(start);
    }
    row.async = run_async(work, params, threads, oracle);
    row.speedup = row.async.calls_per_sec / row.sync_mt_calls_per_sec;
    parity_all = parity_all && row.async.parity_ok;
    rows.push_back(std::move(row));
  }

  TextTable table({"threads", "sync_mt_calls_s", "async_calls_s", "speedup",
                   "p99_ingest_to_verdict_us", "parity"});
  for (const Row& row : rows) {
    table.add_row({std::to_string(row.threads),
                   TextTable::num(row.sync_mt_calls_per_sec, 0),
                   TextTable::num(row.async.calls_per_sec, 0),
                   TextTable::num(row.speedup, 2) + "x",
                   TextTable::num(row.async.p99_ingest_to_verdict_us, 1),
                   row.async.parity_ok ? "ok" : "MISMATCH"});
  }
  table.print(std::cout);
  std::cout << "sync (1 thread, oracle): "
            << TextTable::num(sync_calls_per_sec, 0) << " calls/s, "
            << oracle_verdicts << " classifications\n";

  // Bit-identical verdicts are the contract that makes the async numbers
  // comparable at all — bail loudly if any run drifted.
  if (!parity_all) {
    std::cerr << "ASYNC/SYNC VERDICT MISMATCH (see table)\n";
    return 1;
  }

  // --- backpressure: starved rings + slow sink, nothing may be lost ----
  serve::ServingPipeline::Stats backpressure;
  {
    csd::SmartSsd board{csd::SmartSsdConfig{}};
    xrt::Device device{board};
    kernels::CsdLstmEngine engine(
        device, work.model, params,
        kernels::EngineConfig{.level = kernels::OptimizationLevel::FixedPoint});
    obs::registry().reset();
    serve::ServeConfig config;
    config.detector = work.detector;
    config.ring_capacity = 4;
    config.coalesce_max = 4;
    serve::ServingPipeline pipeline(
        engine, config, [](const serve::Verdict&) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        });
    const auto parts = partition(processes, 2);
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < parts.size(); ++t) {
      workers.emplace_back([&pipeline, &work, &part = parts[t]] {
        for (std::size_t i = 0; i < work.calls_per_process; ++i) {
          for (const std::size_t p : part) {
            pipeline.ingest(pid_of(p), work.streams[p][i]);
          }
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
    pipeline.flush();
    pipeline.stop();
    backpressure = pipeline.stats();
  }
  const std::uint64_t lost =
      backpressure.enqueued - backpressure.verdicts - backpressure.deferred;
  std::cout << "backpressure: shed=" << backpressure.shed
            << " enqueued=" << backpressure.enqueued
            << " verdicts=" << backpressure.verdicts << " lost=" << lost
            << "\n";
  if (lost != 0) {
    std::cerr << "BACKPRESSURE LOST CLASSIFICATIONS: " << lost << "\n";
    return 1;
  }

  // --- BENCH_serving.json ----------------------------------------------
  JsonWriter json;
  json.begin_object();
  json.field("bench", "serving");
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
  json.key("sync");
  json.begin_object();
  json.field("calls_per_sec", sync_calls_per_sec);
  json.field("classifications", oracle_verdicts);
  json.end_object();
  json.key("async");
  json.begin_array();
  for (const Row& row : rows) {
    json.begin_object();
    json.field("threads", static_cast<std::int64_t>(row.threads));
    json.field("sync_mt_calls_per_sec", row.sync_mt_calls_per_sec);
    json.field("async_calls_per_sec", row.async.calls_per_sec);
    json.field("speedup_vs_sync_mt", row.speedup);
    json.field("p99_ingest_to_verdict_us", row.async.p99_ingest_to_verdict_us);
    json.field("batches", row.async.stats.batches);
    json.field("parity_ok", row.async.parity_ok);
    json.end_object();
  }
  json.end_array();
  json.key("parity");
  json.begin_object();
  json.field("checked", true);
  json.field("matched", parity_all);
  json.end_object();
  json.key("backpressure");
  json.begin_object();
  json.field("shed", backpressure.shed);
  json.field("enqueued", backpressure.enqueued);
  json.field("verdicts", backpressure.verdicts);
  json.field("deferred", backpressure.deferred);
  json.field("lost", lost);
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
      "BENCH_serving.json";
  {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot write " << json_path << "\n";
      return 1;
    }
    out << json.str() << '\n';
  }
  std::cout << "\nserving -> " << json_path << "\n";
  bench::dump_metrics_json("bench_serving");
  return 0;
}
