#include "host/cli.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <limits>
#include <sstream>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <string_view>

#include "baselines/host_baseline.hpp"
#include "common/error.hpp"
#include "common/table.hpp"
#include "detect/attribution.hpp"
#include "detect/detector.hpp"
#include "faults/fault_plan.hpp"
#include "hls/report.hpp"
#include "kernels/engine.hpp"
#include "nn/train.hpp"
#include "nn/weights_io.hpp"
#include "obs/anomaly.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace_export.hpp"
#include "ransomware/dataset_builder.hpp"
#include "ransomware/families.hpp"
#include "ransomware/sandbox.hpp"
#include "ransomware/trace_io.hpp"
#include "scenario/corpus.hpp"
#include "scenario/runner.hpp"
#include "scenario/scorer.hpp"
#include "serve/fleet.hpp"

#include "common/json_writer.hpp"

#include <thread>

namespace csdml::host {

namespace {

constexpr const char* kUsage = R"(csdml — CSD-based ransomware-detection toolkit

usage: csdml <command> [options]

commands:
  gen-dataset  --out PATH [--ransomware N] [--benign N] [--window N]
               [--stride N] [--seed N] [--paper-size]
               synthesize the sliding-window training corpus as CSV
  gen-traces   --out PATH [--seed N] [--length N]
               detonate every family variant + benign profile, write JSONL
  train        --dataset PATH --weights PATH [--epochs N] [--lr X]
               [--batch N] [--test-fraction F] [--seed N]
               train the 7,472-parameter LSTM, export the weight text file
  classify     --weights PATH --dataset PATH [--level vanilla|ii|fixed-point]
               [--trace-out PATH] [--stats]
               deploy on the simulated SmartSSD and report metrics + AUC;
               --trace-out writes the device trace as Chrome-trace JSON,
               --stats appends the telemetry registry tables
  stats        [--level L] [--calls N] [--seed N] [--fault-rate F] [--json]
               [--health] [--prometheus] [--trace-out PATH]
               run a sample streaming detection and print the telemetry
               registry (counters, gauges, p50/p95/p99 histograms) plus the
               device and request-span summaries, the time-series store
               totals and the alert-engine state; --json emits machine-
               readable metrics, --health the SLO verdict (JSON with
               --json), --prometheus the text exposition format (including
               csdml_tsdb_* / csdml_alerts_active)
  top          [--level L] [--boards N] [--rounds N] [--interval-calls N]
               [--seed N] [--fault-rate F] [--once] [--json]
               live per-board console over the fleet's telemetry time-series
               (--boards 1 is the single-board console): throughput,
               p95/p99, shed/deferred, health, latched alerts and a p99
               sparkline per board, plus a fleet summary row with merged
               cross-board percentiles; --once prints a single final frame,
               --json emits the machine-readable frame (exit 1 when a board
               is DOWN, a critical alert is latched or conservation is
               violated)
  serve        [--level L] [--calls N] [--seed N] [--ingest-threads N]
               [--serve-shards N] [--coalesce-max N]
               [--coalesce-deadline-us N] [--boards N] [--kill-board K@CALL]
               run the sample streams through a consistent-hashed CSD fleet
               (--boards, default 1) of sharded asynchronous serving
               pipelines (lock-free rings + micro-batch coalescing) and
               print the fleet stats and latency percentiles; --kill-board
               injects a lethal fault on board K after CALL ingests to drill
               drain-and-rehash failover (exit 0 only if the extended
               conservation law holds: nothing enqueued was lost, every
               migrated deferral resolved, one failover per kill)
  attribute    --weights PATH --dataset PATH --row N [--top K]
               explain one window: occlusion attribution of its API calls
  scenario     list | run | show [--all] [--name NAME] [--file PATH] [--seed N]
               [--tiny] [--json] [--golden PATH] [--update-golden]
               replay named end-to-end attack campaigns (benign + family
               traces through the board fleet, with mid-run kills/revives/
               rollouts) and grade them: detection latency per attack pid,
               files encrypted before the verdict, benign FPR, conservation
               laws. Each run prints a canonical outcome digest — same
               seed, same digest, byte for byte. --golden compares digests
               against a golden file (exit 1 on drift), --update-golden
               rewrites it, --tiny serves a smaller model for smoke lanes,
               --seed overrides every scenario's seed; exit 0 only when all
               quality gates (and the golden comparison) pass
  timings      [--level L] [--cus N] [--stream]
               per-item kernel timings under the HLS cost model
  reports      Vitis-style synthesis reports for every kernel/level
  help         this text
)";

/// Upper bound on per-process stream lengths (`--calls`, and `top`'s
/// rounds x interval), so a typo cannot request a multi-gigabyte trace.
constexpr std::uint64_t kMaxCalls = 1'000'000;
/// Fleet size bound shared by `serve` and `top`.
constexpr std::uint64_t kMaxBoards = 16;
/// Upper bound on dataset sizes and batch sizes, in windows.
constexpr std::uint64_t kMaxWindows = 10'000'000;

/// Parses `text` as an unsigned decimal in [lo, hi]. The whole string
/// must be digits: `-1` (which std::stoull would wrap to 2^64 - 1) and
/// `200x` (which it would truncate to 200) are usage errors.
std::uint64_t parse_count(const std::string& what, const std::string& text,
                          std::uint64_t lo, std::uint64_t hi) {
  std::size_t used = 0;
  std::uint64_t count = 0;
  if (!text.empty() && std::isdigit(static_cast<unsigned char>(text[0]))) {
    try {
      count = std::stoull(text, &used);
    } catch (const std::out_of_range&) {
      used = 0;
    }
  }
  if (used == 0 || used != text.size()) {
    throw PreconditionError(what + " expects an unsigned integer, got '" +
                            text + "'");
  }
  if (count < lo || count > hi) {
    throw PreconditionError(what + " must be in [" + std::to_string(lo) +
                            ", " + std::to_string(hi) + "]");
  }
  return count;
}

/// Tiny flag parser: --key value pairs plus boolean switches. A subcommand
/// names every flag it takes; any other --key is a usage error.
class Flags {
 public:
  Flags(const std::vector<std::string>& args, std::size_t start,
        const std::vector<std::string>& options,
        const std::vector<std::string>& switches) {
    const auto names = [](const std::vector<std::string>& list,
                          const std::string& key) {
      return std::find(list.begin(), list.end(), key) != list.end();
    };
    for (std::size_t i = start; i < args.size(); ++i) {
      const std::string& arg = args[i];
      if (arg.rfind("--", 0) != 0) {
        throw PreconditionError("unexpected positional argument: " + arg);
      }
      const std::string key = arg.substr(2);
      if (names(switches, key)) {
        values_[key] = "true";
      } else if (!names(options, key)) {
        throw PreconditionError("unknown flag --" + key);
      } else if (i + 1 >= args.size()) {
        throw PreconditionError("missing value for --" + key);
      } else {
        values_[key] = args[++i];
      }
    }
  }

  std::optional<std::string> get(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }
  std::string require(const std::string& key) const {
    const auto value = get(key);
    if (!value.has_value()) throw PreconditionError("missing required --" + key);
    return *value;
  }
  /// An unsigned integer flag in [lo, hi] (see parse_count); `fallback`
  /// when absent.
  std::uint64_t get_count(
      const std::string& key, std::uint64_t fallback, std::uint64_t lo = 0,
      std::uint64_t hi = std::numeric_limits<std::uint64_t>::max()) const {
    const auto value = get(key);
    return value.has_value() ? parse_count("--" + key, *value, lo, hi)
                             : fallback;
  }
  double get_double(const std::string& key, double fallback) const {
    const auto value = get(key);
    return value.has_value() ? std::stod(*value) : fallback;
  }
  bool has(const std::string& key) const { return values_.contains(key); }

 private:
  std::map<std::string, std::string> values_;
};

/// Fails fast — before minutes of workload run behind it — when the trace
/// destination cannot be opened for writing. Append mode probes without
/// clobbering whatever is already there.
void require_writable(const std::string& path) {
  std::ofstream probe(path, std::ios::app);
  if (!probe) throw Error("cannot open trace output file: " + path);
}

/// The `stats` sample workload: one ransomware process interleaved with
/// two benign ones through the streaming detector, so every instrumented
/// layer (engine kernels, detector, xrt syncs) feeds the registry, the
/// device trace and the request-span tree. A nonzero fault rate attaches
/// an XRT launch-failure plan plus a host fallback so the degraded-mode
/// machinery shows up in the telemetry.
class SampleRig {
 public:
  SampleRig(kernels::OptimizationLevel level, std::uint64_t seed,
            std::size_t calls, double fault_rate)
      : rng_(seed), params_(nn::LstmParams::glorot(config_, rng_)),
        board_{csd::SmartSsdConfig{}}, device_{board_},
        engine_(device_, config_, params_,
                kernels::EngineConfig{.level = level}),
        detector_(engine_, detect::DetectorConfig{.window_length = 100,
                                                  .hop = 25,
                                                  .consecutive_alerts = 2}) {
    if (fault_rate > 0.0) {
      faults::FaultConfig fault_config;
      fault_config.seed = seed + 404;
      fault_config.xrt_launch_failure_probability = fault_rate;
      plan_.emplace(fault_config);
      board_.set_fault_plan(&*plan_);
      fallback_ = std::make_unique<baselines::HostBaseline>(
          "host-fallback", config_, params_,
          baselines::HostLatencyConfig::xeon_cpu());
      engine_.set_fallback(fallback_.get());
    }
    const ransomware::SandboxTraceGenerator sandbox{ransomware::SandboxConfig{}};
    const auto& families = ransomware::ransomware_families();
    const auto& benign = ransomware::benign_profiles();
    CSDML_REQUIRE(!families.empty() && benign.size() >= 2,
                  "corpus profiles unavailable");
    const auto variant =
        static_cast<std::uint32_t>(seed % families.front().variants);
    streams_ = {
        sandbox.ransomware_trace(families.front(), variant, calls),
        sandbox.benign_trace(benign[0], variant + 1, calls),
        sandbox.benign_trace(benign[1], variant + 2, calls),
    };
  }

  /// Feeds calls [begin, end) of every stream round-robin.
  void run(std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      for (std::size_t p = 0; p < streams_.size(); ++p) {
        if (i >= streams_[p].size()) continue;
        (void)detector_.on_api_call(static_cast<detect::ProcessId>(p + 1),
                                    streams_[p][i]);
      }
    }
  }

  /// Processes terminate: pending debounce state flushes into aggregate
  /// counters instead of leaking.
  void forget_all() {
    for (std::size_t p = 0; p < streams_.size(); ++p) {
      detector_.forget(static_cast<detect::ProcessId>(p + 1));
    }
  }

  csd::SmartSsd& board() { return board_; }
  detect::StreamingDetector& detector() { return detector_; }
  std::size_t stream_count() const { return streams_.size(); }

 private:
  nn::LstmConfig config_;
  Rng rng_;
  nn::LstmParams params_;
  csd::SmartSsd board_;
  xrt::Device device_;
  kernels::CsdLstmEngine engine_;
  detect::StreamingDetector detector_;
  std::optional<faults::FaultPlan> plan_;
  std::unique_ptr<baselines::HostBaseline> fallback_;
  std::vector<std::vector<nn::TokenId>> streams_;
};

kernels::OptimizationLevel parse_level(const std::string& name) {
  if (name == "vanilla") return kernels::OptimizationLevel::Vanilla;
  if (name == "ii") return kernels::OptimizationLevel::II;
  if (name == "fixed-point") return kernels::OptimizationLevel::FixedPoint;
  throw PreconditionError("unknown level '" + name +
                          "' (vanilla | ii | fixed-point)");
}

int cmd_gen_dataset(const Flags& flags, std::ostream& out) {
  ransomware::DatasetSpec spec = flags.has("paper-size")
                                     ? ransomware::DatasetSpec::paper()
                                     : ransomware::DatasetSpec::small();
  spec.ransomware_windows = flags.get_count(
      "ransomware", spec.ransomware_windows, 1, kMaxWindows);
  spec.benign_windows =
      flags.get_count("benign", spec.benign_windows, 1, kMaxWindows);
  spec.window_length = flags.get_count("window", 100, 1, 10'000);
  spec.stride = flags.get_count("stride", 25, 1, 10'000);
  spec.seed = flags.get_count("seed", 2024);

  const ransomware::BuiltDataset built = ransomware::build_dataset(spec);
  const std::string path = flags.require("out");
  nn::write_dataset_csv(built.data, path);
  out << "wrote " << built.data.size() << " windows (" << built.data.positives()
      << " ransomware, " << built.data.size() - built.data.positives()
      << " benign) of length " << spec.window_length << " to " << path << "\n";
  return 0;
}

int cmd_gen_traces(const Flags& flags, std::ostream& out) {
  const std::uint64_t seed = flags.get_count("seed", 2024);
  const std::size_t length = flags.get_count("length", 1'000, 1, kMaxCalls);
  const auto records = ransomware::export_corpus_traces(seed, length);
  const std::string path = flags.require("out");
  ransomware::write_traces_jsonl_file(path, records);
  out << "wrote " << records.size() << " sample traces to " << path << "\n";
  return 0;
}

int cmd_train(const Flags& flags, std::ostream& out) {
  const nn::SequenceDataset dataset =
      nn::read_dataset_csv(flags.require("dataset"));
  Rng rng(flags.get_count("seed", 7));
  const double test_fraction = flags.get_double("test-fraction", 0.2);
  const nn::TrainTestSplit split = nn::split_dataset(dataset, test_fraction, rng);

  nn::LstmConfig config;
  nn::LstmClassifier model(config, rng);
  nn::TrainConfig tc;
  tc.epochs = flags.get_count("epochs", 10, 1, 100'000);
  tc.batch_size = flags.get_count("batch", 32, 1, kMaxWindows);
  tc.learning_rate = flags.get_double("lr", 0.01);

  const nn::TrainResult result =
      nn::train(model, split.train, split.test, tc, [&](const nn::EpochRecord& r) {
        out << "epoch " << r.epoch << ": loss "
            << TextTable::num(r.mean_train_loss, 4) << ", test accuracy "
            << TextTable::num(r.test_accuracy, 4) << "\n";
      });
  const std::string weights = flags.require("weights");
  nn::save_weights_file(weights, config, model.params());
  out << "best accuracy " << TextTable::num(result.best_test_accuracy, 4)
      << " (epoch " << result.best_epoch << "); weights -> " << weights << "\n";
  return 0;
}

int cmd_classify(const Flags& flags, std::ostream& out) {
  const nn::ModelSnapshot snapshot =
      nn::load_weights_file(flags.require("weights"));
  const nn::SequenceDataset dataset =
      nn::read_dataset_csv(flags.require("dataset"));
  const kernels::OptimizationLevel level =
      parse_level(flags.get("level").value_or("fixed-point"));

  const auto trace_out = flags.get("trace-out");
  if (trace_out.has_value()) require_writable(*trace_out);

  csd::SmartSsd board{csd::SmartSsdConfig{}};
  xrt::Device device{board};
  kernels::CsdLstmEngine engine(device, snapshot,
                                kernels::EngineConfig{.level = level});

  std::vector<double> scores;
  nn::ConfusionMatrix cm;
  Duration device_time{};
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const kernels::InferenceResult result = engine.infer(dataset.sequences[i]);
    scores.push_back(result.probability);
    cm.add(dataset.labels[i], result.label);
    device_time += result.device_time;
  }
  out << "classified " << dataset.size() << " windows on the CSD ("
      << kernels::optimization_name(level) << " build)\n";
  out << "accuracy " << TextTable::num(cm.accuracy(), 4) << "  precision "
      << TextTable::num(cm.precision(), 4) << "  recall "
      << TextTable::num(cm.recall(), 4) << "  f1 " << TextTable::num(cm.f1(), 4)
      << "\n";
  if (cm.true_positive + cm.false_negative > 0 &&
      cm.true_negative + cm.false_positive > 0) {
    out << "roc auc " << TextTable::num(nn::roc_auc(scores, dataset.labels), 4)
        << "\n";
  }
  out << "device time " << TextTable::num(device_time.as_milliseconds(), 2)
      << " ms total, "
      << TextTable::num(device_time.as_microseconds() /
                            static_cast<double>(dataset.size()), 1)
      << " us/window\n";
  if (trace_out.has_value()) {
    obs::write_chrome_trace_file(*trace_out, board.trace(),
                                 board.span_trace());
    out << "trace -> " << *trace_out << "\n";
  }
  if (flags.has("stats")) {
    out << "\n" << obs::trace_summary(board.trace()) << "\n"
        << board.span_trace().summary() << "\n"
        << obs::registry().snapshot().to_text();
  }
  return 0;
}

int cmd_stats(const Flags& flags, std::ostream& out) {
  const kernels::OptimizationLevel level =
      parse_level(flags.get("level").value_or("fixed-point"));
  const std::size_t calls = flags.get_count("calls", 1'200, 200, kMaxCalls);
  const std::uint64_t seed = flags.get_count("seed", 2024);
  const double fault_rate = flags.get_double("fault-rate", 0.0);
  CSDML_REQUIRE(fault_rate >= 0.0 && fault_rate < 1.0,
                "--fault-rate must be in [0, 1)");
  const auto trace_out = flags.get("trace-out");
  if (trace_out.has_value()) require_writable(*trace_out);

  obs::registry().reset();
  SampleRig rig(level, seed, calls, fault_rate);

  // The workload runs in slices with a sampler tick between them, so the
  // final snapshot carries populated tsdb.* / alerts.* series (the same
  // path the fleet collector thread drives; here the timeline is the
  // slice index, one synthetic second apart).
  obs::TimeSeriesStore store(obs::TsdbConfig::from_env());
  obs::SnapshotSampler sampler({
      {"stats.classified.delta", obs::SampleSpec::Kind::CounterDelta,
       "detector.classifications"},
      {"stats.deferred.delta", obs::SampleSpec::Kind::CounterDelta,
       "detector.degraded_classifications"},
      {"stats.p99_us", obs::SampleSpec::Kind::HistP99,
       "detector.inference_us"},
  });
  obs::AlertEngine alerts;
  constexpr std::size_t kSlices = 4;
  for (std::size_t slice = 0; slice < kSlices; ++slice) {
    rig.run(slice * calls / kSlices, (slice + 1) * calls / kSlices);
    const auto t_us = static_cast<std::int64_t>(slice + 1) * 1'000'000;
    sampler.sample(t_us, obs::registry().snapshot(), &store);
    alerts.evaluate(store, t_us);
  }
  rig.forget_all();
  store.publish_gauges();

  if (trace_out.has_value()) {
    obs::write_chrome_trace_file(*trace_out, rig.board().trace(),
                                 rig.board().span_trace());
  }
  const obs::MetricsSnapshot snapshot = obs::registry().snapshot();
  if (flags.has("prometheus")) {
    out << obs::to_prometheus_text(snapshot);
    return 0;
  }
  const obs::HealthReport health =
      obs::evaluate_health(snapshot, rig.detector().csd_healthy());
  if (flags.has("json")) {
    out << (flags.has("health") ? health.to_json() : snapshot.to_json())
        << "\n";
    return 0;
  }
  out << "sample detection: " << rig.stream_count() << " processes x " << calls
      << " API calls (" << kernels::optimization_name(level) << " build)\n\n";
  out << obs::trace_summary(rig.board().trace()) << "\n";
  out << rig.board().span_trace().summary() << "\n";
  out << snapshot.to_text();

  out << "\n";
  TextTable series_table({"series", "samples", "min", "mean", "max", "last"});
  for (const std::string& name : store.names()) {
    obs::TsBucket total;
    for (const obs::TsBucket& bucket : store.buckets(name)) {
      total.absorb(bucket);
    }
    series_table.add_row({name, std::to_string(store.samples(name)),
                          TextTable::num(total.min, 2),
                          TextTable::num(total.mean(), 2),
                          TextTable::num(total.max, 2),
                          TextTable::num(store.last(name), 2)});
  }
  series_table.print(out);
  const obs::TimeSeriesStore::Totals totals = store.totals();
  out << "time series: " << totals.series << " series, " << totals.samples
      << " samples, " << totals.promotions << " tier promotions\n";
  out << "alerts: " << alerts.active_count() << " active ("
      << alerts.rule_count() << " rules)\n";

  if (flags.has("health")) out << "\n" << health.to_text();
  if (trace_out.has_value()) {
    out << "\ntrace -> " << *trace_out
        << "  (open in chrome://tracing or ui.perfetto.dev)\n";
  }
  return 0;
}

/// The serve-command workload: every ingestion thread owns three
/// processes (one ransomware, two benign). Streams carry a small tail
/// beyond `calls` so a fleet failover late in the run can still resolve
/// migrated deferrals with a few extra per-process calls.
struct ServeStreamSet {
  std::vector<detect::ProcessId> pids;
  std::vector<std::vector<nn::TokenId>> streams;
};

constexpr std::size_t kServeResolveTail = 16;

std::vector<ServeStreamSet> serve_workload(std::size_t threads,
                                           std::size_t calls,
                                           std::uint64_t seed) {
  const ransomware::SandboxTraceGenerator sandbox{ransomware::SandboxConfig{}};
  const auto& families = ransomware::ransomware_families();
  const auto& benign = ransomware::benign_profiles();
  CSDML_REQUIRE(!families.empty() && benign.size() >= 2,
                "corpus profiles unavailable");
  const std::size_t length = calls + kServeResolveTail;
  std::vector<ServeStreamSet> per_thread(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    const auto variant = static_cast<std::uint32_t>((seed + t) %
                                                    families.front().variants);
    ServeStreamSet& set = per_thread[t];
    set.pids = {static_cast<detect::ProcessId>(3 * t + 1),
                static_cast<detect::ProcessId>(3 * t + 2),
                static_cast<detect::ProcessId>(3 * t + 3)};
    set.streams = {
        sandbox.ransomware_trace(families.front(), variant, length),
        sandbox.benign_trace(benign[0], variant + 1, length),
        sandbox.benign_trace(benign[1], variant + 2, length),
    };
  }
  return per_thread;
}

/// Serves the workload through a BoardFleet (one board by default), with
/// an optional deterministic kill drill. Exit 0 only when the extended
/// conservation law holds after the dust settles.
int cmd_serve(const Flags& flags, std::ostream& out) {
  const kernels::OptimizationLevel level =
      parse_level(flags.get("level").value_or("fixed-point"));
  const std::size_t calls = flags.get_count("calls", 1'200, 200, kMaxCalls);
  const std::uint64_t seed = flags.get_count("seed", 2024);
  const std::size_t threads = flags.get_count("ingest-threads", 4, 1, 64);
  const std::size_t boards = flags.get_count("boards", 1, 1, kMaxBoards);

  std::optional<std::size_t> kill_board;
  std::uint64_t kill_at = 0;
  if (const auto spec = flags.get("kill-board")) {
    const std::size_t at = spec->find('@');
    CSDML_REQUIRE(at != std::string::npos, "--kill-board expects K@CALL");
    CSDML_REQUIRE(boards >= 2,
                  "--kill-board needs --boards >= 2 (no failover target)");
    kill_board = parse_count("--kill-board board", spec->substr(0, at), 0,
                             boards - 1);
    kill_at = parse_count("--kill-board call", spec->substr(at + 1), 0,
                          calls * threads * 3 - 1);
  }

  serve::FleetConfig fleet_config;
  fleet_config.boards = boards;
  fleet_config.seed = seed;
  fleet_config.engine = kernels::EngineConfig{.level = level};
  fleet_config.serve.shards = flags.get_count("serve-shards", 4, 1, 64);
  fleet_config.serve.coalesce_max =
      flags.get_count("coalesce-max", 32, 1, 1'024);
  fleet_config.serve.coalesce_deadline = std::chrono::microseconds(
      flags.get_count("coalesce-deadline-us", 200, 0, 10'000'000));
  fleet_config.serve.detector = detect::DetectorConfig{
      .window_length = 100, .hop = 25, .consecutive_alerts = 2};

  obs::registry().reset();
  nn::LstmConfig model_config;
  Rng rng(seed);
  const nn::LstmParams params = nn::LstmParams::glorot(model_config, rng);
  // Every ingestion thread feeds its own three processes round-robin, so
  // per-process call order is preserved while the fleet absorbs the
  // aggregate concurrently.
  const std::vector<ServeStreamSet> per_thread =
      serve_workload(threads, calls, seed);
  serve::BoardFleet fleet(model_config, params, fleet_config,
                          [](const serve::Verdict&) {});

  std::atomic<std::uint64_t> fed{0};
  std::atomic<bool> kill_pending{kill_board.has_value()};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&fleet, &fed, &kill_pending, &set = per_thread[t],
                          calls, kill_board, kill_at] {
      for (std::size_t i = 0; i < calls; ++i) {
        for (std::size_t p = 0; p < set.streams.size(); ++p) {
          fleet.ingest(set.pids[p], set.streams[p][i]);
          const std::uint64_t total =
              fed.fetch_add(1, std::memory_order_relaxed) + 1;
          if (total >= kill_at &&
              kill_pending.load(std::memory_order_relaxed) &&
              kill_pending.exchange(false)) {
            fleet.kill_board(*kill_board);
          }
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  fleet.flush();
  // Final sweep: a board that latched unhealthy near the end of traffic
  // still gets drained (and its pids rehashed) before accounting.
  fleet.check_health();

  // Resolution lap: if any migrated deferral is still owed, feed the
  // stream tails so every carried window gets its re-served verdict.
  serve::BoardFleet::Stats stats = fleet.stats();
  if (!stats.failover_resolved()) {
    for (std::size_t i = calls; i < calls + kServeResolveTail; ++i) {
      for (const ServeStreamSet& set : per_thread) {
        for (std::size_t p = 0; p < set.streams.size(); ++p) {
          fleet.ingest(set.pids[p], set.streams[p][i]);
        }
      }
    }
    fleet.flush();
  }
  for (const ServeStreamSet& set : per_thread) {
    for (const detect::ProcessId pid : set.pids) fleet.forget(pid);
  }
  fleet.stop();
  stats = fleet.stats();

  out << "serve: " << threads << " ingestion threads x 3 processes x " << calls
      << " API calls across " << boards << " boards ("
      << kernels::optimization_name(level) << " build)\n";
  if (kill_board.has_value()) {
    out << "kill drill: board " << *kill_board << " after " << kill_at
        << " ingests\n";
  }
  out << "\n";
  TextTable table({"fleet", "count"});
  table.add_row({"ingested", std::to_string(stats.totals.ingested)});
  table.add_row({"enqueued", std::to_string(stats.totals.enqueued)});
  table.add_row({"shed (backpressure)", std::to_string(stats.totals.shed)});
  table.add_row({"deferred (csd down)", std::to_string(stats.totals.deferred)});
  table.add_row({"verdicts", std::to_string(stats.totals.verdicts)});
  table.add_row({"alerts", std::to_string(stats.totals.alerts)});
  table.add_row({"batches", std::to_string(stats.totals.batches)});
  table.add_row({"failovers", std::to_string(stats.failovers)});
  table.add_row({"migrations", std::to_string(stats.migrations)});
  table.add_row({"migrated pending", std::to_string(stats.migrated_pending)});
  table.add_row(
      {"migrated resolved", std::to_string(stats.totals.migrated_resolved)});
  table.add_row(
      {"migrated forgotten", std::to_string(stats.totals.migrated_forgotten)});
  table.add_row({"readmissions", std::to_string(stats.readmissions)});
  table.add_row({"boards admitted", std::to_string(stats.boards_admitted)});
  table.add_row({"weight version", std::to_string(stats.weight_version)});
  table.print(out);
  out << "\n" << obs::registry().snapshot().to_text();

  // Extended conservation law: nothing enqueued was lost on any board,
  // every deferral carried across a failover was re-served, and the
  // drain-and-rehash path ran exactly as often as boards were killed —
  // a healthy board is never drained.
  const bool conservation = stats.conservation_ok();
  const bool resolved = stats.failover_resolved();
  const std::uint64_t expected_failovers = kill_board.has_value() ? 1 : 0;
  const bool drilled = stats.failovers == expected_failovers;
  out << "\nconservation "
      << (conservation ? "ok" : "VIOLATED (classifications lost)")
      << ", migrated deferrals "
      << (resolved ? "resolved" : "UNRESOLVED") << ", failovers "
      << stats.failovers << " (expected " << expected_failovers << ") "
      << (drilled ? "ok" : "MISMATCH") << "\n";
  return conservation && resolved && drilled ? 0 : 1;
}

/// Eight-level unicode sparkline over the retained raw buckets of one
/// series (newest up to `width` buckets, bucket means, scaled to range).
std::string sparkline(const obs::TimeSeriesStore& store,
                      const std::string& series, std::size_t width = 16) {
  static const char* kBlocks[] = {"▁", "▂", "▃", "▄",
                                  "▅", "▆", "▇", "█"};
  std::vector<obs::TsBucket> buckets = store.buckets(series);
  if (buckets.empty()) return "-";
  if (buckets.size() > width) {
    buckets.erase(buckets.begin(),
                  buckets.end() - static_cast<std::ptrdiff_t>(width));
  }
  double lo = buckets.front().mean();
  double hi = lo;
  for (const obs::TsBucket& bucket : buckets) {
    lo = std::min(lo, bucket.mean());
    hi = std::max(hi, bucket.mean());
  }
  std::string line;
  for (const obs::TsBucket& bucket : buckets) {
    const double norm = hi > lo ? (bucket.mean() - lo) / (hi - lo) : 0.0;
    line += kBlocks[std::min<std::size_t>(
        7, static_cast<std::size_t>(norm * 8.0))];
  }
  return line;
}

/// Default per-board console rules: an EWMA z-score watch on the p99 tail
/// (catches a latency regression relative to the board's own history) and
/// a deferral watch (any deferrals in a frame mean the CSD path is
/// unavailable). Warning severity: the console surfaces them without
/// feeding the fleet's critical-alert drain gate.
std::vector<obs::AlertRule> top_default_rules(std::size_t boards) {
  std::vector<obs::AlertRule> rules;
  for (std::size_t k = 0; k < boards; ++k) {
    const std::string prefix = "fleet.b" + std::to_string(k);
    obs::AlertRule p99;
    p99.id = "b" + std::to_string(k) + ".p99.regression";
    p99.series = prefix + ".p99_us";
    p99.kind = obs::AlertRuleKind::EwmaZScore;
    p99.threshold = 6.0;
    p99.min_samples = 3;
    p99.fire_for = 2;
    p99.clear_for = 3;
    p99.severity = obs::AlertSeverity::Warning;
    p99.board = static_cast<int>(k);
    rules.push_back(std::move(p99));

    obs::AlertRule deferrals;
    deferrals.id = "b" + std::to_string(k) + ".deferrals";
    deferrals.series = prefix + ".deferred.delta";
    deferrals.kind = obs::AlertRuleKind::AboveThreshold;
    deferrals.threshold = 0.0;
    deferrals.min_samples = 1;
    deferrals.fire_for = 1;
    deferrals.clear_for = 2;
    deferrals.severity = obs::AlertSeverity::Warning;
    deferrals.board = static_cast<int>(k);
    rules.push_back(std::move(deferrals));
  }
  return rules;
}

int cmd_top(const Flags& flags, std::ostream& out) {
  const kernels::OptimizationLevel level =
      parse_level(flags.get("level").value_or("fixed-point"));
  const std::size_t boards = flags.get_count("boards", 2, 1, kMaxBoards);
  // Each stream is rounds x interval calls long: at most kMaxCalls.
  const std::size_t rounds = flags.get_count("rounds", 6, 1, 1'000);
  const std::size_t interval =
      flags.get_count("interval-calls", 200, 100, 1'000);
  const std::uint64_t seed = flags.get_count("seed", 2024);
  const double fault_rate = flags.get_double("fault-rate", 0.0);
  CSDML_REQUIRE(fault_rate >= 0.0 && fault_rate < 1.0,
                "--fault-rate must be in [0, 1)");
  const bool once = flags.has("once");
  const bool json = flags.has("json");

  obs::registry().reset();
  nn::LstmConfig model_config;
  Rng rng(seed);
  const nn::LstmParams params = nn::LstmParams::glorot(model_config, rng);
  const std::size_t calls = rounds * interval;
  // Two stream sets (six pids) spread processes over the hash ring even
  // with a couple of boards; ingest is single-threaded and paced per
  // frame, so the console run is deterministic.
  const std::vector<ServeStreamSet> workload = serve_workload(2, calls, seed);

  serve::FleetConfig fleet_config;
  fleet_config.boards = boards;
  fleet_config.seed = seed;
  fleet_config.fault_rate = fault_rate;
  fleet_config.engine = kernels::EngineConfig{.level = level};
  fleet_config.serve.detector = detect::DetectorConfig{
      .window_length = 100, .hop = 25, .consecutive_alerts = 2};
  // Deterministic telemetry: no collector thread — one tick per frame on
  // a synthetic timeline that advances a second per round.
  std::int64_t sim_us = 0;
  fleet_config.telemetry.collector_thread = false;
  fleet_config.telemetry.clock = [&sim_us] { return sim_us; };
  fleet_config.telemetry.rules = top_default_rules(boards);

  serve::BoardFleet fleet(model_config, params, fleet_config,
                          [](const serve::Verdict&) {});
  obs::TelemetryCollector& collector = *fleet.telemetry();
  obs::AlertEngine& alerts = *fleet.alert_engine();
  const obs::TimeSeriesStore& store = collector.store();

  // One board's numbers in a frame, built once and rendered either as a
  // text table row or as JSON.
  struct BoardRow {
    bool healthy{true};
    std::uint64_t verdicts{0};
    std::uint64_t shed{0};
    std::uint64_t deferred{0};
    double throughput{0.0};  ///< mean over the retained window
    double p95_us{0.0};
    double p99_us{0.0};
    std::size_t alerts{0};  ///< active alerts naming the board
  };
  const auto board_rows = [&] {
    std::vector<BoardRow> rows;
    for (std::size_t k = 0; k < boards; ++k) {
      const std::string prefix = "fleet.b" + std::to_string(k);
      const auto board = fleet.board_stats(k);
      obs::TsBucket rate;
      for (const obs::TsBucket& bucket :
           store.buckets(prefix + ".throughput")) {
        rate.absorb(bucket);
      }
      std::size_t active = 0;
      for (const obs::Alert& alert : alerts.active_alerts()) {
        if (alert.board == static_cast<int>(k)) ++active;
      }
      rows.push_back({fleet.board_healthy(k), board.verdicts, board.shed,
                      board.deferred, rate.mean(),
                      store.last(prefix + ".p95_us"),
                      store.last(prefix + ".p99_us"), active});
    }
    return rows;
  };
  // Fleet summary percentiles: per-board latency histograms merged into
  // one (identical default bounds), not an average of percentiles.
  const auto fleet_latency = [] {
    obs::HistogramSnapshot merged;
    for (const obs::HistogramSnapshot& histogram :
         obs::registry().snapshot().histograms) {
      if (histogram.name.rfind("fleet.b", 0) == 0 &&
          histogram.name.find(".ingest_to_verdict_us") != std::string::npos) {
        merged.merge(histogram);
      }
    }
    return merged;
  };
  const auto any_down = [](const std::vector<BoardRow>& rows) {
    return std::any_of(rows.begin(), rows.end(),
                       [](const BoardRow& row) { return !row.healthy; });
  };
  // The text frame, live and final alike: a row per board, then the fleet.
  const auto print_table = [&](const std::vector<BoardRow>& rows) {
    const serve::BoardFleet::Stats stats = fleet.stats();
    const obs::HistogramSnapshot latency = fleet_latency();
    TextTable table({"board", "health", "verdicts", "thru/s", "p95_us",
                     "p99_us", "shed", "defer", "alerts", "trend"});
    for (std::size_t k = 0; k < boards; ++k) {
      const BoardRow& row = rows[k];
      table.add_row({std::to_string(k), row.healthy ? "ok" : "DOWN",
                     std::to_string(row.verdicts),
                     TextTable::num(row.throughput, 1),
                     TextTable::num(row.p95_us, 1),
                     TextTable::num(row.p99_us, 1), std::to_string(row.shed),
                     std::to_string(row.deferred), std::to_string(row.alerts),
                     sparkline(store, "fleet.b" + std::to_string(k) +
                                          ".p99_us")});
    }
    table.add_row(
        {"fleet",
         stats.boards_admitted == boards && !any_down(rows) ? "ok"
                                                            : "degraded",
         std::to_string(stats.totals.verdicts), "-",
         TextTable::num(latency.percentile(0.95), 1),
         TextTable::num(latency.percentile(0.99), 1),
         std::to_string(stats.totals.shed),
         std::to_string(stats.totals.deferred),
         std::to_string(alerts.active_count()), "-"});
    table.print(out);
  };

  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t i = round * interval; i < (round + 1) * interval; ++i) {
      for (const ServeStreamSet& set : workload) {
        for (std::size_t p = 0; p < set.streams.size(); ++p) {
          fleet.ingest(set.pids[p], set.streams[p][i]);
        }
      }
    }
    fleet.flush();
    sim_us += 1'000'000;
    collector.tick();

    if (once || json) continue;  // final frame only
    out << "\x1b[2J\x1b[H";  // live mode: clear + home between frames
    out << "csdml top — frame " << round + 1 << "/" << rounds << "\n";
    print_table(board_rows());
  }

  for (const ServeStreamSet& set : workload) {
    for (const detect::ProcessId pid : set.pids) fleet.forget(pid);
  }
  fleet.flush();
  collector.tick();
  const serve::BoardFleet::Stats stats = fleet.stats();
  const obs::TimeSeriesStore::Totals totals = store.totals();
  const std::vector<obs::Alert> all_alerts = alerts.alerts();
  const std::vector<BoardRow> rows = board_rows();
  const bool critical_latched =
      std::any_of(all_alerts.begin(), all_alerts.end(),
                  [](const obs::Alert& alert) {
                    return alert.active &&
                           alert.severity == obs::AlertSeverity::Critical;
                  });

  if (json) {
    const obs::HistogramSnapshot latency = fleet_latency();
    JsonWriter writer;
    writer.begin_object();
    writer.field("tool", "top");
    writer.field("rounds", static_cast<std::uint64_t>(rounds));
    writer.field("interval_calls", static_cast<std::uint64_t>(interval));
    writer.key("boards");
    writer.begin_array();
    for (std::size_t k = 0; k < boards; ++k) {
      const BoardRow& row = rows[k];
      writer.begin_object();
      writer.field("board", static_cast<std::uint64_t>(k));
      writer.field("healthy", row.healthy);
      writer.field("verdicts", row.verdicts);
      writer.field("shed", row.shed);
      writer.field("deferred", row.deferred);
      writer.field("throughput", row.throughput);
      writer.field("p95_us", row.p95_us);
      writer.field("p99_us", row.p99_us);
      writer.end_object();
    }
    writer.end_array();
    writer.key("fleet");
    writer.begin_object();
    writer.field("verdicts", stats.totals.verdicts);
    writer.field("deferred", stats.totals.deferred);
    writer.field("shed", stats.totals.shed);
    writer.field("boards_admitted",
                 static_cast<std::uint64_t>(stats.boards_admitted));
    writer.field("p95_us", latency.percentile(0.95));
    writer.field("p99_us", latency.percentile(0.99));
    writer.field("conservation_ok", stats.conservation_ok());
    writer.end_object();
    writer.key("alerts");
    writer.begin_array();
    for (const obs::Alert& alert : all_alerts) {
      writer.begin_object();
      writer.field("rule", alert.rule_id);
      writer.field("severity", obs::alert_severity_name(alert.severity));
      writer.field("board", static_cast<std::int64_t>(alert.board));
      writer.field("active", alert.active);
      writer.field("fire_count", alert.fire_count);
      writer.end_object();
    }
    writer.end_array();
    writer.key("tsdb");
    writer.begin_object();
    writer.field("series", static_cast<std::uint64_t>(totals.series));
    writer.field("samples", totals.samples);
    writer.field("promotions", totals.promotions);
    writer.end_object();
    writer.end_object();
    out << writer.str() << "\n";
  } else {
    out << "csdml top — " << boards << " boards, " << rounds << " rounds x "
        << interval << " calls (" << kernels::optimization_name(level)
        << " build)\n\n";
    print_table(rows);
    out << "\ntime series: " << totals.series << " series, " << totals.samples
        << " samples, " << totals.promotions << " tier promotions over "
        << collector.ticks() << " ticks\n";
    for (const obs::Alert& alert : all_alerts) {
      if (alert.fire_count == 0) continue;
      out << "alert " << alert.rule_id << " ["
          << obs::alert_severity_name(alert.severity) << "] "
          << (alert.active ? "ACTIVE" : "cleared") << " (fired "
          << alert.fire_count << "x)\n";
    }
    out << "conservation "
        << (stats.conservation_ok() ? "ok" : "VIOLATED (classifications lost)")
        << "\n";
  }
  fleet.stop();
  // A board still DOWN in the final frame fails the run like a latched
  // critical alert: the single-board console's unhealthy verdict.
  const bool ok =
      stats.conservation_ok() && !critical_latched && !any_down(rows);
  return ok ? 0 : 1;
}

int cmd_attribute(const Flags& flags, std::ostream& out) {
  const nn::ModelSnapshot snapshot =
      nn::load_weights_file(flags.require("weights"));
  const nn::SequenceDataset dataset =
      nn::read_dataset_csv(flags.require("dataset"));
  CSDML_REQUIRE(!dataset.empty(), "--dataset holds no windows");
  const std::size_t row = parse_count("--row", flags.require("row"), 0,
                                      dataset.size() - 1);
  const std::size_t top_k = flags.get_count("top", 8, 1, 1'000);

  const nn::LstmClassifier model(snapshot.config, snapshot.params);
  const detect::AttributionReport report = detect::attribute_window(
      model, dataset.sequences[row], {.top_k = top_k});
  out << "window " << row << ": label " << dataset.labels[row]
      << ", p(ransomware) = " << TextTable::num(report.probability, 4) << "\n";
  TextTable table({"pos", "api_call", "contribution"});
  for (const auto& call : report.top_calls) {
    table.add_row({std::to_string(call.position), call.api_name,
                   TextTable::num(call.contribution, 6)});
  }
  table.print(out);
  return 0;
}

int cmd_timings(const Flags& flags, std::ostream& out) {
  const kernels::OptimizationLevel level =
      parse_level(flags.get("level").value_or("fixed-point"));
  const auto cus = static_cast<std::uint32_t>(flags.get_count("cus", 4, 1, 4));
  const kernels::KernelLink link = flags.has("stream")
                                       ? kernels::KernelLink::Stream
                                       : kernels::KernelLink::AxiMemory;
  nn::LstmConfig config;
  Rng rng(1);
  csd::SmartSsd board{csd::SmartSsdConfig{}};
  xrt::Device device{board};
  kernels::CsdLstmEngine engine(
      device, config, nn::LstmParams::glorot(config, rng),
      kernels::EngineConfig{.level = level, .gate_cu_count = cus, .link = link});
  const kernels::KernelTimings t = engine.per_item_timings();

  TextTable table({"kernel", "us_per_item"});
  table.add_row({"kernel_preprocess", TextTable::num(t.preprocess.as_microseconds())});
  table.add_row({"kernel_gates (max of CUs)", TextTable::num(t.gates.as_microseconds())});
  table.add_row({"kernel_hidden_state", TextTable::num(t.hidden_state.as_microseconds())});
  table.add_row({"total", TextTable::num(t.total().as_microseconds())});
  table.print(out);
  out << "fpga utilization " << TextTable::num(engine.fpga_utilization(), 3)
      << " (" << board.fpga().config().part.name << ")\n";
  return 0;
}

/// Golden digest file: `<scenario-name> <16-hex-digest>` per line, `#`
/// comments allowed. Missing file is an Error (exit 1), not a usage
/// error — CI treats an absent golden as a broken gate, not a typo.
std::map<std::string, std::string> load_golden_digests(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("scenario: cannot open golden file `" + path + "`");
  std::map<std::string, std::string> golden;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream fields(line);
    std::string name, digest, extra;
    if (!(fields >> name)) continue;
    if (!(fields >> digest) || (fields >> extra)) {
      throw Error("scenario: malformed golden line `" + line + "` in " + path);
    }
    golden[name] = digest;
  }
  return golden;
}

void write_golden_digests(const std::string& path,
                          const std::map<std::string, std::string>& golden) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw Error("scenario: cannot write golden file `" + path + "`");
  out << "# Golden scenario outcome digests (full model). Regenerate with\n";
  out << "#   csdml scenario run --all --golden <this file> --update-golden\n";
  for (const auto& [name, digest] : golden) {
    out << name << " " << digest << "\n";
  }
}

void emit_scenario_json(const std::vector<scenario::RunResult>& results,
                        bool tiny, std::ostream& out) {
  JsonWriter json;
  json.begin_object();
  json.field("tool", "scenario");
  json.field("tiny", tiny);
  json.field("model_test_accuracy",
             results.empty() ? 0.0 : results.front().model_test_accuracy);
  json.key("scenarios");
  json.begin_array();
  for (const scenario::RunResult& result : results) {
    const scenario::ScoreSummary& s = result.summary;
    json.begin_object();
    json.field("name", result.scenario.name);
    json.field("seed", result.scenario.seed);
    json.field("boards", static_cast<std::uint64_t>(result.scenario.boards));
    json.field("digest", scenario::format_digest(result.digest));
    json.field("attacks", s.attacks);
    json.field("detected", s.detected);
    json.field("false_positives", s.false_positives);
    json.field("fpr", s.fpr);
    json.field("files_lost", s.files_lost);
    json.key("detection_latency");
    json.begin_array();
    for (const std::uint64_t latency : s.latencies) json.value(latency);
    json.end_array();
    json.key("processes");
    json.begin_array();
    for (const scenario::ProcessOutcome& p : s.processes) {
      const auto spec = std::find_if(
          result.scenario.processes.begin(), result.scenario.processes.end(),
          [&p](const scenario::ProcessSpec& candidate) {
            return candidate.pid == p.pid;
          });
      json.begin_object();
      json.field("pid", static_cast<std::uint64_t>(p.pid));
      json.field("attack", p.attack);
      if (spec != result.scenario.processes.end()) {
        json.field("profile", spec->profile);
        json.field("variant", static_cast<std::uint64_t>(spec->variant));
      }
      json.field("verdicts", p.verdicts);
      json.field("alerts", p.alerts);
      if (p.first_alert_call != scenario::kNever) {
        json.field("first_alert_call", p.first_alert_call);
        json.field("detection_latency", p.detection_latency);
      }
      json.field("files_lost", p.files_lost);
      json.field("boards_seen", static_cast<std::uint64_t>(p.boards_seen));
      json.end_object();
    }
    json.end_array();
    json.field("verdicts", s.fleet.totals.verdicts);
    json.field("deferred", s.fleet.totals.deferred);
    json.field("shed", s.fleet.totals.shed);
    json.field("failovers", s.fleet.failovers);
    json.field("rollouts", s.fleet.rollouts);
    json.field("conservation_ok", s.fleet.conservation_ok());
    json.field("failover_resolved", s.fleet.failover_resolved());
    json.field("pass", result.gates.pass());
    json.field("wall_ms", result.wall_ms);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  out << json.str() << "\n";
}

int cmd_scenario(const std::vector<std::string>& args, std::ostream& out) {
  if (args.size() < 2) {
    throw PreconditionError(
        "scenario: expected a subcommand (list | run | show)");
  }
  const std::string& sub = args[1];

  if (sub == "list") {
    const Flags flags(args, 2, {}, {});
    (void)flags;
    TextTable table({"scenario", "boards", "processes", "attacks", "events",
                     "horizon", "latency-budget", "files-budget"});
    for (const scenario::Scenario& s : scenario::builtin_corpus()) {
      std::size_t attacks = 0;
      for (const auto& p : s.processes) attacks += p.attack ? 1 : 0;
      table.add_row({s.name, std::to_string(s.boards),
                     std::to_string(s.processes.size()),
                     std::to_string(attacks), std::to_string(s.events.size()),
                     std::to_string(s.horizon()),
                     std::to_string(s.budget.detection_latency),
                     std::to_string(s.budget.files_lost)});
    }
    table.print(out);
    return 0;
  }

  if (sub == "show") {
    const Flags flags(args, 2, {"name"}, {});
    const std::string name = flags.require("name");
    const scenario::Scenario* found = scenario::find_scenario(name);
    if (found == nullptr) {
      throw PreconditionError("scenario: `" + name +
                              "` is not in the corpus (see `scenario list`)");
    }
    out << scenario::serialize_scenario(*found);
    return 0;
  }

  if (sub != "run") {
    throw PreconditionError("scenario: unknown subcommand `" + sub +
                            "` (list | run | show)");
  }
  const Flags flags(args, 2, {"name", "file", "seed", "golden"},
                    {"all", "json", "tiny", "update-golden"});

  std::vector<scenario::Scenario> selected;
  if (const auto name = flags.get("name")) {
    const scenario::Scenario* found = scenario::find_scenario(*name);
    if (found == nullptr) {
      throw PreconditionError("scenario: `" + *name +
                              "` is not in the corpus (see `scenario list`)");
    }
    selected.push_back(*found);
  }
  if (const auto file = flags.get("file")) {
    selected.push_back(scenario::load_scenario_file(*file));
  }
  if (selected.empty() || flags.has("all")) {
    // Default (and --all): the whole builtin corpus, plus any explicit
    // picks above.
    for (const scenario::Scenario& s : scenario::builtin_corpus()) {
      const bool already =
          std::any_of(selected.begin(), selected.end(),
                      [&s](const scenario::Scenario& have) {
                        return have.name == s.name;
                      });
      if (!already) selected.push_back(s);
    }
  }

  scenario::RunOptions options;
  options.tiny = flags.has("tiny");
  if (flags.has("seed")) {
    options.seed = flags.get_count("seed", 0);
  }
  if (flags.has("update-golden") && !flags.has("golden")) {
    throw PreconditionError("scenario: --update-golden requires --golden PATH");
  }

  std::vector<scenario::RunResult> results;
  results.reserve(selected.size());
  for (const scenario::Scenario& s : selected) {
    results.push_back(scenario::run_scenario(s, options));
  }

  bool gates_ok = true;
  if (flags.has("json")) {
    emit_scenario_json(results, options.tiny, out);
    for (const scenario::RunResult& result : results) {
      gates_ok = gates_ok && result.gates.pass();
    }
  } else {
    TextTable table({"scenario", "digest", "attacks", "detected",
                     "latency(max)", "files-lost", "fpr", "deferred", "pass"});
    for (const scenario::RunResult& result : results) {
      const scenario::ScoreSummary& s = result.summary;
      const std::uint64_t worst =
          s.latencies.empty() ? 0 : s.latencies.back();
      table.add_row(
          {result.scenario.name, scenario::format_digest(result.digest),
           std::to_string(s.attacks), std::to_string(s.detected),
           s.detected > 0 ? std::to_string(worst) : "-",
           std::to_string(s.files_lost), TextTable::num(s.fpr, 3),
           std::to_string(s.fleet.totals.deferred),
           result.gates.pass() ? "yes" : "NO"});
      gates_ok = gates_ok && result.gates.pass();
    }
    table.print(out);
    for (const scenario::RunResult& result : results) {
      if (result.gates.pass()) continue;
      const scenario::GateReport& g = result.gates;
      out << result.scenario.name << " FAILED:";
      if (!g.attacks_detected) out << " attacks-undetected";
      if (!g.latency_within_budget) out << " latency-over-budget";
      if (!g.files_within_budget) out << " files-lost-over-budget";
      if (!g.fpr_within_budget) out << " fpr-over-budget";
      if (!g.conservation) out << " conservation-violated";
      if (!g.failover_resolved) out << " migrated-deferral-unresolved";
      if (!g.nothing_shed) out << " backpressure-shed";
      out << "\n";
    }
  }

  bool golden_ok = true;
  if (const auto golden_path = flags.get("golden")) {
    if (flags.has("update-golden")) {
      std::map<std::string, std::string> golden;
      {
        std::ifstream probe(*golden_path);
        if (probe.good()) golden = load_golden_digests(*golden_path);
      }
      for (const scenario::RunResult& result : results) {
        golden[result.scenario.name] = scenario::format_digest(result.digest);
      }
      write_golden_digests(*golden_path, golden);
      out << "golden: updated " << *golden_path << " (" << results.size()
          << " scenarios)\n";
    } else {
      const std::map<std::string, std::string> golden =
          load_golden_digests(*golden_path);
      for (const scenario::RunResult& result : results) {
        const auto it = golden.find(result.scenario.name);
        const std::string got = scenario::format_digest(result.digest);
        if (it == golden.end()) {
          out << "golden: " << result.scenario.name << " has no entry in "
              << *golden_path << "\n";
          golden_ok = false;
        } else if (it->second != got) {
          out << "golden: " << result.scenario.name << " drifted (expected "
              << it->second << ", got " << got << ")\n";
          golden_ok = false;
        }
      }
      if (golden_ok) {
        out << "golden: " << results.size() << " digests match\n";
      }
    }
  }

  return gates_ok && golden_ok ? 0 : 1;
}

int cmd_reports(const Flags&, std::ostream& out) {
  const hls::HlsCostModel model = hls::HlsCostModel::ultrascale_default();
  const hls::FpgaPart part = hls::FpgaPart::ku15p();
  const nn::LstmConfig config;
  for (const auto level :
       {kernels::OptimizationLevel::Vanilla, kernels::OptimizationLevel::II,
        kernels::OptimizationLevel::FixedPoint}) {
    out << "### xclbin lstm_" << kernels::optimization_name(level) << "\n\n";
    out << hls::synthesis_report(
               kernels::make_preprocess_spec(config, level, 4), model, part)
        << "\n";
    out << hls::synthesis_report(kernels::make_gates_spec(config, level), model,
                                 part)
        << "\n";
    out << hls::synthesis_report(
               kernels::make_hidden_state_spec(config, level, 4), model, part)
        << "\n";
  }
  return 0;
}

/// One subcommand: its handler, the flags that take a value, and its
/// boolean switches.
struct Command {
  std::string_view name;
  int (*run)(const Flags&, std::ostream&);
  std::vector<std::string> options;
  std::vector<std::string> switches;
};

}  // namespace

int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  if (args.empty() || args[0] == "help" || args[0] == "--help") {
    out << kUsage;
    return args.empty() ? 2 : 0;
  }
  const std::string& command = args[0];
  // Every subcommand names the flags that take a value, then its switches.
  const std::vector<Command> commands = {
      {"gen-dataset", cmd_gen_dataset,
       {"out", "ransomware", "benign", "window", "stride", "seed"},
       {"paper-size"}},
      {"gen-traces", cmd_gen_traces, {"out", "seed", "length"}, {}},
      {"train", cmd_train,
       {"dataset", "weights", "epochs", "lr", "batch", "test-fraction",
        "seed"},
       {}},
      {"classify", cmd_classify, {"weights", "dataset", "level", "trace-out"},
       {"stats"}},
      {"stats", cmd_stats,
       {"level", "calls", "seed", "fault-rate", "trace-out"},
       {"json", "health", "prometheus"}},
      {"top", cmd_top,
       {"level", "boards", "rounds", "interval-calls", "seed", "fault-rate"},
       {"once", "json"}},
      {"serve", cmd_serve,
       {"level", "calls", "seed", "ingest-threads", "serve-shards",
        "coalesce-max", "coalesce-deadline-us", "boards", "kill-board"},
       {}},
      {"attribute", cmd_attribute, {"weights", "dataset", "row", "top"}, {}},
      {"timings", cmd_timings, {"level", "cus"}, {"stream"}},
      {"reports", cmd_reports, {}, {}},
  };
  try {
    if (command == "scenario") return cmd_scenario(args, out);
    for (const Command& c : commands) {
      if (c.name == command) {
        return c.run(Flags(args, 1, c.options, c.switches), out);
      }
    }
    err << "unknown command '" << command << "'\n" << kUsage;
    return 2;
  } catch (const PreconditionError& e) {
    err << "usage error: " << e.what() << "\n";
    return 2;
  } catch (const Error& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {  // e.g. std::stod on "--lr abc"
    err << "usage error: " << e.what() << "\n";
    return 2;
  }
}

}  // namespace csdml::host
