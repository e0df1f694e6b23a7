#include "serve/fleet.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "kernels/functional.hpp"
#include "obs/metrics.hpp"

namespace csdml::serve {

namespace {

/// Virtual nodes per board on the consistent-hash ring; more points spread
/// one board's pids more evenly over the survivors on failover.
constexpr std::size_t kVnodes = 32;

double elapsed_us(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - since)
      .count();
}

csd::SmartSsdConfig board_ssd_config(std::size_t index) {
  csd::SmartSsdConfig config;
  config.label = "board" + std::to_string(index);
  return config;
}

}  // namespace

BoardFleet::Board::Board(const nn::LstmConfig& model,
                         std::shared_ptr<const kernels::StagedWeights> weights,
                         const FleetConfig& config, std::size_t index)
    : board(board_ssd_config(index)),
      device(board),
      engine(device, model, std::move(weights), config.engine) {
  // Attached after engine construction so the init-time weight staging is
  // never hit by ambient faults — only steady-state classification is.
  if (config.fault_rate > 0.0) {
    faults::FaultConfig ambient;
    ambient.seed =
        splitmix64(config.seed ^ (index + 1) * 0x7fb5d329728ea185ULL);
    ambient.xrt_launch_failure_probability = config.fault_rate;
    ambient_plan.emplace(ambient);
    board.set_fault_plan(&*ambient_plan);
  }
}

BoardFleet::BoardFleet(const nn::LstmConfig& model,
                       const nn::LstmParams& params, FleetConfig config,
                       VerdictSink sink)
    : config_(std::move(config)),
      model_(model),
      sink_(std::move(sink)) {
  CSDML_REQUIRE(config_.boards > 0, "fleet: need at least one board");
  CSDML_REQUIRE(sink_ != nullptr, "fleet: verdict sink required");
  staged_ = std::make_shared<const kernels::StagedWeights>(model_, params,
                                                           config_.engine);

  if (config_.telemetry.enabled) {
    alerts_ = std::make_unique<obs::AlertEngine>();
    for (const obs::AlertRule& rule : config_.telemetry.rules) {
      alerts_->add_rule(rule);
    }
  }

  boards_.reserve(config_.boards);
  for (std::size_t k = 0; k < config_.boards; ++k) {
    auto board = std::make_unique<Board>(model_, staged_, config_, k);
    ServeConfig serve_config = config_.serve;
    serve_config.metrics_prefix = "fleet.b" + std::to_string(k);
    serve_config.board_label = board->board.label();
    // Stamp the board index onto every verdict before it reaches the
    // shared sink, so consumers can attribute classifications across a
    // failover (the scenario scorer keys on this).
    board->pipeline = std::make_unique<ServingPipeline>(
        board->engine, std::move(serve_config),
        [this, k](const Verdict& verdict) {
          Verdict stamped = verdict;
          stamped.board = static_cast<std::uint32_t>(k);
          sink_(stamped);
        });
    boards_.push_back(std::move(board));
  }

  ring_.reserve(config_.boards * kVnodes);
  for (std::size_t k = 0; k < config_.boards; ++k) {
    for (std::size_t v = 0; v < kVnodes; ++v) {
      ring_.emplace_back(
          splitmix64(config_.seed ^ (k * 0x100000001b3ULL + v + 1)), k);
    }
  }
  std::sort(ring_.begin(), ring_.end());

  // Golden windows: the canary-parity batch and the recovery probe both
  // classify these, so they are fixed at construction (seeded).
  Rng golden_rng = Rng(config_.seed).fork("fleet.golden");
  const std::size_t window_length = config_.serve.detector.window_length;
  golden_.reserve(std::max<std::size_t>(config_.canary_windows, 1));
  for (std::size_t i = 0; i < std::max<std::size_t>(config_.canary_windows, 1);
       ++i) {
    nn::Sequence window(window_length);
    for (nn::TokenId& token : window) {
      token = static_cast<nn::TokenId>(
          golden_rng.next() % static_cast<std::uint64_t>(model_.vocab_size));
    }
    golden_.push_back(std::move(window));
  }

  obs::registry().set_gauge("fleet.boards", static_cast<double>(boards_.size()));
  publish_fleet_gauges();

  if (config_.telemetry.enabled) {
    std::vector<obs::SampleSpec> specs;
    for (std::size_t k = 0; k < boards_.size(); ++k) {
      for (obs::SampleSpec& spec :
           obs::board_sample_specs("fleet.b" + std::to_string(k))) {
        specs.push_back(std::move(spec));
      }
    }
    obs::CollectorConfig collector_config;
    collector_config.tsdb = config_.telemetry.tsdb;
    collector_config.clock = config_.telemetry.clock;
    collector_config.start_thread = config_.telemetry.collector_thread;
    collector_ = std::make_unique<obs::TelemetryCollector>(
        std::move(collector_config), std::move(specs), alerts_.get());
  }
}

BoardFleet::~BoardFleet() { stop(); }

void BoardFleet::ingest(detect::ProcessId process, nn::TokenId token) {
  const std::uint64_t count =
      ingests_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (config_.health_check_interval != 0 &&
      count % config_.health_check_interval == 0) {
    check_health();
  }
  {
    // Shared-locked across the push: a failover (exclusive) can never
    // export a pid's state while one of its tokens is mid-ingest.
    std::shared_lock<std::shared_mutex> lock(route_mutex_);
    const auto it = routing_.find(process);
    if (it != routing_.end()) {
      boards_[it->second]->pipeline->ingest(process, token);
      return;
    }
  }
  std::unique_lock<std::shared_mutex> lock(route_mutex_);
  const auto [it, inserted] = routing_.try_emplace(process, std::size_t{0});
  if (inserted) it->second = place(process);
  boards_[it->second]->pipeline->ingest(process, token);
}

void BoardFleet::forget(detect::ProcessId process) {
  std::unique_lock<std::shared_mutex> lock(route_mutex_);
  const auto it = routing_.find(process);
  if (it == routing_.end()) {
    obs::registry().add_counter("fleet.forget_unknown");
    return;
  }
  const std::size_t board = it->second;
  routing_.erase(it);
  boards_[board]->pipeline->forget(process);
}

void BoardFleet::flush() {
  for (const std::unique_ptr<Board>& board : boards_) {
    board->pipeline->flush();
  }
}

void BoardFleet::stop() {
  // Collector first: once pipelines stop, sampling their metrics is
  // pointless (and the alert engine must not drain boards mid-teardown).
  if (collector_) collector_->stop();
  for (const std::unique_ptr<Board>& board : boards_) {
    board->pipeline->stop();
  }
}

std::size_t BoardFleet::board_of(detect::ProcessId process) const {
  std::shared_lock<std::shared_mutex> lock(route_mutex_);
  const auto it = routing_.find(process);
  if (it != routing_.end()) return it->second;
  return place(process);
}

bool BoardFleet::board_healthy(std::size_t board) const {
  CSDML_REQUIRE(board < boards_.size(), "fleet: board index out of range");
  return boards_[board]->admitted.load(std::memory_order_acquire) &&
         boards_[board]->engine.healthy();
}

std::size_t BoardFleet::boards_admitted() const {
  std::size_t admitted = 0;
  for (const std::unique_ptr<Board>& board : boards_) {
    if (board->admitted.load(std::memory_order_acquire)) ++admitted;
  }
  return admitted;
}

void BoardFleet::kill_board(std::size_t board) {
  CSDML_REQUIRE(board < boards_.size(), "fleet: board index out of range");
  Board& b = *boards_[board];
  // The device lock keeps the plan swap out from under an in-flight batch
  // (the coalescer holds the same lock across infer_batch).
  const auto device_lock = b.engine.lock_device();
  b.board.set_fault_plan(nullptr);
  b.kill_plan.emplace(
      faults::lethal_launch_config(splitmix64(config_.seed ^ 0xdead) ^ board));
  b.board.set_fault_plan(&*b.kill_plan);
  obs::registry().add_counter("fleet.kills");
}

void BoardFleet::revive_board(std::size_t board) {
  CSDML_REQUIRE(board < boards_.size(), "fleet: board index out of range");
  Board& b = *boards_[board];
  const auto device_lock = b.engine.lock_device();
  b.board.set_fault_plan(b.ambient_plan ? &*b.ambient_plan : nullptr);
  b.kill_plan.reset();
  obs::registry().add_counter("fleet.revives");
}

void BoardFleet::check_health() {
  // One sweep at a time; a concurrent ingest that loses the race just
  // skips — the next interval tick retries.
  if (!health_mutex_.try_lock()) return;
  const std::lock_guard<std::mutex> sweep(health_mutex_, std::adopt_lock);
  for (std::size_t k = 0; k < boards_.size(); ++k) {
    Board& board = *boards_[k];
    const bool alerted =
        alerts_ != nullptr && alerts_->board_alerted(static_cast<int>(k));
    if (board.admitted.load(std::memory_order_acquire)) {
      // The engine latch, or a latched critical alert naming this board:
      // the only two reasons a board leaves the ring.
      const bool latched = !board.engine.healthy();
      if (!latched && alerted) obs::registry().add_counter("fleet.alert_drains");
      if (latched || alerted) {
        failover(k);
        // A lone board cannot drain — failover re-admits it on the spot —
        // so its latch would otherwise stick even after the fault clears
        // (revive_board only detaches the plan). Probe it in place: while
        // the fault persists the probe fails and deferrals continue; once
        // it clears the board resumes serving at the next sweep.
        if (board.admitted.load(std::memory_order_acquire) &&
            !board.engine.healthy() && probe(board)) {
          obs::registry().add_counter("fleet.recovered_in_place");
        }
      }
    } else if (alerted) {
      // Readmission waits for the alert to clear through its hysteresis
      // window, so a flapping board cannot bounce back into the ring.
      obs::registry().add_counter("fleet.readmit_held_by_alert");
    } else if (probe(board)) {
      readmit(k);
    }
  }
  publish_fleet_gauges();
}

std::size_t BoardFleet::place(detect::ProcessId process) const {
  const std::uint64_t point =
      splitmix64(config_.seed ^ 0x517cc1b727220a95ULL ^
                 static_cast<std::uint64_t>(process));
  const auto it = std::lower_bound(ring_.begin(), ring_.end(),
                                   std::make_pair(point, std::size_t{0}));
  const std::size_t start =
      static_cast<std::size_t>(it - ring_.begin()) % ring_.size();
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const std::size_t board = ring_[(start + i) % ring_.size()].second;
    if (boards_[board]->admitted.load(std::memory_order_acquire)) return board;
  }
  // Nobody admitted: park on the ring owner — its pipeline defers (never
  // drops) until a board recovers.
  return ring_[start].second;
}

void BoardFleet::failover(std::size_t board) {
  Board& sick = *boards_[board];
  std::unique_lock<std::shared_mutex> route_lock(route_mutex_);
  if (!sick.admitted.exchange(false, std::memory_order_acq_rel)) return;

  bool survivor = false;
  for (std::size_t k = 0; k < boards_.size(); ++k) {
    if (k != board && boards_[k]->admitted.load(std::memory_order_acquire)) {
      survivor = true;
      break;
    }
  }
  if (!survivor) {
    // Last board standing: nowhere to migrate, so it stays in the ring
    // and rides the deferral path until it (or a peer) recovers.
    sick.admitted.store(true, std::memory_order_release);
    return;
  }

  // Ingest is blocked on route_mutex_, so after the flush the board is
  // quiescent: every enqueued window has a verdict or a deferral, and the
  // shard maps hold the complete migratable state.
  sick.pipeline->flush();
  const std::vector<ServingPipeline::ProcessSnapshot> snapshots =
      sick.pipeline->export_processes();
  for (const ServingPipeline::ProcessSnapshot& snapshot : snapshots) {
    const auto& [process, state] = snapshot;
    const std::size_t dest = place(process);
    boards_[dest]->pipeline->import_process(snapshot);
    routing_[process] = dest;
    // A deferral already carried by an earlier failover is still owed to
    // the same ledger entry; only a fresh carry opens a new one.
    if (state.fresh_carry()) {
      migrated_pending_.fetch_add(1, std::memory_order_relaxed);
      obs::registry().add_counter("fleet.migrated_pending");
    }
  }
  migrations_.fetch_add(snapshots.size(), std::memory_order_relaxed);
  failovers_.fetch_add(1, std::memory_order_relaxed);
  obs::registry().add_counter("fleet.failovers");
  obs::registry().add_counter("fleet.migrations", snapshots.size());
}

bool BoardFleet::probe(Board& board) {
  obs::registry().add_counter("fleet.probes");
  board.engine.restore_health();
  try {
    const nn::Sequence& window = golden_.front();
    (void)board.engine.infer(nn::TokenSpan(window.data(), window.size()));
  } catch (const faults::CsdUnavailableError&) {
    return false;
  }
  return board.engine.healthy();
}

void BoardFleet::readmit(std::size_t board) {
  Board& b = *boards_[board];
  // A rollout may have happened while the board was out of the ring (or
  // it was a rolled-back dead canary); it must serve the fleet-current
  // version before taking traffic. Every rollout stages a fresh version,
  // so pointer identity is version identity. Admitting under the rollout
  // lock means a rollout either sees the board admitted or ran before
  // this catch-up.
  const std::lock_guard<std::mutex> rollout_lock(rollout_mutex_);
  if (b.engine.weights() != staged_) b.engine.update_weights(staged_);
  b.admitted.store(true, std::memory_order_release);
  readmissions_.fetch_add(1, std::memory_order_relaxed);
  obs::registry().add_counter("fleet.readmissions");
}

bool BoardFleet::golden_parity(kernels::CsdLstmEngine& engine,
                               const nn::LstmParams& params) const {
  // Reference datapath built exactly the way the engine builds its live
  // one for the configured level, so parity is bit-exact, not tolerance-
  // based.
  const bool fixed =
      config_.engine.level == kernels::OptimizationLevel::FixedPoint;
  std::optional<kernels::FixedDatapath> fixed_path;
  std::optional<kernels::FloatDatapath> float_path;
  if (fixed) {
    fixed_path.emplace(model_, params, config_.engine.fixed_scale);
  } else {
    float_path.emplace(model_, params);
  }
  for (const nn::Sequence& window : golden_) {
    const nn::TokenSpan span(window.data(), window.size());
    const double expect = fixed ? fixed_path->infer(span) : float_path->infer(span);
    try {
      const kernels::InferenceResult got = engine.infer(span);
      if (got.degraded || got.probability != expect) return false;
    } catch (const faults::CsdUnavailableError&) {
      // An unhealthy canary cannot vouch for the new weights.
      return false;
    }
  }
  return true;
}

ScanReport BoardFleet::scan(const std::vector<nn::Sequence>& sequences) {
  CSDML_REQUIRE(!sequences.empty(), "fleet: nothing to scan");
  std::vector<std::size_t> targets;
  for (std::size_t k = 0; k < boards_.size(); ++k) {
    if (boards_[k]->admitted.load(std::memory_order_acquire)) {
      targets.push_back(k);
    }
  }
  CSDML_REQUIRE(!targets.empty(), "fleet: no admitted board to scan on");

  std::vector<std::vector<nn::Sequence>> shards(targets.size());
  std::vector<std::vector<std::size_t>> shard_indices(targets.size());
  for (std::size_t i = 0; i < sequences.size(); ++i) {
    shards[i % targets.size()].push_back(sequences[i]);
    shard_indices[i % targets.size()].push_back(i);
  }

  ScanReport report;
  report.per_board.resize(boards_.size());
  report.labels.resize(sequences.size());
  for (std::size_t s = 0; s < targets.size(); ++s) {
    if (shards[s].empty()) continue;
    const kernels::CsdLstmEngine::BatchResult batch =
        boards_[targets[s]]->engine.infer_batch(shards[s]);
    BoardScan& stats = report.per_board[targets[s]];
    stats.scanned = shards[s].size();
    stats.busy = batch.device_time;
    for (std::size_t k = 0; k < batch.labels.size(); ++k) {
      report.labels[shard_indices[s][k]] = batch.labels[k];
      stats.flagged += batch.labels[k] == 1;
    }
    report.scanned += stats.scanned;
    report.flagged += stats.flagged;
    report.serial_time += stats.busy;
    report.makespan = std::max(report.makespan, stats.busy);
  }
  return report;
}

RolloutReport BoardFleet::update_weights(const nn::LstmParams& params) {
  const std::lock_guard<std::mutex> rollout_lock(rollout_mutex_);
  RolloutReport report;
  const auto start = std::chrono::steady_clock::now();

  std::vector<std::size_t> targets;
  for (std::size_t k = 0; k < boards_.size(); ++k) {
    if (boards_[k]->admitted.load(std::memory_order_acquire)) {
      targets.push_back(k);
    }
  }
  report.version = version_.load(std::memory_order_relaxed);
  if (targets.empty()) return report;

  // Canary gate: the new version is staged once, then the first admitted
  // board flips to it and must reproduce the golden batch bit-exactly
  // before any other board moves. The staging is charged to the canary.
  const auto canary_start = std::chrono::steady_clock::now();
  const std::shared_ptr<const kernels::StagedWeights> staged =
      std::make_shared<const kernels::StagedWeights>(model_, params, config_.engine);
  std::size_t next = 0;
  while (next < targets.size()) {
    Board& canary = *boards_[targets[next++]];
    const bool was_healthy = canary.engine.healthy();
    canary.engine.update_weights(staged);
    report.canary_ok = golden_parity(canary.engine, params);
    if (report.canary_ok) break;
    // Roll the canary back: it keeps serving the old version.
    canary.engine.update_weights(staged_);
    // A canary that was healthy when picked and latched during the golden
    // batch is a dead board no traffic had reached yet (an idle board
    // never latches otherwise), not evidence against the weights: drain
    // it like a sweep would and let the next admitted board stand in.
    // Bad weights, or a board already latched and owed to the sweep,
    // refuse the rollout.
    if (!was_healthy || canary.engine.healthy()) break;
    failover(targets[next - 1]);
    if (canary.admitted.load(std::memory_order_acquire)) break;  // lone board
    obs::registry().add_counter("fleet.rollout_dead_canaries");
  }
  report.canary_us = elapsed_us(canary_start);
  report.per_board_us.push_back(report.canary_us);
  if (!report.canary_ok) {
    // The whole fleet keeps serving the old version.
    obs::registry().add_counter("fleet.rollout_canary_failures");
    report.total_us = elapsed_us(start);
    return report;
  }
  // Boards ahead of the canary were drained; only it and those after it flip.
  targets.erase(targets.begin(), targets.begin() + static_cast<std::ptrdiff_t>(next - 1));

  for (std::size_t i = 1; i < targets.size(); ++i) {
    const auto flip_start = std::chrono::steady_clock::now();
    boards_[targets[i]]->engine.update_weights(staged);
    report.per_board_us.push_back(elapsed_us(flip_start));
  }

  staged_ = staged;
  const std::uint64_t version =
      version_.fetch_add(1, std::memory_order_relaxed) + 1;
  rollouts_.fetch_add(1, std::memory_order_relaxed);
  report.ok = true;
  report.version = version;
  report.total_us = elapsed_us(start);
  obs::registry().add_counter("fleet.rollouts");
  obs::registry().set_gauge("fleet.weight_version",
                            static_cast<double>(version));
  return report;
}

std::uint64_t BoardFleet::weight_version() const {
  return version_.load(std::memory_order_relaxed);
}

BoardFleet::Stats BoardFleet::stats() const {
  Stats stats;
  for (const std::unique_ptr<Board>& board : boards_) {
    const ServingPipeline::Stats p = board->pipeline->stats();
    stats.totals.ingested += p.ingested;
    stats.totals.enqueued += p.enqueued;
    stats.totals.shed += p.shed;
    stats.totals.deferred += p.deferred;
    stats.totals.verdicts += p.verdicts;
    stats.totals.alerts += p.alerts;
    stats.totals.batches += p.batches;
    stats.totals.migrated_in += p.migrated_in;
    stats.totals.migrated_resolved += p.migrated_resolved;
    stats.totals.migrated_forgotten += p.migrated_forgotten;
    if (board->admitted.load(std::memory_order_acquire)) {
      ++stats.boards_admitted;
    }
  }
  stats.failovers = failovers_.load(std::memory_order_relaxed);
  stats.migrations = migrations_.load(std::memory_order_relaxed);
  stats.migrated_pending = migrated_pending_.load(std::memory_order_relaxed);
  stats.readmissions = readmissions_.load(std::memory_order_relaxed);
  stats.rollouts = rollouts_.load(std::memory_order_relaxed);
  stats.weight_version = version_.load(std::memory_order_relaxed);
  return stats;
}

ServingPipeline::Stats BoardFleet::board_stats(std::size_t board) const {
  CSDML_REQUIRE(board < boards_.size(), "fleet: board index out of range");
  return boards_[board]->pipeline->stats();
}

kernels::CsdLstmEngine& BoardFleet::engine(std::size_t board) {
  CSDML_REQUIRE(board < boards_.size(), "fleet: board index out of range");
  return boards_[board]->engine;
}

void BoardFleet::publish_fleet_gauges() {
  obs::registry().set_gauge("fleet.boards_admitted",
                            static_cast<double>(boards_admitted()));
  obs::registry().set_gauge(
      "fleet.weight_version",
      static_cast<double>(version_.load(std::memory_order_relaxed)));
}

}  // namespace csdml::serve
