// BoardFleet — scale-out serving across an array of simulated SmartSSDs.
//
// The paper deploys one SmartSSD per storage node; the data-center pitch
// only holds if inference scales out across a *fleet* of CSDs and survives
// a degraded board. This layer owns N independent board stacks (each its
// own SmartSSD + XRT device + CsdLstmEngine + fault plan + sharded
// ServingPipeline) and routes processes to boards with a consistent-hash
// ring, so every process's sliding token window stays board-local:
//
//   ingest(pid, token) ──ring──> board k ──pipeline──> verdicts
//                         │
//                         ├─ health sweep (every health_check_interval
//                         │  ingests): the board's engine unhealthy latch
//                         │  + any latched critical alert naming it
//                         ├─ failover: drain the sick board, rehash ONLY
//                         │  its pids to healthy boards, re-warm their
//                         │  TokenRing windows from exported snapshots —
//                         │  classifications are never dropped
//                         └─ recovery probes re-admit a healed board once
//                            its alerts have cleared
//
// Those two latches are the only drain policy. Host-side queueing in front
// of a board (ingest-to-verdict latency) never drains it by itself; a
// latency-driven drain is a per-board AlertSeverity::Critical AlertRule,
// whose fire_for/clear_for hysteresis bounds how often it can flap.
//
// Conservation law, extended across failover (asserted by `csdml serve`
// and test_fleet): summed over boards,
//
//   enqueued == verdicts + deferred        and
//   migrated_pending == migrated_resolved + migrated_forgotten
//
// i.e. every window that entered a ring either produced a verdict or was
// deferred, and every deferral carried across a board failover was later
// re-served on the destination board (the "migrated-then-resolved" leg)
// unless its process exited first. A pid that migrates again before its
// carried deferral resolves is counted once, not per hop.
//
// Weight rollout is coordinated: update_weights() stages the new weights
// once (one kernels::StagedWeights, its datapath staged) and flips boards
// one at a time, each engine adopting that shared version and DMAing its
// image over its own PCIe link in one step under its device lock. The flips
// are gated by a canary — the first board must reproduce a golden batch
// bit-exactly under the new weights before any other board flips — and
// stamped with a fleet-wide version counter, so a torn rollout can be
// detected (and a failed canary is rolled back to the fleet-current
// version, leaving the fleet serving it everywhere). A canary the golden
// batch finds dead (healthy when picked, latched by the batch) is drained
// and the next admitted board stands in, so an idle dead board cannot
// block a rollout.
//
// Besides streaming ingest, scan() classifies a batch of windows directly:
// round-robin shards over the admitted boards, one infer_batch per shard,
// with the node's makespan and scale-out speedup in simulated time.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "csd/smartssd.hpp"
#include "faults/fault_plan.hpp"
#include "kernels/engine.hpp"
#include "obs/anomaly.hpp"
#include "obs/timeseries.hpp"
#include "serve/serving.hpp"
#include "xrt/runtime.hpp"

namespace csdml::serve {

/// Fleet telemetry: the collector thread sampling per-board series into
/// the time-series store, and the alert engine evaluated on every tick.
/// Rules default to empty, so a fleet without explicit rules behaves —
/// verdict for verdict — exactly like one without telemetry (the scenario
/// golden digests depend on this).
struct FleetTelemetryConfig {
  bool enabled{true};
  /// When false the owner drives collector ticks explicitly (tests,
  /// `csdml top` frames) instead of running the background thread.
  bool collector_thread{true};
  obs::TsdbConfig tsdb{};
  /// Declarative alert rules. A latched Critical rule with `board >= 0`
  /// drains that board at the next health sweep and holds its readmission
  /// until the alert clears through `clear_for`; other rules only alert.
  std::vector<obs::AlertRule> rules{};
  /// Injected timeline for deterministic tests; empty = steady clock.
  std::function<std::int64_t()> clock{};
};

struct FleetConfig {
  std::size_t boards{2};
  /// Ingests between health sweeps (0 = sweep only on explicit
  /// check_health() calls). Sweeps are cheap relative to a window
  /// classification, so a few hundred is a fine default.
  std::size_t health_check_interval{256};
  /// Seeds the hash ring, per-board fault streams, and golden windows.
  std::uint64_t seed{2024};
  /// Ambient per-board XRT launch-failure probability (0 = no plan).
  double fault_rate{0.0};
  /// Golden windows the rollout canary must reproduce bit-exactly.
  std::size_t canary_windows{4};
  kernels::EngineConfig engine{};
  /// Per-board pipeline settings; metrics_prefix/board_label are
  /// overridden per board ("fleet.b<k>" / "board<k>").
  ServeConfig serve{};
  FleetTelemetryConfig telemetry{};
};

/// One coordinated weight rollout, as measured (bench_fleet reports the
/// pause numbers; tests assert the gate semantics).
struct RolloutReport {
  bool ok{false};         ///< every admitted board now serves `version`
  bool canary_ok{false};  ///< the golden batch matched under new weights
  std::uint64_t version{0};
  double canary_us{0.0};            ///< canary flip + golden-batch check
  double total_us{0.0};             ///< whole rollout wall time
  std::vector<double> per_board_us; ///< flip wall time, rollout order
};

/// One board's share of a scan().
struct BoardScan {
  std::size_t scanned{0};
  std::size_t flagged{0};
  Duration busy{};  ///< simulated device time for the board's shard
};

struct ScanReport {
  std::vector<BoardScan> per_board;  ///< indexed by board; drained = zeros
  std::size_t scanned{0};
  std::size_t flagged{0};
  /// Slowest board's busy time — node-level completion latency.
  Duration makespan{};
  /// Sum of board busy times — what one board alone would have taken.
  Duration serial_time{};
  /// Labels aligned with the scanned sequences.
  std::vector<int> labels;

  double scale_out_speedup() const {
    return makespan.picos > 0
               ? static_cast<double>(serial_time.picos) /
                     static_cast<double>(makespan.picos)
               : 0.0;
  }
};

class BoardFleet {
 public:
  /// Builds `config.boards` full board stacks sharing one model, staged
  /// once and adopted by every board; every board starts healthy,
  /// admitted to the ring, at weight version 1.
  /// The sink is shared by all boards (same contract as ServingPipeline:
  /// invoked from coalescer threads, outside shard locks).
  BoardFleet(const nn::LstmConfig& model, const nn::LstmParams& params,
             FleetConfig config, VerdictSink sink);
  ~BoardFleet();  ///< stop()

  BoardFleet(const BoardFleet&) = delete;
  BoardFleet& operator=(const BoardFleet&) = delete;

  /// Feeds one API call. Thread-safe; routes via the sticky pid→board
  /// table (first contact places the pid on the ring over admitted
  /// boards) and triggers a health sweep every health_check_interval
  /// ingests.
  void ingest(detect::ProcessId process, nn::TokenId token);

  /// Forgets a terminated process on its current board.
  void forget(detect::ProcessId process);

  /// Blocks until every board's pipeline has drained (verdict or
  /// deferral for everything enqueued).
  void flush();

  /// Stops every board's coalescer. Idempotent; the destructor calls it.
  void stop();

  std::size_t board_count() const { return boards_.size(); }
  /// Current routing for a pid (its sticky assignment, or where the ring
  /// would place it if it has not been seen yet).
  std::size_t board_of(detect::ProcessId process) const;
  /// Admitted to the ring AND engine latch clear.
  bool board_healthy(std::size_t board) const;
  std::size_t boards_admitted() const;

  /// Deterministic failure drill: attaches a lethal launch-failure plan,
  /// so the board's next classification exhausts its retries and latches
  /// unhealthy; the following health sweep drains and rehashes it.
  void kill_board(std::size_t board);
  /// Detaches the kill plan (restoring any ambient plan); the next health
  /// sweep's recovery probe re-admits the board — after pushing the
  /// current weight version if a rollout happened while it was out.
  void revive_board(std::size_t board);

  /// One health sweep now: drain-and-rehash any admitted board whose
  /// engine latch is set or that a critical alert names, probe-and-readmit
  /// any drained board that recovered and is no longer alerted. A lone
  /// unhealthy board (nowhere to drain) is probed in place instead, so it
  /// resumes serving once its fault clears. Also runs automatically from
  /// ingest every health_check_interval calls.
  void check_health();

  /// Classifies every sequence, sharding round-robin over the admitted
  /// boards (a drained board gets no work); each shard runs as one
  /// infer_batch, and node latency is the slowest shard.
  ScanReport scan(const std::vector<nn::Sequence>& sequences);

  /// Canary-gated coordinated rollout (see file header). Serialised;
  /// boards out of the ring are skipped and catch up at re-admission by
  /// adopting the fleet-current version (a DMA, no rebuild).
  RolloutReport update_weights(const nn::LstmParams& params);

  /// Fleet-wide weight image version (1 after construction).
  std::uint64_t weight_version() const;

  struct Stats {
    ServingPipeline::Stats totals;      ///< summed over boards
    std::uint64_t failovers{0};         ///< boards drained
    std::uint64_t migrations{0};        ///< pid moves between boards
    std::uint64_t migrated_pending{0};  ///< deferrals carried across a failover
    std::uint64_t readmissions{0};
    std::uint64_t rollouts{0};
    std::uint64_t weight_version{0};
    std::size_t boards_admitted{0};

    /// Nothing lost: every enqueued window produced a verdict or deferral.
    bool conservation_ok() const {
      return totals.enqueued == totals.verdicts + totals.deferred;
    }
    /// Every deferral carried across a failover was re-served, or its
    /// process was forgotten first.
    bool failover_resolved() const {
      return totals.migrated_resolved + totals.migrated_forgotten ==
             migrated_pending;
    }
  };
  Stats stats() const;

  ServingPipeline::Stats board_stats(std::size_t board) const;
  kernels::CsdLstmEngine& engine(std::size_t board);

  /// Telemetry collector (null when telemetry is disabled). Owners in
  /// deterministic mode call telemetry()->tick() per frame.
  obs::TelemetryCollector* telemetry() { return collector_.get(); }
  /// Alert engine (null when telemetry is disabled).
  obs::AlertEngine* alert_engine() { return alerts_.get(); }
  const obs::AlertEngine* alert_engine() const { return alerts_.get(); }

  const FleetConfig& config() const { return config_; }

 private:
  struct Board {
    Board(const nn::LstmConfig& model,
          std::shared_ptr<const kernels::StagedWeights> weights,
          const FleetConfig& config, std::size_t index);

    csd::SmartSsd board;
    xrt::Device device;
    kernels::CsdLstmEngine engine;
    std::unique_ptr<ServingPipeline> pipeline;
    std::optional<faults::FaultPlan> ambient_plan;
    std::optional<faults::FaultPlan> kill_plan;
    std::atomic<bool> admitted{true};
  };

  /// Ring placement over admitted boards (any caller; no routing lock
  /// needed — the ring is immutable after construction, only `admitted`
  /// flags change).
  std::size_t place(detect::ProcessId process) const;
  /// Drains `board`, rehashes only its pids, re-warms their windows on
  /// the destinations. Caller must NOT hold route_mutex_.
  void failover(std::size_t board);
  /// restore_health + one golden classification; true when the board came
  /// back healthy.
  bool probe(Board& board);
  void readmit(std::size_t board);
  /// Golden batch bit-exact under the engine's live datapath vs a
  /// freshly built reference for `params` — built independently of the
  /// staged version the engine adopted, so the check never compares that
  /// shared object with itself.
  bool golden_parity(kernels::CsdLstmEngine& engine,
                     const nn::LstmParams& params) const;
  void publish_fleet_gauges();

  FleetConfig config_;
  nn::LstmConfig model_;
  VerdictSink sink_;
  /// Built before the boards so verdict sinks can feed scores to the
  /// drift monitor from the very first classification.
  std::unique_ptr<obs::AlertEngine> alerts_;
  std::vector<std::unique_ptr<Board>> boards_;
  /// Built last (samples the boards' metric prefixes); stopped first.
  std::unique_ptr<obs::TelemetryCollector> collector_;
  /// Sorted consistent-hash ring: (point, board index).
  std::vector<std::pair<std::uint64_t, std::size_t>> ring_;
  std::vector<nn::Sequence> golden_;

  /// pid → board. Shared-locked across every ingest so a failover
  /// (exclusive) cannot migrate a pid out from under an in-flight push.
  mutable std::shared_mutex route_mutex_;
  std::unordered_map<detect::ProcessId, std::size_t> routing_;

  std::mutex health_mutex_;   ///< one sweep at a time (try-lock, no queue)
  std::mutex rollout_mutex_;  ///< serialises rollouts, readmission + staged_
  /// Fleet-current weight version: what every admitted board serves, the
  /// canary's rollback target and a readmitted board's catch-up.
  std::shared_ptr<const kernels::StagedWeights> staged_;
  std::atomic<std::uint64_t> version_{1};

  std::atomic<std::uint64_t> ingests_{0};
  std::atomic<std::uint64_t> failovers_{0};
  std::atomic<std::uint64_t> migrations_{0};
  std::atomic<std::uint64_t> migrated_pending_{0};
  std::atomic<std::uint64_t> readmissions_{0};
  std::atomic<std::uint64_t> rollouts_{0};
};

}  // namespace csdml::serve
