// BoardFleet unit tests: consistent-hash placement (deterministic,
// sticky, minimal disruption), latch- and alert-driven failover (and none
// on a queueing tail) with the extended conservation law, canary-gated
// weight rollout, re-admission probes, the per-board observability
// surface, and the round-robin batch scan.
#include "serve/fleet.hpp"

#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "detect/detector.hpp"
#include "kernels/engine.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "window_oracle.hpp"

namespace csdml::serve {
namespace {

nn::LstmConfig tiny_model() {
  return nn::LstmConfig{.vocab_size = 32, .embed_dim = 4, .hidden_dim = 8};
}

FleetConfig tiny_fleet_config(std::size_t boards) {
  FleetConfig config;
  config.boards = boards;
  config.health_check_interval = 0;  // sweeps are explicit in these tests
  config.serve.detector = detect::DetectorConfig{
      .window_length = 20, .hop = 5, .consecutive_alerts = 2};
  config.engine =
      kernels::EngineConfig{.level = kernels::OptimizationLevel::FixedPoint};
  return config;
}

using csdml::testing::random_stream;
using csdml::testing::Streams;
using csdml::testing::sync_replay;
using csdml::testing::VerdictLog;

/// Thread-safe collecting sink shared by every fleet under test.
struct Collector {
  std::mutex mutex;
  VerdictLog log;

  VerdictSink sink() {
    return [this](const Verdict& verdict) {
      std::lock_guard<std::mutex> lock(mutex);
      log[verdict.process].push_back(
          {verdict.call_index, verdict.probability, verdict.alert});
    };
  }
};

Streams make_streams(std::size_t processes, std::size_t calls,
                     std::int32_t vocab) {
  Streams streams;
  for (std::size_t p = 0; p < processes; ++p) {
    streams[static_cast<detect::ProcessId>(p + 1)] =
        random_stream(1000 + p, calls, vocab);
  }
  return streams;
}

/// Feeds calls [begin, end) of every stream, single-threaded.
void feed(BoardFleet& fleet, const Streams& streams, std::size_t begin,
          std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    for (const auto& [pid, stream] : streams) {
      if (i < stream.size()) fleet.ingest(pid, stream[i]);
    }
  }
}

/// Keeps feeding hop-sized slices until the victim's engine latches
/// unhealthy (its next due batch exhausts retries against the kill plan).
std::size_t feed_until_latched(BoardFleet& fleet, const Streams& streams,
                               std::size_t from, std::size_t victim) {
  std::size_t cursor = from;
  const std::size_t limit = streams.begin()->second.size();
  while (fleet.engine(victim).healthy() && cursor < limit) {
    feed(fleet, streams, cursor, cursor + 5);
    cursor += 5;
    fleet.flush();
  }
  EXPECT_FALSE(fleet.engine(victim).healthy());
  return cursor;
}

TEST(Fleet, PlacementDeterministicAndSticky) {
  const nn::LstmConfig model = tiny_model();
  Rng rng(7);
  const nn::LstmParams params = nn::LstmParams::glorot(model, rng);
  obs::registry().reset();

  Collector sink_a;
  BoardFleet fleet_a(model, params, tiny_fleet_config(4), sink_a.sink());
  Collector sink_b;
  BoardFleet fleet_b(model, params, tiny_fleet_config(4), sink_b.sink());

  // Same seed, same ring: identical placement for any pid, before and
  // after the pid is actually seen.
  std::map<detect::ProcessId, std::size_t> placed;
  for (detect::ProcessId pid = 1; pid <= 64; ++pid) {
    EXPECT_EQ(fleet_a.board_of(pid), fleet_b.board_of(pid));
    placed[pid] = fleet_a.board_of(pid);
  }
  const Streams streams = make_streams(16, 30, model.vocab_size);
  feed(fleet_a, streams, 0, 30);
  fleet_a.flush();
  for (const auto& [pid, stream] : streams) {
    EXPECT_EQ(fleet_a.board_of(pid), placed[pid]) << "pid " << pid;
  }
  // Every board takes a share of 64 pids (hash quality smoke).
  std::vector<std::size_t> counts(4, 0);
  for (const auto& [pid, board] : placed) ++counts[board];
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_GT(counts[k], 0u) << "board " << k << " owns no pids";
  }
}

TEST(Fleet, VerdictsMatchSyncOracleAcrossBoards) {
  const nn::LstmConfig model = tiny_model();
  Rng rng(7);
  const nn::LstmParams params = nn::LstmParams::glorot(model, rng);
  const Streams streams = make_streams(8, 60, model.vocab_size);
  const detect::DetectorConfig detector = tiny_fleet_config(1).serve.detector;

  obs::registry().reset();
  VerdictLog oracle;
  {
    csd::SmartSsd board{csd::SmartSsdConfig{}};
    xrt::Device device{board};
    kernels::CsdLstmEngine engine(
        device, model, params,
        kernels::EngineConfig{.level = kernels::OptimizationLevel::FixedPoint});
    oracle = sync_replay(engine, detector, streams);
  }

  obs::registry().reset();
  Collector collector;
  BoardFleet fleet(model, params, tiny_fleet_config(3), collector.sink());
  feed(fleet, streams, 0, 60);
  fleet.flush();
  fleet.stop();

  // Board-local windows: scattering pids across boards must not change a
  // single classification (probability, call index, alert) — bit-exact.
  EXPECT_EQ(collector.log, oracle);
  EXPECT_TRUE(fleet.stats().conservation_ok());
}

TEST(Fleet, FailoverRemapsOnlyVictimPidsAndConserves) {
  const nn::LstmConfig model = tiny_model();
  Rng rng(7);
  const nn::LstmParams params = nn::LstmParams::glorot(model, rng);
  const Streams streams = make_streams(16, 120, model.vocab_size);
  obs::registry().reset();
  Collector collector;
  BoardFleet fleet(model, params, tiny_fleet_config(4), collector.sink());

  feed(fleet, streams, 0, 40);
  fleet.flush();
  std::map<detect::ProcessId, std::size_t> before;
  for (const auto& [pid, stream] : streams) before[pid] = fleet.board_of(pid);
  const std::size_t victim = fleet.board_of(1);

  fleet.kill_board(victim);
  const std::size_t cursor = feed_until_latched(fleet, streams, 40, victim);
  fleet.check_health();

  // Only the victim's pids moved; every survivor-owned pid kept its board.
  EXPECT_FALSE(fleet.board_healthy(victim));
  EXPECT_EQ(fleet.boards_admitted(), 3u);
  for (const auto& [pid, board] : before) {
    if (board == victim) {
      EXPECT_NE(fleet.board_of(pid), victim) << "pid " << pid << " not moved";
    } else {
      EXPECT_EQ(fleet.board_of(pid), board) << "pid " << pid << " disrupted";
    }
  }

  // Extended conservation law: finish the streams, every carried deferral
  // must resolve on its destination board.
  feed(fleet, streams, cursor, streams.begin()->second.size());
  fleet.flush();
  fleet.stop();
  const BoardFleet::Stats stats = fleet.stats();
  EXPECT_EQ(stats.failovers, 1u);
  EXPECT_GT(stats.migrations, 0u);
  EXPECT_GT(stats.migrated_pending, 0u);  // the kill left deferrals owed
  EXPECT_TRUE(stats.conservation_ok());
  EXPECT_TRUE(stats.failover_resolved());
  EXPECT_EQ(stats.totals.migrated_resolved, stats.migrated_pending);
}

TEST(Fleet, ChainedFailoverCountsCarriedDeferralOnce) {
  const nn::LstmConfig model = tiny_model();
  Rng rng(7);
  const nn::LstmParams params = nn::LstmParams::glorot(model, rng);
  constexpr std::size_t kCalls = 200;
  const Streams streams = make_streams(12, kCalls, model.vocab_size);
  obs::registry().reset();
  Collector collector;
  BoardFleet fleet(model, params, tiny_fleet_config(3), collector.sink());
  feed(fleet, streams, 0, 40);
  fleet.flush();

  // Kill pid 1's owner, fail over; then kill the board pid 1 landed on
  // before its carried deferral is re-served, and fail over again.
  const std::size_t first = fleet.board_of(1);
  fleet.kill_board(first);
  std::size_t cursor = feed_until_latched(fleet, streams, 40, first);
  fleet.check_health();
  const std::size_t second = fleet.board_of(1);
  ASSERT_NE(second, first);
  fleet.kill_board(second);
  cursor = feed_until_latched(fleet, streams, cursor, second);
  fleet.check_health();
  ASSERT_EQ(fleet.stats().failovers, 2u);

  feed(fleet, streams, cursor, kCalls);
  fleet.flush();
  fleet.stop();
  const BoardFleet::Stats stats = fleet.stats();
  EXPECT_GT(stats.migrated_pending, 0u);
  EXPECT_TRUE(stats.conservation_ok());
  EXPECT_EQ(stats.totals.migrated_resolved, stats.migrated_pending);
  EXPECT_TRUE(stats.failover_resolved());
  // Every pid kept verdicting to the end of its stream.
  const std::size_t hop = tiny_fleet_config(3).serve.detector.hop;
  for (const auto& [pid, stream] : streams) {
    ASSERT_FALSE(collector.log[pid].empty()) << "pid " << pid;
    EXPECT_GT(collector.log[pid].back().call_index, kCalls - hop) << "pid " << pid;
  }
}

TEST(Fleet, ForgottenMigratedDeferralBalancesLedger) {
  const nn::LstmConfig model = tiny_model();
  Rng rng(7);
  const nn::LstmParams params = nn::LstmParams::glorot(model, rng);
  const Streams streams = make_streams(8, 120, model.vocab_size);
  obs::registry().reset();
  Collector collector;
  BoardFleet fleet(model, params, tiny_fleet_config(2), collector.sink());
  feed(fleet, streams, 0, 40);
  fleet.flush();
  const std::size_t victim = fleet.board_of(1);
  std::vector<detect::ProcessId> moved;
  for (const auto& [pid, stream] : streams) {
    if (fleet.board_of(pid) == victim) moved.push_back(pid);
  }
  fleet.kill_board(victim);
  feed_until_latched(fleet, streams, 40, victim);
  fleet.check_health();
  ASSERT_EQ(fleet.stats().failovers, 1u);
  ASSERT_GT(fleet.stats().migrated_pending, 0u);

  // Every migrated pid exits before its carried window is re-served.
  for (const detect::ProcessId pid : moved) fleet.forget(pid);
  fleet.flush();
  fleet.stop();
  const BoardFleet::Stats stats = fleet.stats();
  EXPECT_EQ(stats.totals.migrated_resolved, 0u);
  EXPECT_EQ(stats.totals.migrated_forgotten, stats.migrated_pending);
  EXPECT_TRUE(stats.failover_resolved());
  EXPECT_EQ(obs::registry().counter_value("fleet.b" + std::to_string(1 - victim) +
                                          ".migrated_forgotten"),
            stats.migrated_pending);
}

TEST(Fleet, QueueingTailDrainsNoBoard) {
  // A collapsed ingest-to-verdict tail on one board — host queueing in
  // front of it, not a fault on it — must drain nothing: neither an
  // explicit sweep nor the sweeps ingest runs on every call.
  const nn::LstmConfig model = tiny_model();
  Rng rng(7);
  const nn::LstmParams params = nn::LstmParams::glorot(model, rng);
  const Streams streams = make_streams(12, 25, model.vocab_size);
  obs::registry().reset();
  Collector collector;
  FleetConfig config = tiny_fleet_config(3);
  config.health_check_interval = 1;
  BoardFleet fleet(model, params, config, collector.sink());
  feed(fleet, streams, 0, 10);
  fleet.flush();

  // Every sample on board 0's own latency series far past any budget.
  for (int i = 0; i < 64; ++i) {
    obs::registry().observe("fleet.b0.ingest_to_verdict_us", 1e9);
  }
  fleet.check_health();
  EXPECT_EQ(fleet.boards_admitted(), 3u);
  EXPECT_EQ(fleet.stats().failovers, 0u);

  feed(fleet, streams, 10, 25);
  fleet.flush();
  const BoardFleet::Stats stats = fleet.stats();
  EXPECT_EQ(stats.failovers, 0u);
  EXPECT_EQ(stats.migrations, 0u);
  EXPECT_EQ(stats.boards_admitted, 3u);
  for (std::size_t k = 0; k < 3; ++k) EXPECT_TRUE(fleet.board_healthy(k));
  EXPECT_TRUE(stats.conservation_ok());
  fleet.stop();
}

TEST(Fleet, RolloutCanaryGatedWithVersionStamp) {
  const nn::LstmConfig model = tiny_model();
  Rng rng(7);
  const nn::LstmParams params = nn::LstmParams::glorot(model, rng);
  obs::registry().reset();
  Collector collector;
  BoardFleet fleet(model, params, tiny_fleet_config(3), collector.sink());
  EXPECT_EQ(fleet.weight_version(), 1u);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(fleet.engine(k).weight_updates(), 1u);
  }

  Rng next_rng(8);
  const nn::LstmParams next = nn::LstmParams::glorot(model, next_rng);
  const RolloutReport report = fleet.update_weights(next);
  EXPECT_TRUE(report.ok);
  EXPECT_TRUE(report.canary_ok);
  EXPECT_EQ(report.version, 2u);
  EXPECT_EQ(fleet.weight_version(), 2u);
  ASSERT_EQ(report.per_board_us.size(), 3u);
  EXPECT_GT(report.canary_us, 0.0);
  EXPECT_GE(report.total_us, report.canary_us);
  // Every board flipped exactly once (construction + rollout).
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(fleet.engine(k).weight_updates(), 2u);
  }
  fleet.stop();
}

TEST(Fleet, RolloutRejectedWhenCanaryUnhealthy) {
  const nn::LstmConfig model = tiny_model();
  Rng rng(7);
  const nn::LstmParams params = nn::LstmParams::glorot(model, rng);
  const Streams streams = make_streams(12, 120, model.vocab_size);
  obs::registry().reset();
  Collector collector;
  BoardFleet fleet(model, params, tiny_fleet_config(2), collector.sink());

  // Latch board 0 — the rollout's canary (first admitted board) — but do
  // NOT sweep: it is still in the ring when the rollout is attempted.
  fleet.kill_board(0);
  feed_until_latched(fleet, streams, 0, 0);

  Rng next_rng(8);
  const nn::LstmParams next = nn::LstmParams::glorot(model, next_rng);
  const RolloutReport report = fleet.update_weights(next);
  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(report.canary_ok);
  EXPECT_EQ(fleet.weight_version(), 1u);
  // The gate held: board 1 never flipped; the canary was rolled back
  // (flip + rollback = 2 extra stagings on board 0 only).
  EXPECT_EQ(fleet.engine(1).weight_updates(), 1u);
  EXPECT_EQ(fleet.engine(0).weight_updates(), 3u);
  fleet.stop();
}

TEST(Fleet, RolloutDrainsDeadIdleCanaryAndProceeds) {
  // A board killed while idle never latches through traffic, so the
  // rollout's golden batch is the first thing to find it dead. That is a
  // dead board, not bad weights: it is drained and the next admitted
  // board stands in as canary.
  const nn::LstmConfig model = tiny_model();
  Rng rng(7);
  const nn::LstmParams params = nn::LstmParams::glorot(model, rng);
  obs::registry().reset();
  Collector collector;
  BoardFleet fleet(model, params, tiny_fleet_config(3), collector.sink());
  fleet.kill_board(0);
  ASSERT_TRUE(fleet.engine(0).healthy());

  Rng next_rng(8);
  const nn::LstmParams next = nn::LstmParams::glorot(model, next_rng);
  const RolloutReport report = fleet.update_weights(next);
  EXPECT_TRUE(report.ok);
  EXPECT_TRUE(report.canary_ok);
  EXPECT_EQ(report.version, 2u);
  EXPECT_EQ(report.per_board_us.size(), 2u);
  EXPECT_FALSE(fleet.board_healthy(0));
  EXPECT_EQ(fleet.boards_admitted(), 2u);
  EXPECT_EQ(fleet.stats().failovers, 1u);
  // Board 0 flipped and rolled back; boards 1 and 2 flipped once.
  EXPECT_EQ(fleet.engine(0).weight_updates(), 3u);
  EXPECT_EQ(fleet.engine(1).weight_updates(), 2u);
  EXPECT_EQ(fleet.engine(2).weight_updates(), 2u);

  // Revived, the drained canary is readmitted on the new version.
  fleet.revive_board(0);
  fleet.check_health();
  EXPECT_TRUE(fleet.board_healthy(0));
  const kernels::FixedDatapath reference(model, next);
  const Streams streams = make_streams(4, 20, model.vocab_size);
  for (std::size_t k = 0; k < 3; ++k) {
    for (const auto& [pid, stream] : streams) {
      const nn::TokenSpan window(stream.data(), stream.size());
      EXPECT_EQ(fleet.engine(k).infer(window).probability,
                reference.infer(window))
          << "board " << k << " pid " << pid;
    }
  }
  fleet.stop();
}

TEST(Fleet, RolloutRefusedWhenLoneCanaryDies) {
  // With no other board to stand in, a dead canary still refuses the
  // rollout and the lone board stays in the ring on the old version.
  const nn::LstmConfig model = tiny_model();
  Rng rng(7);
  const nn::LstmParams params = nn::LstmParams::glorot(model, rng);
  obs::registry().reset();
  Collector collector;
  BoardFleet fleet(model, params, tiny_fleet_config(1), collector.sink());
  fleet.kill_board(0);

  Rng next_rng(8);
  const RolloutReport report =
      fleet.update_weights(nn::LstmParams::glorot(model, next_rng));
  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(report.canary_ok);
  EXPECT_EQ(fleet.weight_version(), 1u);
  EXPECT_EQ(fleet.boards_admitted(), 1u);
  EXPECT_EQ(fleet.stats().failovers, 0u);
  EXPECT_EQ(fleet.engine(0).weight_updates(), 3u);
  fleet.stop();
}

TEST(Fleet, ReadmissionCatchesUpOnWeightVersion) {
  const nn::LstmConfig model = tiny_model();
  Rng rng(7);
  const nn::LstmParams params = nn::LstmParams::glorot(model, rng);
  const Streams streams = make_streams(12, 120, model.vocab_size);
  obs::registry().reset();
  Collector collector;
  BoardFleet fleet(model, params, tiny_fleet_config(3), collector.sink());

  const std::size_t victim = fleet.board_of(1);
  feed(fleet, streams, 0, 25);
  fleet.flush();
  fleet.kill_board(victim);
  const std::size_t cursor = feed_until_latched(fleet, streams, 25, victim);
  fleet.check_health();
  ASSERT_FALSE(fleet.board_healthy(victim));

  // Roll out new weights while the victim is out of the ring: only the
  // two admitted boards flip.
  Rng next_rng(8);
  const RolloutReport report =
      fleet.update_weights(nn::LstmParams::glorot(model, next_rng));
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.per_board_us.size(), 2u);
  EXPECT_EQ(fleet.engine(victim).weight_updates(), 1u);

  // Revive: the probe re-admits the board and pushes the current version
  // first, so it never serves stale weights.
  fleet.revive_board(victim);
  fleet.check_health();
  EXPECT_TRUE(fleet.board_healthy(victim));
  EXPECT_EQ(fleet.engine(victim).weight_updates(), 2u);
  EXPECT_EQ(fleet.stats().readmissions, 1u);

  feed(fleet, streams, cursor, 120);
  fleet.flush();
  fleet.stop();
  EXPECT_TRUE(fleet.stats().conservation_ok());
  EXPECT_TRUE(fleet.stats().failover_resolved());
}

/// Weight versions staged so far: one `engine.weight_table_rebuild_us`
/// observation per kernels::StagedWeights built.
std::uint64_t stagings() {
  for (const obs::HistogramSnapshot& histogram :
       obs::registry().snapshot().histograms) {
    if (histogram.name == "engine.weight_table_rebuild_us") return histogram.count;
  }
  return 0;
}

TEST(Fleet, StagesEachWeightVersionOnce) {
  // Every board adopts one shared staged version, so construction, a
  // rollout, a readmission catch-up and a canary rollback each stage at
  // most the one new version, however many boards serve it.
  const nn::LstmConfig model = tiny_model();
  Rng rng(7);
  const nn::LstmParams params = nn::LstmParams::glorot(model, rng);
  Rng next_rng(8);
  const nn::LstmParams v2 = nn::LstmParams::glorot(model, next_rng);
  const nn::LstmParams v3 = nn::LstmParams::glorot(model, next_rng);
  const nn::LstmParams v4 = nn::LstmParams::glorot(model, next_rng);
  const Streams streams = make_streams(12, 120, model.vocab_size);
  obs::registry().reset();
  Collector collector;
  BoardFleet fleet(model, params, tiny_fleet_config(3), collector.sink());
  EXPECT_EQ(stagings(), 1u);

  ASSERT_TRUE(fleet.update_weights(v2).ok);
  EXPECT_EQ(stagings(), 2u);

  // A board that misses a rollout catches up at readmission by adopting
  // the fleet-current version: a DMA, no staging.
  const std::size_t victim = fleet.board_of(1);
  feed(fleet, streams, 0, 25);
  fleet.flush();
  fleet.kill_board(victim);
  std::size_t cursor = feed_until_latched(fleet, streams, 25, victim);
  fleet.check_health();
  ASSERT_FALSE(fleet.board_healthy(victim));
  ASSERT_TRUE(fleet.update_weights(v3).ok);
  EXPECT_EQ(stagings(), 3u);
  fleet.revive_board(victim);
  fleet.check_health();
  ASSERT_TRUE(fleet.board_healthy(victim));
  EXPECT_EQ(fleet.engine(victim).weight_updates(), 3u);
  EXPECT_EQ(stagings(), 3u);

  // An unhealthy canary stages the new version once and rolls back by
  // adopting the fleet-current one.
  fleet.kill_board(0);
  cursor = feed_until_latched(fleet, streams, cursor, 0);
  const std::uint32_t canary_updates = fleet.engine(0).weight_updates();
  const RolloutReport rejected = fleet.update_weights(v4);
  EXPECT_FALSE(rejected.canary_ok);
  EXPECT_EQ(fleet.engine(0).weight_updates(), canary_updates + 2);
  EXPECT_EQ(stagings(), 4u);

  // Every board serves v3 bit-exactly, the rolled-back canary included.
  fleet.revive_board(0);
  fleet.engine(0).restore_health();
  const kernels::FixedDatapath reference(model, v3);
  for (std::size_t k = 0; k < 3; ++k) {
    for (const auto& [pid, stream] : streams) {
      const nn::TokenSpan window(stream.data(), 20);
      EXPECT_EQ(fleet.engine(k).infer(window).probability,
                reference.infer(window))
          << "board " << k << " pid " << pid;
    }
  }
  feed(fleet, streams, cursor, 120);
  fleet.flush();
  fleet.stop();
  EXPECT_TRUE(fleet.stats().conservation_ok());
}

TEST(Fleet, SingleBoardKillRidesDeferralPath) {
  const nn::LstmConfig model = tiny_model();
  Rng rng(7);
  const nn::LstmParams params = nn::LstmParams::glorot(model, rng);
  const Streams streams = make_streams(4, 80, model.vocab_size);
  obs::registry().reset();
  Collector collector;
  BoardFleet fleet(model, params, tiny_fleet_config(1), collector.sink());

  feed(fleet, streams, 0, 30);
  fleet.flush();
  fleet.kill_board(0);
  const std::size_t cursor = feed_until_latched(fleet, streams, 30, 0);
  fleet.check_health();
  // No survivor: the board stays in the ring, deferring instead of
  // migrating — the never-drop contract without a failover target.
  EXPECT_EQ(fleet.stats().failovers, 0u);
  EXPECT_EQ(fleet.boards_admitted(), 1u);

  feed(fleet, streams, cursor, 80);
  fleet.flush();
  fleet.stop();
  const BoardFleet::Stats stats = fleet.stats();
  EXPECT_GT(stats.totals.deferred, 0u);
  EXPECT_TRUE(stats.conservation_ok());
}

TEST(Fleet, PerBoardMetricsAndPrometheusSeries) {
  const nn::LstmConfig model = tiny_model();
  Rng rng(7);
  const nn::LstmParams params = nn::LstmParams::glorot(model, rng);
  const Streams streams = make_streams(12, 40, model.vocab_size);
  obs::registry().reset();
  Collector collector;
  BoardFleet fleet(model, params, tiny_fleet_config(2), collector.sink());
  feed(fleet, streams, 0, 40);
  fleet.flush();
  fleet.stop();

  const obs::MetricsSnapshot snapshot = obs::registry().snapshot();
  std::uint64_t verdicts_by_board = 0;
  bool saw_b0 = false;
  bool saw_b1 = false;
  for (const auto& [name, value] : snapshot.counters) {
    if (name == "fleet.b0.verdicts") {
      saw_b0 = true;
      verdicts_by_board += value;
    }
    if (name == "fleet.b1.verdicts") {
      saw_b1 = true;
      verdicts_by_board += value;
    }
  }
  EXPECT_TRUE(saw_b0);
  EXPECT_TRUE(saw_b1);
  EXPECT_EQ(verdicts_by_board, fleet.stats().totals.verdicts);

  // The per-board series surface as csdml_fleet_* in the exposition
  // format, plus the fleet-level gauges.
  const std::string text = obs::to_prometheus_text(snapshot);
  EXPECT_NE(text.find("csdml_fleet_b0_verdicts"), std::string::npos);
  EXPECT_NE(text.find("csdml_fleet_b1_verdicts"), std::string::npos);
  EXPECT_NE(text.find("csdml_fleet_boards_admitted"), std::string::npos);
  EXPECT_NE(text.find("csdml_fleet_weight_version"), std::string::npos);
}

TEST(Fleet, AlertLatchDrainsBoardAndHoldsReadmission) {
  // A latched critical alert naming a board must drain it at the next
  // health sweep even though its engine is healthy, and readmission must
  // wait for the alert's clear hysteresis — all on an injected clock with
  // manual collector ticks.
  obs::registry().reset();
  const nn::LstmConfig model = tiny_model();
  Rng rng(7);
  const nn::LstmParams params = nn::LstmParams::glorot(model, rng);

  std::int64_t sim_us = 0;
  FleetConfig config = tiny_fleet_config(2);
  config.telemetry.collector_thread = false;
  config.telemetry.clock = [&sim_us] { return sim_us; };
  // Fires whenever board 0 produced any verdict in the last tick — a
  // condition the test can assert and then deterministically un-assert
  // by simply not feeding the board.
  obs::AlertRule rule;
  rule.id = "b0.saturated";
  rule.series = "fleet.b0.verdicts.delta";
  rule.kind = obs::AlertRuleKind::AboveThreshold;
  rule.threshold = 0.5;
  rule.min_samples = 1;
  rule.fire_for = 1;
  rule.clear_for = 2;
  rule.severity = obs::AlertSeverity::Critical;
  rule.board = 0;
  config.telemetry.rules = {rule};

  Collector sink;
  BoardFleet fleet(model, params, config, sink.sink());
  obs::TelemetryCollector& collector = *fleet.telemetry();
  const obs::AlertEngine& alerts = *fleet.alert_engine();
  const auto tick = [&] {
    sim_us += 100'000;
    collector.tick();
  };

  detect::ProcessId victim = 0;
  for (detect::ProcessId pid = 1; pid <= 64 && victim == 0; ++pid) {
    if (fleet.board_of(pid) == 0) victim = pid;
  }
  ASSERT_NE(victim, detect::ProcessId{0});

  const std::vector<nn::TokenId> stream = random_stream(42, 60, 32);
  for (const nn::TokenId token : stream) fleet.ingest(victim, token);
  fleet.flush();
  tick();  // verdicts.delta > 0 -> latch (fire_for = 1)
  EXPECT_TRUE(alerts.board_alerted(0));
  EXPECT_FALSE(alerts.board_alerted(1));

  EXPECT_EQ(fleet.boards_admitted(), 2u);
  fleet.check_health();
  EXPECT_FALSE(fleet.board_healthy(0)) << "alert gate should have drained b0";
  EXPECT_TRUE(fleet.engine(0).healthy());
  EXPECT_EQ(fleet.boards_admitted(), 1u);
  EXPECT_GE(obs::registry().counter_value("fleet.alert_drains"), 1u);
  // Nothing was deferred — the board was alerted, not failing.
  EXPECT_EQ(fleet.stats().migrated_pending, 0u);

  // One quiet tick: delta back to 0, but clear_for = 2 keeps the latch —
  // the sweep must hold readmission, not bounce the board back in.
  tick();
  EXPECT_TRUE(alerts.board_alerted(0));
  fleet.check_health();
  EXPECT_FALSE(fleet.board_healthy(0));
  EXPECT_GE(obs::registry().counter_value("fleet.readmit_held_by_alert"), 1u);

  // Second quiet tick clears the alert; the next sweep probes and
  // readmits the board.
  tick();
  EXPECT_FALSE(alerts.board_alerted(0));
  fleet.check_health();
  EXPECT_TRUE(fleet.board_healthy(0));
  EXPECT_EQ(fleet.boards_admitted(), 2u);

  const BoardFleet::Stats stats = fleet.stats();
  EXPECT_GE(stats.failovers, 1u);
  EXPECT_GE(stats.readmissions, 1u);
  EXPECT_TRUE(stats.conservation_ok());
  fleet.stop();
}

TEST(Fleet, TelemetryCollectorSamplesBoardSeries) {
  // The fleet-owned collector derives the documented per-board series
  // from the registry; without explicit rules nothing ever alerts and
  // health sweeps behave exactly as an alert-free fleet (the golden
  // digests depend on this default).
  obs::registry().reset();
  const nn::LstmConfig model = tiny_model();
  Rng rng(7);
  const nn::LstmParams params = nn::LstmParams::glorot(model, rng);

  std::int64_t sim_us = 0;
  FleetConfig config = tiny_fleet_config(2);
  config.telemetry.collector_thread = false;
  config.telemetry.clock = [&sim_us] { return sim_us; };

  Collector sink;
  BoardFleet fleet(model, params, config, sink.sink());
  ASSERT_NE(fleet.telemetry(), nullptr);
  ASSERT_NE(fleet.alert_engine(), nullptr);

  const Streams streams = make_streams(4, 40, 32);
  feed(fleet, streams, 0, 40);
  fleet.flush();
  sim_us += 100'000;
  fleet.telemetry()->tick();

  const obs::TimeSeriesStore& store = fleet.telemetry()->store();
  for (std::size_t k = 0; k < 2; ++k) {
    const std::string prefix = "fleet.b" + std::to_string(k);
    EXPECT_TRUE(store.has(prefix + ".verdicts.delta")) << prefix;
    EXPECT_TRUE(store.has(prefix + ".throughput")) << prefix;
    EXPECT_TRUE(store.has(prefix + ".p99_us")) << prefix;
  }
  const double total_delta = store.last("fleet.b0.verdicts.delta") +
                             store.last("fleet.b1.verdicts.delta");
  EXPECT_DOUBLE_EQ(total_delta,
                   static_cast<double>(fleet.stats().totals.verdicts));

  fleet.check_health();  // no rules: the sweep must not drain anything
  EXPECT_EQ(fleet.boards_admitted(), 2u);
  EXPECT_EQ(fleet.alert_engine()->active_count(), 0u);
  fleet.stop();
}

// Batch scan: a storage node's boards as one fleet, scanned round-robin.

/// `count` random windows of `length` calls.
std::vector<nn::Sequence> scan_windows(std::size_t count, std::size_t length,
                                       std::int32_t vocab) {
  std::vector<nn::Sequence> windows;
  for (std::size_t i = 0; i < count; ++i) {
    windows.push_back(random_stream(500 + i, length, vocab));
  }
  return windows;
}

/// Labels a standalone engine assigns to each window, one at a time.
std::vector<int> reference_labels(const nn::LstmConfig& model,
                                  const nn::LstmParams& params,
                                  const std::vector<nn::Sequence>& windows) {
  csd::SmartSsd board{csd::SmartSsdConfig{}};
  xrt::Device device{board};
  kernels::CsdLstmEngine reference(device, model, params,
                                   tiny_fleet_config(1).engine);
  std::vector<int> labels;
  for (const nn::Sequence& window : windows) {
    labels.push_back(reference.infer(window).label);
  }
  return labels;
}

TEST(Node, ScanCoversEverySequenceOnce) {
  const nn::LstmConfig model = tiny_model();
  Rng rng(7);
  Collector collector;
  BoardFleet fleet(model, nn::LstmParams::glorot(model, rng),
                   tiny_fleet_config(4), collector.sink());
  const ScanReport report = fleet.scan(scan_windows(37, 20, model.vocab_size));
  EXPECT_EQ(report.scanned, 37u);
  EXPECT_EQ(report.labels.size(), 37u);
  ASSERT_EQ(report.per_board.size(), 4u);
  std::size_t per_board_total = 0;
  std::size_t flagged_total = 0;
  for (const BoardScan& board : report.per_board) {
    EXPECT_GE(board.scanned, 9u);  // round-robin: 37 = 10 + 9 + 9 + 9
    per_board_total += board.scanned;
    flagged_total += board.flagged;
  }
  EXPECT_EQ(per_board_total, 37u);
  EXPECT_EQ(flagged_total, report.flagged);
  // Scans bypass the streaming pipelines entirely.
  EXPECT_EQ(fleet.stats().totals.verdicts, 0u);
  fleet.stop();
}

TEST(Node, LabelsMatchSingleEngineResults) {
  const nn::LstmConfig model = tiny_model();
  Rng rng(7);
  const nn::LstmParams params = nn::LstmParams::glorot(model, rng);
  Collector collector;
  BoardFleet fleet(model, params, tiny_fleet_config(3), collector.sink());
  const std::vector<nn::Sequence> work = scan_windows(12, 20, model.vocab_size);
  EXPECT_EQ(fleet.scan(work).labels, reference_labels(model, params, work));
  fleet.stop();
}

TEST(Node, ScaleOutSpeedupApproachesDriveCount) {
  const nn::LstmConfig model = tiny_model();
  Rng rng(7);
  const nn::LstmParams params = nn::LstmParams::glorot(model, rng);
  Collector collector;
  BoardFleet four(model, params, tiny_fleet_config(4), collector.sink());
  const ScanReport report = four.scan(scan_windows(64, 20, model.vocab_size));
  EXPECT_GT(report.scale_out_speedup(), 3.5);
  EXPECT_LE(report.scale_out_speedup(), 4.01);
  EXPECT_GT(report.makespan.picos, 0);
  EXPECT_GT(report.serial_time.picos, report.makespan.picos);
  four.stop();
}

TEST(Node, SingleDriveNodeWorks) {
  const nn::LstmConfig model = tiny_model();
  Rng rng(7);
  const nn::LstmParams params = nn::LstmParams::glorot(model, rng);
  Collector collector;
  BoardFleet one(model, params, tiny_fleet_config(1), collector.sink());
  const ScanReport single = one.scan(scan_windows(5, 20, model.vocab_size));
  EXPECT_EQ(single.scanned, 5u);
  EXPECT_NEAR(single.scale_out_speedup(), 1.0, 1e-9);
  one.stop();
}

TEST(Node, FleetWeightUpdateKeepsVersionsInSync) {
  const nn::LstmConfig model = tiny_model();
  Rng rng(7);
  const nn::LstmParams params = nn::LstmParams::glorot(model, rng);
  Collector collector;
  BoardFleet fleet(model, params, tiny_fleet_config(3), collector.sink());
  Rng next_rng(99);
  const nn::LstmParams fresh = nn::LstmParams::glorot(model, next_rng);
  ASSERT_TRUE(fleet.update_weights(fresh).ok);
  EXPECT_EQ(fleet.weight_version(), 2u);

  // Every board serves the new model.
  const std::vector<nn::Sequence> work = scan_windows(9, 20, model.vocab_size);
  EXPECT_EQ(fleet.scan(work).labels, reference_labels(model, fresh, work));
  fleet.stop();
}

TEST(Node, DrainedBoardGetsNoWork) {
  const nn::LstmConfig model = tiny_model();
  Rng rng(7);
  const nn::LstmParams params = nn::LstmParams::glorot(model, rng);
  const Streams streams = make_streams(12, 120, model.vocab_size);
  obs::registry().reset();
  Collector collector;
  BoardFleet fleet(model, params, tiny_fleet_config(3), collector.sink());

  const std::size_t victim = fleet.board_of(1);
  fleet.kill_board(victim);
  feed_until_latched(fleet, streams, 0, victim);
  fleet.check_health();
  ASSERT_FALSE(fleet.board_healthy(victim));
  ASSERT_EQ(fleet.boards_admitted(), 2u);

  const std::vector<nn::Sequence> work = scan_windows(10, 20, model.vocab_size);
  const ScanReport report = fleet.scan(work);
  EXPECT_EQ(report.per_board[victim].scanned, 0u);
  EXPECT_EQ(report.per_board[victim].busy.picos, 0);
  EXPECT_EQ(report.scanned, work.size());
  EXPECT_EQ(report.labels, reference_labels(model, params, work));
  fleet.stop();
}

TEST(Node, Guards) {
  const nn::LstmConfig model = tiny_model();
  Rng rng(7);
  const nn::LstmParams params = nn::LstmParams::glorot(model, rng);
  Collector collector;
  EXPECT_THROW(BoardFleet(model, params, tiny_fleet_config(0), collector.sink()),
               PreconditionError);
  BoardFleet fleet(model, params, tiny_fleet_config(2), collector.sink());
  EXPECT_THROW(fleet.scan({}), PreconditionError);
  EXPECT_THROW(fleet.engine(2), PreconditionError);
  fleet.stop();
}

}  // namespace
}  // namespace csdml::serve
