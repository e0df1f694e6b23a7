// Concurrency stress tests, written to run under -DCSDML_SANITIZE=thread.
//
// TSan only reports races the execution actually exercises, so these tests
// hammer the shared structures from multiple threads: the ThreadPool's
// work distribution, the metrics registry, and — the regression that
// motivated the suite — infer_batch racing update_weights hot swaps (the
// engine adopts a version, pointer and image DMA, in one critical section
// under its device lock, so a batch must never see a torn or half-landed
// version) — and the fleet's rollouts, whose one staged weight
// version is adopted by every board while ingest continues, and a rollout
// that drains a dead canary while ingest holds the routing lock. Kept
// deliberately small so the TSan job stays fast.
#include "kernels/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "baselines/host_baseline.hpp"
#include "common/thread_pool.hpp"
#include "faults/fault_plan.hpp"
#include "obs/metrics.hpp"
#include "serve/fleet.hpp"
#include "serve/serving.hpp"
#include "window_oracle.hpp"

namespace csdml::kernels {
namespace {

TEST(StressThreads, ThreadPoolDistributesEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kIndices = 10'000;
  for (int round = 0; round < 20; ++round) {
    std::vector<std::atomic<std::uint32_t>> hits(kIndices);
    pool.parallel_for(kIndices, [&](std::size_t, std::size_t index) {
      hits[index].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kIndices; ++i) {
      ASSERT_EQ(hits[i].load(std::memory_order_relaxed), 1u) << "index " << i;
    }
  }
}

TEST(StressThreads, MetricsRegistryHandlesConcurrentWriters) {
  obs::MetricsRegistry& metrics = obs::registry();
  const std::uint64_t before = metrics.counter_value("stress.counter");
  constexpr int kThreads = 8;
  constexpr int kIncrements = 2'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&metrics] {
      for (int i = 0; i < kIncrements; ++i) {
        metrics.add_counter("stress.counter");
        metrics.observe("stress.histogram", static_cast<double>(i));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(metrics.counter_value("stress.counter") - before,
            static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST(StressThreads, InferBatchRacesUpdateWeightsSafely) {
  // One serving thread (infer_batch itself fans out over the engine's
  // internal pool; concurrent *external* infer callers are not part of the
  // engine's contract because the simulated device clock is shared) racing
  // one hot-swap thread. Pre-TSan this raced on the live datapath swap.
  nn::LstmConfig model_config{.vocab_size = 32, .embed_dim = 4, .hidden_dim = 8};
  Rng rng(21);
  const nn::LstmParams params_a = nn::LstmParams::glorot(model_config, rng);
  const nn::LstmParams params_b = nn::LstmParams::glorot(model_config, rng);

  csd::SmartSsd board{csd::SmartSsdConfig{}};
  xrt::Device device{board};
  CsdLstmEngine engine(device, model_config, params_a,
                       EngineConfig{.batch_threads = 4});

  std::vector<nn::Sequence> batch;
  Rng token_rng(5);
  for (int s = 0; s < 16; ++s) {
    nn::Sequence sequence;
    for (int i = 0; i < 24; ++i) {
      sequence.push_back(static_cast<nn::TokenId>(
          token_rng.uniform_int(0, model_config.vocab_size - 1)));
    }
    batch.push_back(std::move(sequence));
  }

  const FixedDatapath oracle_a(model_config, params_a);
  const FixedDatapath oracle_b(model_config, params_b);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> swaps{0};
  std::thread swapper([&] {
    bool use_b = true;
    while (!stop.load(std::memory_order_relaxed)) {
      engine.update_weights(use_b ? params_b : params_a);
      use_b = !use_b;
      swaps.fetch_add(1, std::memory_order_relaxed);
    }
  });

  std::uint64_t checked = 0;
  for (int round = 0; round < 60; ++round) {
    const CsdLstmEngine::BatchResult result = engine.infer_batch(batch);
    ASSERT_EQ(result.probabilities.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      // Every result must come from one coherent weight set — never a
      // half-swapped datapath.
      const double p = result.probabilities[i];
      ASSERT_TRUE(p == oracle_a.infer(batch[i]) || p == oracle_b.infer(batch[i]))
          << "torn datapath on sequence " << i;
      ++checked;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  swapper.join();
  EXPECT_EQ(checked, 60u * batch.size());
  EXPECT_GT(swaps.load(), 0u);
}

TEST(StressThreads, ServingParityUnderEightThreadIngest) {
  // Eight ingestion threads, one process per thread, racing through the
  // sharded rings into the single coalescer. Per-process verdicts must be
  // bit-identical to a single-threaded synchronous replay.
  nn::LstmConfig model_config{.vocab_size = 32, .embed_dim = 4, .hidden_dim = 8};
  Rng rng(31);
  const nn::LstmParams params = nn::LstmParams::glorot(model_config, rng);
  const detect::DetectorConfig detector{.window_length = 16, .hop = 8,
                                        .consecutive_alerts = 2};
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kCalls = 200;

  csdml::testing::Streams streams;
  for (std::size_t t = 0; t < kThreads; ++t) {
    streams[t + 1] =
        csdml::testing::random_stream(100 + t, kCalls, model_config.vocab_size);
  }

  csdml::testing::VerdictLog oracle;
  {
    csd::SmartSsd board{csd::SmartSsdConfig{}};
    xrt::Device device{board};
    CsdLstmEngine engine(device, model_config, params, {});
    oracle = csdml::testing::sync_replay(engine, detector, streams);
  }

  csd::SmartSsd board{csd::SmartSsdConfig{}};
  xrt::Device device{board};
  CsdLstmEngine engine(device, model_config, params, {});
  serve::ServeConfig config;
  config.shards = 4;
  config.ring_capacity = 1024;
  config.detector = detector;
  std::mutex log_mutex;
  csdml::testing::VerdictLog observed;
  serve::ServingPipeline pipeline(
      engine, config, [&](const serve::Verdict& verdict) {
        std::lock_guard<std::mutex> lock(log_mutex);
        observed[verdict.process].push_back(
            {verdict.call_index, verdict.probability, verdict.alert});
      });

  std::vector<std::thread> feeders;
  feeders.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    feeders.emplace_back([&pipeline, &streams, t] {
      const detect::ProcessId pid = t + 1;
      for (const nn::TokenId token : streams[pid]) {
        pipeline.ingest(pid, token);
      }
    });
  }
  for (std::thread& feeder : feeders) feeder.join();
  pipeline.flush();
  pipeline.stop();

  const serve::ServingPipeline::Stats stats = pipeline.stats();
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.verdicts, stats.enqueued);
  EXPECT_EQ(observed, oracle);
}

TEST(StressThreads, ServingIngestRacesHotSwapsAndFaults) {
  // The full gauntlet: four ingestion threads, a weight-swapper thread
  // flipping between two parameter sets, and a fault plan injecting launch
  // failures that latch the engine unhealthy until a recovery probe
  // succeeds. A host fallback (pinned to params_a) keeps classifications
  // flowing while degraded. Every verdict must be explainable by exactly
  // one coherent model: params_a, params_b, or the fallback.
  nn::LstmConfig model_config{.vocab_size = 32, .embed_dim = 4, .hidden_dim = 8};
  Rng rng(47);
  const nn::LstmParams params_a = nn::LstmParams::glorot(model_config, rng);
  const nn::LstmParams params_b = nn::LstmParams::glorot(model_config, rng);
  const FixedDatapath oracle_a(model_config, params_a);
  const FixedDatapath oracle_b(model_config, params_b);
  const baselines::HostBaseline fallback(
      "stress-fallback", model_config, params_a,
      baselines::HostLatencyConfig::xeon_cpu());

  faults::FaultConfig fault_config;
  fault_config.seed = 9;
  fault_config.xrt_launch_failure_probability = 0.02;
  faults::FaultPlan plan(fault_config);
  csd::SmartSsd board{csd::SmartSsdConfig{}};
  board.set_fault_plan(&plan);
  xrt::Device device{board};
  CsdLstmEngine engine(device, model_config, params_a, {});
  engine.set_fallback(&fallback);

  const detect::DetectorConfig detector{.window_length = 16, .hop = 8};
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kCalls = 160;
  csdml::testing::Streams streams;
  for (std::size_t t = 0; t < kThreads; ++t) {
    streams[t + 1] =
        csdml::testing::random_stream(200 + t, kCalls, model_config.vocab_size);
  }

  serve::ServeConfig config;
  config.shards = 2;
  config.ring_capacity = 1024;
  config.detector = detector;
  struct Seen {
    detect::ProcessId process;
    std::uint64_t call_index;
    double probability;
  };
  std::mutex log_mutex;
  std::vector<Seen> seen;
  serve::ServingPipeline pipeline(
      engine, config, [&](const serve::Verdict& verdict) {
        std::lock_guard<std::mutex> lock(log_mutex);
        seen.push_back(
            {verdict.process, verdict.call_index, verdict.probability});
      });

  std::atomic<bool> stop_swapper{false};
  std::thread swapper([&] {
    bool use_b = true;
    while (!stop_swapper.load(std::memory_order_relaxed)) {
      engine.update_weights(use_b ? params_b : params_a);
      use_b = !use_b;
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> feeders;
  feeders.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    feeders.emplace_back([&pipeline, &streams, t] {
      const detect::ProcessId pid = t + 1;
      for (const nn::TokenId token : streams[pid]) {
        pipeline.ingest(pid, token);
      }
    });
  }
  for (std::thread& feeder : feeders) feeder.join();
  pipeline.flush();
  stop_swapper.store(true, std::memory_order_relaxed);
  swapper.join();
  pipeline.stop();

  const serve::ServingPipeline::Stats stats = pipeline.stats();
  // With a fallback wired in, a degraded engine still classifies: nothing
  // defers, nothing is lost.
  EXPECT_EQ(stats.deferred, 0u);
  EXPECT_EQ(stats.verdicts, stats.enqueued);
  EXPECT_GT(stats.verdicts, 0u);

  for (const Seen& verdict : seen) {
    const std::vector<nn::TokenId>& stream = streams[verdict.process];
    ASSERT_GE(verdict.call_index, detector.window_length);
    const nn::Sequence window(
        stream.begin() +
            static_cast<std::ptrdiff_t>(verdict.call_index -
                                        detector.window_length),
        stream.begin() + static_cast<std::ptrdiff_t>(verdict.call_index));
    const double p = verdict.probability;
    ASSERT_TRUE(p == oracle_a.infer(window) || p == oracle_b.infer(window) ||
                p == fallback.infer(window))
        << "torn or unexplained verdict for pid " << verdict.process
        << " at call " << verdict.call_index;
  }
}

TEST(StressThreads, ShutdownRacesIngestBacklogWithoutDroppingWork) {
  // Repeated teardown drills: four ingestion threads slam tiny rings while
  // a deliberately slow sink keeps a backlog queued, then the pipeline is
  // destroyed with requests still in the rings and a batch in flight. The
  // destructor's stop() must deliver every enqueued request — shutdown
  // ordering may reorder nothing into a drop. Rounds vary the ring
  // occupancy at destructor entry so TSan sees many interleavings.
  nn::LstmConfig model_config{.vocab_size = 32, .embed_dim = 4, .hidden_dim = 8};
  Rng rng(59);
  const nn::LstmParams params = nn::LstmParams::glorot(model_config, rng);
  csd::SmartSsd board{csd::SmartSsdConfig{}};
  xrt::Device device{board};
  CsdLstmEngine engine(device, model_config, params, {});

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kCalls = 96;
  constexpr int kRounds = 12;
  csdml::testing::Streams streams;
  for (std::size_t t = 0; t < kThreads; ++t) {
    streams[t + 1] =
        csdml::testing::random_stream(300 + t, kCalls, model_config.vocab_size);
  }

  int rounds_with_backlog = 0;
  for (int round = 0; round < kRounds; ++round) {
    serve::ServeConfig config;
    config.shards = 2;
    config.ring_capacity = 8;
    config.coalesce_max = 4;
    config.detector = detect::DetectorConfig{.window_length = 8, .hop = 1};

    std::atomic<std::uint64_t> delivered{0};
    auto pipeline = std::make_unique<serve::ServingPipeline>(
        engine, config, [&](const serve::Verdict&) {
          delivered.fetch_add(1, std::memory_order_relaxed);
          // Slow sink: the coalescer lags ingestion, so rings stay loaded.
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        });

    std::vector<std::thread> feeders;
    feeders.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      feeders.emplace_back([&pipeline, &streams, t] {
        const detect::ProcessId pid = t + 1;
        for (const nn::TokenId token : streams[pid]) {
          pipeline->ingest(pid, token);
        }
      });
    }
    for (std::thread& feeder : feeders) feeder.join();

    // No flush, no explicit stop: tear down with whatever backlog the
    // slow sink left in the rings. `enqueued` is final once the feeders
    // join, so the destructor must bring `delivered` up to it.
    const serve::ServingPipeline::Stats pre = pipeline->stats();
    if (pre.enqueued > delivered.load(std::memory_order_relaxed)) {
      ++rounds_with_backlog;
    }
    pipeline.reset();
    EXPECT_EQ(delivered.load(std::memory_order_relaxed), pre.enqueued)
        << "round " << round << " dropped backlog at shutdown";
  }
  // The slow sink guarantees at least some rounds actually destroyed a
  // pipeline with undelivered work — otherwise this test proves nothing.
  EXPECT_GT(rounds_with_backlog, 0);
}

TEST(StressThreads, FleetRolloutRacesIngestAcrossBoards) {
  // Four ingestion threads stream into a 3-board fleet while a control
  // thread rolls out new weight versions (each staged once and adopted by
  // every admitted board) and kills, drains, revives and readmits one
  // board, whose catch-up adoption of the fleet-current version also races
  // ingest. After the flush both conservation laws hold, every verdict is
  // explained by one coherent version, and every board serves the newest
  // version bit-exactly against a standalone engine.
  nn::LstmConfig model_config{.vocab_size = 32, .embed_dim = 4, .hidden_dim = 8};
  Rng rng(61);
  constexpr std::size_t kVersions = 4;
  std::vector<nn::LstmParams> versions;
  std::vector<FixedDatapath> oracles;
  oracles.reserve(kVersions);
  for (std::size_t v = 0; v < kVersions; ++v) {
    versions.push_back(nn::LstmParams::glorot(model_config, rng));
    oracles.emplace_back(model_config, versions.back());
  }

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPidsPerThread = 2;
  constexpr std::size_t kMaxCalls = 1000;  ///< race phase ends here at the latest
  constexpr std::size_t kTailCalls = 32;   ///< fed after the control thread is done
  const detect::DetectorConfig detector{.window_length = 16, .hop = 4};
  csdml::testing::Streams streams;
  for (std::size_t p = 1; p <= kThreads * kPidsPerThread; ++p) {
    streams[p] = csdml::testing::random_stream(400 + p, kMaxCalls + kTailCalls,
                                               model_config.vocab_size);
  }

  serve::FleetConfig config;
  config.boards = 3;
  config.health_check_interval = 0;  // the control thread sweeps
  config.serve.shards = 2;
  // Room for every window a shard can see, so nothing sheds and every
  // carried deferral is re-served within the tail.
  config.serve.ring_capacity = 4096;
  config.serve.detector = detector;
  struct Seen {
    detect::ProcessId process;
    std::uint64_t call_index;
    double probability;
  };
  std::mutex log_mutex;
  std::vector<Seen> seen;
  serve::BoardFleet fleet(model_config, versions[0], config,
                          [&](const serve::Verdict& verdict) {
                            std::lock_guard<std::mutex> lock(log_mutex);
                            seen.push_back({verdict.process, verdict.call_index,
                                            verdict.probability});
                          });

  std::atomic<bool> control_done{false};
  std::atomic<std::size_t> race_calls{0};
  // Lets ingest advance between control steps, so each step races live
  // traffic on warm windows (bounded by the streams running out).
  const auto await_ingest = [&](std::size_t calls) {
    const std::size_t target =
        std::min(race_calls.load(std::memory_order_acquire) + calls,
                 kThreads * kMaxCalls);
    while (race_calls.load(std::memory_order_acquire) < target) {
      std::this_thread::yield();
    }
  };
  std::thread control([&] {
    constexpr std::size_t kVictim = 1;  // never the canary (board 0)
    await_ingest(kThreads * detector.window_length * 4);
    EXPECT_TRUE(fleet.update_weights(versions[1]).ok);
    await_ingest(kThreads * 16);
    fleet.kill_board(kVictim);
    // Latch the victim now rather than waiting for its next due batch.
    try {
      const std::vector<nn::TokenId>& stream = streams.begin()->second;
      (void)fleet.engine(kVictim).infer(nn::TokenSpan(stream.data(), 16));
    } catch (const faults::CsdUnavailableError&) {
    }
    await_ingest(kThreads * 16);
    fleet.check_health();
    EXPECT_FALSE(fleet.board_healthy(kVictim));
    await_ingest(kThreads * 16);
    EXPECT_TRUE(fleet.update_weights(versions[2]).ok);  // the victim misses it
    await_ingest(kThreads * 16);
    fleet.revive_board(kVictim);
    fleet.check_health();
    EXPECT_TRUE(fleet.board_healthy(kVictim));
    await_ingest(kThreads * 16);
    EXPECT_TRUE(fleet.update_weights(versions[3]).ok);
    control_done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> feeders;
  feeders.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    feeders.emplace_back([&, t] {
      const auto feed = [&](std::size_t call) {
        for (std::size_t p = 0; p < kPidsPerThread; ++p) {
          const detect::ProcessId pid = t * kPidsPerThread + p + 1;
          fleet.ingest(pid, streams.at(pid)[call]);
        }
      };
      std::size_t call = 0;
      while (call < kMaxCalls && !control_done.load(std::memory_order_acquire)) {
        feed(call++);
        race_calls.fetch_add(1, std::memory_order_acq_rel);
        std::this_thread::yield();
      }
      while (!control_done.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      for (const std::size_t end = call + kTailCalls; call < end; ++call) feed(call);
    });
  }
  for (std::thread& feeder : feeders) feeder.join();
  control.join();
  fleet.flush();
  fleet.stop();

  const serve::BoardFleet::Stats stats = fleet.stats();
  EXPECT_TRUE(stats.conservation_ok());
  EXPECT_TRUE(stats.failover_resolved());
  EXPECT_EQ(stats.failovers, 1u);
  EXPECT_EQ(stats.readmissions, 1u);
  EXPECT_EQ(stats.weight_version, kVersions);
  EXPECT_GT(stats.totals.verdicts, 0u);

  for (const Seen& verdict : seen) {
    const std::vector<nn::TokenId>& stream = streams.at(verdict.process);
    ASSERT_GE(verdict.call_index, detector.window_length);
    const nn::TokenSpan window(
        stream.data() + (verdict.call_index - detector.window_length),
        detector.window_length);
    bool explained = false;
    for (const FixedDatapath& oracle : oracles) {
      explained = explained || verdict.probability == oracle.infer(window);
    }
    ASSERT_TRUE(explained) << "torn or unexplained verdict for pid "
                           << verdict.process << " at call "
                           << verdict.call_index;
  }

  csd::SmartSsd board{csd::SmartSsdConfig{}};
  xrt::Device device{board};
  CsdLstmEngine reference(device, model_config, versions.back(), config.engine);
  for (std::size_t k = 0; k < fleet.board_count(); ++k) {
    ASSERT_TRUE(fleet.board_healthy(k)) << "board " << k;
    EXPECT_EQ(fleet.engine(k).weight_updates(), kVersions) << "board " << k;
    for (const auto& [pid, stream] : streams) {
      const nn::TokenSpan window(stream.data(), detector.window_length);
      EXPECT_EQ(fleet.engine(k).infer(window).probability,
                reference.infer(window).probability)
          << "board " << k << " pid " << pid;
    }
  }
}

TEST(StressThreads, FleetDrainsDeadIdleCanaryUnderIngest) {
  // Four ingestion threads stream into boards 1 and 2 of a 3-board fleet
  // while board 0, the canary, sits idle. A control thread kills it and
  // rolls out: the golden batch finds it dead, the rollout drains it
  // (a failover under the rollout lock, racing ingest on the route lock)
  // and board 1 stands in. Revived and readmitted, board 0 serves the
  // next rollout too.
  nn::LstmConfig model_config{.vocab_size = 32, .embed_dim = 4, .hidden_dim = 8};
  Rng rng(67);
  std::vector<nn::LstmParams> versions;
  for (int v = 0; v < 3; ++v) {
    versions.push_back(nn::LstmParams::glorot(model_config, rng));
  }

  serve::FleetConfig config;
  config.boards = 3;
  config.health_check_interval = 0;  // the control thread sweeps
  config.serve.ring_capacity = 4096;
  config.serve.detector = detect::DetectorConfig{.window_length = 16, .hop = 4};
  serve::BoardFleet fleet(model_config, versions[0], config,
                          [](const serve::Verdict&) {});

  // Pids the ring places off board 0, so nothing but the rollout ever
  // touches it.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPidsPerThread = 2;
  constexpr std::size_t kCalls = 400;
  std::vector<detect::ProcessId> pids;
  for (detect::ProcessId pid = 1; pids.size() < kThreads * kPidsPerThread; ++pid) {
    if (fleet.board_of(pid) != 0) pids.push_back(pid);
  }
  csdml::testing::Streams streams;
  for (const detect::ProcessId pid : pids) {
    streams[pid] = csdml::testing::random_stream(500 + pid, kCalls,
                                                 model_config.vocab_size);
  }

  std::atomic<std::size_t> calls_done{0};
  const auto await_ingest = [&](std::size_t calls) {
    const std::size_t target =
        std::min(calls_done.load(std::memory_order_acquire) + calls,
                 kThreads * kCalls);
    while (calls_done.load(std::memory_order_acquire) < target) {
      std::this_thread::yield();
    }
  };
  std::thread control([&] {
    await_ingest(kThreads * 32);
    fleet.kill_board(0);
    const serve::RolloutReport drained = fleet.update_weights(versions[1]);
    EXPECT_TRUE(drained.ok);
    EXPECT_FALSE(fleet.board_healthy(0));
    await_ingest(kThreads * 16);
    fleet.revive_board(0);
    fleet.check_health();
    EXPECT_TRUE(fleet.board_healthy(0));
    EXPECT_TRUE(fleet.update_weights(versions[2]).ok);
  });
  std::vector<std::thread> feeders;
  feeders.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    feeders.emplace_back([&, t] {
      for (std::size_t call = 0; call < kCalls; ++call) {
        for (std::size_t p = 0; p < kPidsPerThread; ++p) {
          const detect::ProcessId pid = pids[t * kPidsPerThread + p];
          fleet.ingest(pid, streams.at(pid)[call]);
        }
        calls_done.fetch_add(1, std::memory_order_acq_rel);
        std::this_thread::yield();
      }
    });
  }
  for (std::thread& feeder : feeders) feeder.join();
  control.join();
  fleet.flush();
  fleet.stop();

  const serve::BoardFleet::Stats stats = fleet.stats();
  EXPECT_TRUE(stats.conservation_ok());
  EXPECT_TRUE(stats.failover_resolved());
  EXPECT_EQ(stats.failovers, 1u);
  EXPECT_EQ(stats.migrations, 0u);
  EXPECT_EQ(stats.readmissions, 1u);
  EXPECT_EQ(stats.weight_version, 3u);
  EXPECT_EQ(stats.totals.deferred, 0u);

  const FixedDatapath reference(model_config, versions.back());
  for (std::size_t k = 0; k < fleet.board_count(); ++k) {
    ASSERT_TRUE(fleet.board_healthy(k)) << "board " << k;
    for (const auto& [pid, stream] : streams) {
      const nn::TokenSpan window(stream.data(), 16);
      EXPECT_EQ(fleet.engine(k).infer(window).probability, reference.infer(window))
          << "board " << k << " pid " << pid;
    }
  }
}

}  // namespace
}  // namespace csdml::kernels
