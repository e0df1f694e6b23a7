// Serving-pipeline unit tests: the SPSC ring, async-vs-sync verdict
// parity, backpressure shedding, hot-swap batch boundaries, and the
// deferred-classification bookkeeping on forget().
#include "serve/serving.hpp"

#include <gtest/gtest.h>

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/spsc_ring.hpp"
#include "detect/detector.hpp"
#include "faults/fault_plan.hpp"
#include "kernels/engine.hpp"
#include "obs/metrics.hpp"
#include "window_oracle.hpp"

namespace csdml::serve {
namespace {

nn::LstmConfig tiny_model() {
  return nn::LstmConfig{.vocab_size = 32, .embed_dim = 4, .hidden_dim = 8};
}

using csdml::testing::LoggedVerdict;
using csdml::testing::random_stream;
using csdml::testing::sync_replay;
using csdml::testing::VerdictLog;

TEST(SpscRing, FifoAcrossWraparound) {
  SpscRing<int> ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  int out = 0;
  EXPECT_FALSE(ring.try_pop(out));
  // Several laps so head/tail wrap the mask repeatedly.
  int next_push = 0;
  int next_pop = 0;
  for (int lap = 0; lap < 5; ++lap) {
    while (ring.try_push(int{next_push})) ++next_push;
    EXPECT_EQ(ring.size(), ring.capacity());
    while (ring.try_pop(out)) {
      EXPECT_EQ(out, next_pop);
      ++next_pop;
    }
    EXPECT_TRUE(ring.empty());
  }
  EXPECT_EQ(next_push, next_pop);
  EXPECT_EQ(next_push, 5 * static_cast<int>(ring.capacity()));
}

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(1).capacity(), 1u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(5).capacity(), 8u);
  EXPECT_EQ(SpscRing<int>(64).capacity(), 64u);
}

TEST(SpscRing, RejectsWhenFullWithoutLosingItems) {
  SpscRing<int> ring(2);
  EXPECT_TRUE(ring.try_push(1));
  EXPECT_TRUE(ring.try_push(2));
  EXPECT_FALSE(ring.try_push(3));
  int out = 0;
  EXPECT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(ring.try_push(3));
  EXPECT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 2);
  EXPECT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 3);
}

/// A ring item that counts live objects and records each value's
/// destruction: moving a value out leaves -1 behind, which dies unrecorded.
struct Counted {
  static inline int live = 0;
  static inline std::map<int, int> deaths;
  int value = -1;
  Counted() { ++live; }
  explicit Counted(int v) : value(v) { ++live; }
  Counted(Counted&& other) noexcept : value(std::exchange(other.value, -1)) { ++live; }
  Counted& operator=(Counted&& other) noexcept {
    value = std::exchange(other.value, -1);
    return *this;
  }
  ~Counted() {
    --live;
    if (value >= 0) ++deaths[value];
  }
};

TEST(SpscRing, DestroysEveryPushedItemExactlyOnce) {
  Counted::live = 0;
  Counted::deaths.clear();
  int pushed = 0;
  {
    SpscRing<Counted> ring(8);
    EXPECT_EQ(Counted::live, 0) << "building a ring constructed items";
    int popped = 0;
    for (int lap = 0; lap < 3; ++lap) {  // the slots are reused across laps
      while (ring.size() < ring.capacity()) ASSERT_TRUE(ring.try_push(Counted(pushed++)));
      EXPECT_EQ(Counted::live, 8);
      Counted refused(1000 + lap);
      EXPECT_FALSE(ring.try_push(std::move(refused)));
      EXPECT_EQ(refused.value, 1000 + lap) << "a refused push moved its item";
      for (int k = 0; k < 5; ++k) {
        Counted out;
        ASSERT_TRUE(ring.try_pop(out));
        EXPECT_EQ(out.value, popped++);
      }
    }
    EXPECT_EQ(Counted::live, 3);  // still queued when the ring goes
  }
  EXPECT_EQ(Counted::live, 0);
  for (int v = 0; v < pushed; ++v) EXPECT_EQ(Counted::deaths[v], 1) << "item " << v;
  EXPECT_EQ(Counted::deaths.size(), static_cast<std::size_t>(pushed) + 3);
}

TEST(Serving, MatchesSynchronousReplayBitExactly) {
  const nn::LstmConfig model = tiny_model();
  Rng rng(11);
  const nn::LstmParams params = nn::LstmParams::glorot(model, rng);
  const detect::DetectorConfig detector{.window_length = 8, .hop = 3,
                                        .consecutive_alerts = 2};
  std::map<detect::ProcessId, std::vector<nn::TokenId>> streams;
  for (detect::ProcessId pid = 1; pid <= 4; ++pid) {
    streams[pid] = random_stream(100 + pid, 60, model.vocab_size);
  }

  VerdictLog oracle;
  {
    csd::SmartSsd board{csd::SmartSsdConfig{}};
    xrt::Device device{board};
    kernels::CsdLstmEngine engine(device, model, params, {});
    oracle = sync_replay(engine, detector, streams);
  }
  ASSERT_FALSE(oracle.empty());

  csd::SmartSsd board{csd::SmartSsdConfig{}};
  xrt::Device device{board};
  kernels::CsdLstmEngine engine(device, model, params, {});
  ServeConfig config;
  config.shards = 2;
  config.detector = detector;
  std::mutex log_mutex;
  VerdictLog observed;
  ServingPipeline pipeline(engine, config, [&](const Verdict& verdict) {
    std::lock_guard<std::mutex> lock(log_mutex);
    observed[verdict.process].push_back(
        {verdict.call_index, verdict.probability, verdict.alert});
  });
  // Two ingestion threads, two processes each; per-process call order is
  // preserved because one thread owns each process.
  std::thread first([&] {
    for (std::size_t i = 0; i < 60; ++i) {
      pipeline.ingest(1, streams[1][i]);
      pipeline.ingest(2, streams[2][i]);
    }
  });
  std::thread second([&] {
    for (std::size_t i = 0; i < 60; ++i) {
      pipeline.ingest(3, streams[3][i]);
      pipeline.ingest(4, streams[4][i]);
    }
  });
  first.join();
  second.join();
  pipeline.flush();
  pipeline.stop();

  const ServingPipeline::Stats stats = pipeline.stats();
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.deferred, 0u);
  EXPECT_EQ(stats.verdicts, stats.enqueued);

  // Bit-identical: the async batch path runs the same datapath.
  EXPECT_EQ(observed, oracle);
}

TEST(Serving, DebouncesAlertsLikeTheDetector) {
  const nn::LstmConfig model = tiny_model();
  Rng rng(5);
  const nn::LstmParams params = nn::LstmParams::glorot(model, rng);
  csd::SmartSsd board{csd::SmartSsdConfig{}};
  xrt::Device device{board};
  kernels::CsdLstmEngine engine(device, model, params, {});

  ServeConfig config;
  // threshold 0 → every verdict is over threshold, so alerting reduces to
  // pure debounce arithmetic: the first consecutive_alerts-1 verdicts are
  // suppressed, everything after fires.
  config.detector = detect::DetectorConfig{.window_length = 4, .hop = 1,
                                           .threshold = 0.0,
                                           .consecutive_alerts = 3};
  std::vector<LoggedVerdict> verdicts;
  ServingPipeline pipeline(engine, config, [&](const Verdict& verdict) {
    verdicts.push_back({verdict.call_index, verdict.probability,
                        verdict.alert});
  });
  const std::vector<nn::TokenId> stream =
      random_stream(3, 10, model.vocab_size);
  for (const nn::TokenId token : stream) pipeline.ingest(9, token);
  pipeline.flush();
  pipeline.stop();

  ASSERT_EQ(verdicts.size(), 7u);  // calls 4..10, hop 1
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    EXPECT_EQ(verdicts[i].call_index, i + 4);
    EXPECT_EQ(verdicts[i].alert, i >= 2) << "verdict " << i;
  }
  EXPECT_EQ(pipeline.stats().alerts, 5u);
}

TEST(Serving, ShedsToDeferralUnderBackpressureWithoutLoss) {
  const nn::LstmConfig model = tiny_model();
  Rng rng(7);
  const nn::LstmParams params = nn::LstmParams::glorot(model, rng);
  csd::SmartSsd board{csd::SmartSsdConfig{}};
  xrt::Device device{board};
  kernels::CsdLstmEngine engine(device, model, params, {});

  ServeConfig config;
  config.shards = 1;
  config.ring_capacity = 4;
  config.coalesce_max = 4;
  config.detector = detect::DetectorConfig{.window_length = 4, .hop = 1};

  // The sink blocks every delivery until released, so the coalescer wedges
  // on its first batch, the ring fills, and further due windows must shed.
  std::mutex sink_mutex;
  std::condition_variable sink_cv;
  bool released = false;
  std::size_t delivered = 0;
  ServingPipeline pipeline(engine, config, [&](const Verdict&) {
    std::unique_lock<std::mutex> lock(sink_mutex);
    sink_cv.wait(lock, [&] { return released; });
    ++delivered;
  });

  const std::vector<nn::TokenId> stream =
      random_stream(13, 100, model.vocab_size);
  for (const nn::TokenId token : stream) pipeline.ingest(5, token);

  {
    std::lock_guard<std::mutex> lock(sink_mutex);
    released = true;
  }
  sink_cv.notify_all();
  pipeline.flush();
  pipeline.stop();

  const ServingPipeline::Stats stats = pipeline.stats();
  // 97 due windows cannot fit a 4-deep ring while the sink is wedged.
  EXPECT_GT(stats.shed, 0u);
  EXPECT_EQ(stats.deferred, 0u);
  // The conservation law: everything enqueued produced a verdict.
  EXPECT_EQ(stats.verdicts, stats.enqueued);
  EXPECT_EQ(stats.enqueued + stats.shed, 97u);
  EXPECT_EQ(delivered, stats.verdicts);
}

TEST(Serving, BatchesWhatPiledUpDuringABatch) {
  const nn::LstmConfig model = tiny_model();
  Rng rng(41);
  const nn::LstmParams params = nn::LstmParams::glorot(model, rng);
  csd::SmartSsd board{csd::SmartSsdConfig{}};
  xrt::Device device{board};
  kernels::CsdLstmEngine engine(device, model, params, {});

  ServeConfig config;
  config.shards = 2;
  config.coalesce_max = 8;
  config.detector = detect::DetectorConfig{.window_length = 4, .hop = 4};

  // The sink wedges on the first verdict, so the engine stays busy with a
  // one-window batch while the other windows pile up in the rings.
  std::mutex sink_mutex;
  std::condition_variable sink_cv;
  bool in_flight = false;
  bool released = false;
  std::map<detect::ProcessId, double> probabilities;
  ServingPipeline pipeline(engine, config, [&](const Verdict& verdict) {
    std::unique_lock<std::mutex> lock(sink_mutex);
    in_flight = true;
    sink_cv.notify_all();
    sink_cv.wait(lock, [&] { return released; });
    probabilities[verdict.process] = verdict.probability;
  });

  // One due window per process: pid 1 first, then N = coalesce_max more.
  std::map<detect::ProcessId, std::vector<nn::TokenId>> windows;
  const detect::ProcessId last = 1 + config.coalesce_max;
  for (detect::ProcessId pid = 1; pid <= last; ++pid) {
    windows[pid] = random_stream(300 + pid, 4, model.vocab_size);
  }
  for (const nn::TokenId token : windows[1]) pipeline.ingest(1, token);
  {
    std::unique_lock<std::mutex> lock(sink_mutex);
    sink_cv.wait(lock, [&] { return in_flight; });
  }
  for (detect::ProcessId pid = 2; pid <= last; ++pid) {
    for (const nn::TokenId token : windows[pid]) pipeline.ingest(pid, token);
  }
  {
    std::lock_guard<std::mutex> lock(sink_mutex);
    released = true;
  }
  sink_cv.notify_all();
  pipeline.flush();
  pipeline.stop();

  // The lone first window went out alone; everything that queued behind
  // it went out together as soon as the engine was free.
  const ServingPipeline::Stats stats = pipeline.stats();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.verdicts, config.coalesce_max + 1);
  EXPECT_EQ(stats.shed, 0u);
  ASSERT_EQ(probabilities.size(), windows.size());
  for (const auto& [pid, window] : windows) {
    EXPECT_EQ(probabilities[pid], engine.infer(window).probability) << pid;
  }
}

TEST(Serving, DestructorFlushesFullRingAndInFlightBatch) {
  const nn::LstmConfig model = tiny_model();
  Rng rng(77);
  const nn::LstmParams params = nn::LstmParams::glorot(model, rng);
  csd::SmartSsd board{csd::SmartSsdConfig{}};
  xrt::Device device{board};
  kernels::CsdLstmEngine engine(device, model, params, {});

  ServeConfig config;
  config.shards = 1;
  config.ring_capacity = 4;
  config.coalesce_max = 2;
  config.detector = detect::DetectorConfig{.window_length = 4, .hop = 1};

  // Wedge the coalescer mid-batch: the sink blocks every delivery until
  // released, so by the time we tear the pipeline down there is an
  // in-flight batch at the sink AND a full ring of undelivered requests
  // behind it. The destructor's stop() must flush all of them.
  std::mutex sink_mutex;
  std::condition_variable sink_cv;
  bool in_flight = false;
  bool released = false;
  std::size_t delivered = 0;
  auto pipeline = std::make_unique<ServingPipeline>(
      engine, config, [&](const Verdict&) {
        std::unique_lock<std::mutex> lock(sink_mutex);
        in_flight = true;
        sink_cv.notify_all();
        sink_cv.wait(lock, [&] { return released; });
        ++delivered;
      });

  const std::vector<nn::TokenId> stream =
      random_stream(23, 64, model.vocab_size);
  for (const nn::TokenId token : stream) pipeline->ingest(9, token);
  {
    std::unique_lock<std::mutex> lock(sink_mutex);
    sink_cv.wait(lock, [&] { return in_flight; });
  }

  // Ingestion is done, so `enqueued` is final; the sink is wedged, so the
  // ring behind the in-flight batch is still full (the shed counter proves
  // it overflowed).
  const ServingPipeline::Stats pre = pipeline->stats();
  EXPECT_GT(pre.shed, 0u);
  EXPECT_GT(pre.enqueued, pre.verdicts);

  // Begin destruction while the batch is still stuck at the sink, then
  // release. stop() must drain the ring and deliver every enqueued
  // request rather than dropping the backlog.
  std::thread destroyer([&] { pipeline.reset(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  {
    std::lock_guard<std::mutex> lock(sink_mutex);
    released = true;
  }
  sink_cv.notify_all();
  destroyer.join();

  EXPECT_EQ(delivered, pre.enqueued);
}

TEST(Serving, HotSwapAppliesAtBatchBoundary) {
  const nn::LstmConfig model = tiny_model();
  Rng rng(17);
  const nn::LstmParams params_a = nn::LstmParams::glorot(model, rng);
  const nn::LstmParams params_b = nn::LstmParams::glorot(model, rng);
  const kernels::FixedDatapath oracle_a(model, params_a);
  const kernels::FixedDatapath oracle_b(model, params_b);

  csd::SmartSsd board{csd::SmartSsdConfig{}};
  xrt::Device device{board};
  kernels::CsdLstmEngine engine(device, model, params_a, {});

  ServeConfig config;
  config.detector = detect::DetectorConfig{.window_length = 4, .hop = 4};
  std::vector<double> probabilities;
  ServingPipeline pipeline(engine, config, [&](const Verdict& verdict) {
    probabilities.push_back(verdict.probability);
  });

  const std::vector<nn::TokenId> stream =
      random_stream(23, 12, model.vocab_size);
  for (std::size_t i = 0; i < 8; ++i) pipeline.ingest(2, stream[i]);
  pipeline.flush();  // windows [0,4) and [4,8) classified under params_a
  engine.update_weights(params_b);
  for (std::size_t i = 8; i < 12; ++i) pipeline.ingest(2, stream[i]);
  pipeline.flush();  // window [8,12) classified under params_b
  pipeline.stop();

  ASSERT_EQ(probabilities.size(), 3u);
  const nn::Sequence w1(stream.begin(), stream.begin() + 4);
  const nn::Sequence w2(stream.begin() + 4, stream.begin() + 8);
  const nn::Sequence w3(stream.begin() + 8, stream.end());
  EXPECT_EQ(probabilities[0], oracle_a.infer(w1));
  EXPECT_EQ(probabilities[1], oracle_a.infer(w2));
  EXPECT_EQ(probabilities[2], oracle_b.infer(w3));
}

TEST(Serving, ForgetIsANoOpForUnknownProcesses) {
  const nn::LstmConfig model = tiny_model();
  Rng rng(29);
  const nn::LstmParams params = nn::LstmParams::glorot(model, rng);
  csd::SmartSsd board{csd::SmartSsdConfig{}};
  xrt::Device device{board};
  kernels::CsdLstmEngine engine(device, model, params, {});
  ServeConfig config;
  config.detector = detect::DetectorConfig{.window_length = 4, .hop = 1};
  ServingPipeline pipeline(engine, config, [](const Verdict&) {});
  const std::uint64_t unknown_before =
      obs::registry().counter_value("serve.forget_unknown");
  pipeline.forget(404);
  EXPECT_EQ(obs::registry().counter_value("serve.forget_unknown"),
            unknown_before + 1);
  pipeline.stop();
}

TEST(Serving, StaleVerdictDoesNotSettleNewerShed) {
  const nn::LstmConfig model = tiny_model();
  Rng rng(53);
  const nn::LstmParams params = nn::LstmParams::glorot(model, rng);
  csd::SmartSsd board{csd::SmartSsdConfig{}};
  xrt::Device device{board};
  kernels::CsdLstmEngine engine(device, model, params, {});

  ServeConfig config;
  config.shards = 1;
  config.ring_capacity = 1;
  config.coalesce_max = 1;
  config.detector = detect::DetectorConfig{.window_length = 4, .hop = 4};
  config.metrics_prefix = "stale";
  // The sink wedges on the first verdict: window 4 is in flight, window 8
  // fills the one-slot ring, and window 12 must shed.
  std::mutex sink_mutex;
  std::condition_variable sink_cv;
  bool in_flight = false;
  bool released = false;
  ServingPipeline pipeline(engine, config, [&](const Verdict&) {
    std::unique_lock<std::mutex> lock(sink_mutex);
    in_flight = true;
    sink_cv.notify_all();
    sink_cv.wait(lock, [&] { return released; });
  });
  const std::vector<nn::TokenId> stream = random_stream(59, 12, model.vocab_size);
  for (std::size_t i = 0; i < 4; ++i) pipeline.ingest(3, stream[i]);
  {
    std::unique_lock<std::mutex> lock(sink_mutex);
    sink_cv.wait(lock, [&] { return in_flight; });
  }
  for (std::size_t i = 4; i < 12; ++i) pipeline.ingest(3, stream[i]);
  EXPECT_EQ(pipeline.stats().shed, 1u);
  {
    std::lock_guard<std::mutex> lock(sink_mutex);
    released = true;
  }
  sink_cv.notify_all();
  pipeline.flush();
  EXPECT_EQ(pipeline.stats().verdicts, 2u);

  // Both verdicts were for windows enqueued before the shed: the
  // classification of call 12 is still owed when the process exits.
  pipeline.forget(3);
  EXPECT_EQ(obs::registry().counter_value("stale.forget_pending"), 1u);
  pipeline.stop();
}

TEST(Detector, ForgetCountsPendingDeferral) {
  const nn::LstmConfig model = tiny_model();
  Rng rng(41);
  const nn::LstmParams params = nn::LstmParams::glorot(model, rng);

  // Every launch fails, no fallback: the due classification defers, and
  // the process then dies with the deferral still owed.
  faults::FaultConfig fault_config;
  fault_config.seed = 1;
  fault_config.xrt_launch_failure_probability = 1.0;
  faults::FaultPlan plan(fault_config);
  csd::SmartSsd board{csd::SmartSsdConfig{}};
  board.set_fault_plan(&plan);
  xrt::Device device{board};
  kernels::CsdLstmEngine engine(device, model, params, {});
  detect::StreamingDetector detector(
      engine, detect::DetectorConfig{.window_length = 4, .hop = 4});

  const std::vector<nn::TokenId> stream =
      random_stream(43, 4, model.vocab_size);
  for (const nn::TokenId token : stream) {
    EXPECT_FALSE(detector.on_api_call(6, token).has_value());
  }
  EXPECT_EQ(detector.degraded_classifications(), 1u);

  const std::uint64_t pending_before =
      obs::registry().counter_value("detector.forget_pending");
  detector.forget(6);
  EXPECT_EQ(obs::registry().counter_value("detector.forget_pending"),
            pending_before + 1);

  // A process whose classification ran (healthy engine) must not count.
  csd::SmartSsd clean_board{csd::SmartSsdConfig{}};
  xrt::Device clean_device{clean_board};
  kernels::CsdLstmEngine clean_engine(clean_device, model, params, {});
  detect::StreamingDetector clean_detector(
      clean_engine, detect::DetectorConfig{.window_length = 4, .hop = 4});
  for (const nn::TokenId token : stream) clean_detector.on_api_call(8, token);
  EXPECT_EQ(clean_detector.classifications_run(), 1u);
  const std::uint64_t pending_mid =
      obs::registry().counter_value("detector.forget_pending");
  clean_detector.forget(8);
  EXPECT_EQ(obs::registry().counter_value("detector.forget_pending"),
            pending_mid);
}

}  // namespace
}  // namespace csdml::serve
