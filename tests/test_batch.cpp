// Batch-mode tests: the engine's streamed batch classification and the
// baselines' batch-throughput model.
#include <gtest/gtest.h>

#include "baselines/host_baseline.hpp"
#include "kernels/engine.hpp"

namespace csdml {
namespace {

struct BatchFixture {
  nn::LstmConfig config;
  nn::LstmParams params;
  csd::SmartSsd board{csd::SmartSsdConfig{}};
  xrt::Device device{board};

  BatchFixture() {
    Rng rng(81);
    params = nn::LstmParams::glorot(config, rng);
  }

  std::vector<nn::Sequence> batch(std::size_t n, int length = 100) const {
    Rng rng(3);
    std::vector<nn::Sequence> out;
    for (std::size_t i = 0; i < n; ++i) {
      nn::Sequence seq;
      for (int j = 0; j < length; ++j) {
        seq.push_back(static_cast<nn::TokenId>(
            rng.uniform_int(0, config.vocab_size - 1)));
      }
      out.push_back(std::move(seq));
    }
    return out;
  }
};

TEST(Batch, ResultsMatchSequentialInference) {
  BatchFixture f;
  kernels::CsdLstmEngine engine(f.device, f.config, f.params,
                                kernels::EngineConfig{});
  const auto sequences = f.batch(10);
  const auto batch = engine.infer_batch(sequences);
  ASSERT_EQ(batch.probabilities.size(), 10u);
  for (std::size_t i = 0; i < sequences.size(); ++i) {
    EXPECT_DOUBLE_EQ(batch.probabilities[i],
                     engine.infer(sequences[i]).probability);
  }
}

TEST(Batch, PaysPreprocessOnlyOnce) {
  BatchFixture f;
  kernels::CsdLstmEngine engine(f.device, f.config, f.params,
                                kernels::EngineConfig{});
  const auto timings = engine.per_item_timings();
  const auto one = engine.infer_batch(f.batch(1));
  const auto ten = engine.infer_batch(f.batch(10));
  const Duration steady = timings.gates + timings.hidden_state;
  EXPECT_NEAR((ten.device_time - one.device_time).as_microseconds(),
              steady.as_microseconds() * 900, 1e-6);
}

TEST(Batch, ThroughputIsConsistentWithDeviceTime) {
  BatchFixture f;
  kernels::CsdLstmEngine engine(f.device, f.config, f.params,
                                kernels::EngineConfig{});
  const auto result = engine.infer_batch(f.batch(20));
  const double seconds = static_cast<double>(result.device_time.picos) * 1e-12;
  EXPECT_NEAR(result.windows_per_second, 20.0 / seconds, 1e-6);
  // The fixed-point engine classifies thousands of windows per second.
  EXPECT_GT(result.windows_per_second, 1'000.0);
}

TEST(Batch, EmptyBatchThrows) {
  BatchFixture f;
  kernels::CsdLstmEngine engine(f.device, f.config, f.params,
                                kernels::EngineConfig{});
  EXPECT_THROW(engine.infer_batch({}), PreconditionError);
  EXPECT_THROW(engine.infer_batch({nn::Sequence{}}), PreconditionError);
}

TEST(Batch, HostBatchLatencyAmortizesLaunches) {
  BatchFixture f;
  const baselines::HostBaseline gpu("gpu", f.config, f.params,
                                    baselines::HostLatencyConfig::a100_gpu());
  const Duration b1 = gpu.batch_window_latency(1, 100);
  const Duration b256 = gpu.batch_window_latency(256, 100);
  // 256x the work costs far less than 256x the time...
  EXPECT_LT(b256.picos, b1.picos * 8);
  // ...so per-window latency (throughput inverse) improves with batch.
  EXPECT_LT(static_cast<double>(b256.picos) / 256.0,
            static_cast<double>(b1.picos));
  EXPECT_THROW(gpu.batch_window_latency(0, 100), PreconditionError);
}

TEST(Batch, GpuWinsRawThroughputFpgaWinsLatency) {
  // The honest systems trade-off behind Table I: the paper's claim is
  // about per-decision latency (real-time detection), not bulk throughput.
  BatchFixture f;
  kernels::CsdLstmEngine engine(f.device, f.config, f.params,
                                kernels::EngineConfig{});
  const baselines::HostBaseline gpu("gpu", f.config, f.params,
                                    baselines::HostLatencyConfig::a100_gpu());

  // Latency for ONE decision.
  const double fpga_window_us =
      engine.infer(f.batch(1).front()).device_time.as_microseconds();
  const double gpu_window_us =
      gpu.batch_window_latency(1, 100).as_microseconds();
  EXPECT_LT(fpga_window_us * 50, gpu_window_us);

  // Bulk throughput at large batch.
  const double gpu_batch_us = gpu.batch_window_latency(4096, 100).as_microseconds();
  const double gpu_windows_per_s = 4096.0 / (gpu_batch_us * 1e-6);
  const double fpga_windows_per_s =
      engine.infer_batch(f.batch(32)).windows_per_second;
  EXPECT_GT(gpu_windows_per_s, fpga_windows_per_s);
}

}  // namespace
}  // namespace csdml
