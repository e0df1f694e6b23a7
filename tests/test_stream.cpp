// Tests for the AXI-stream kernel-link mode (Section III-C's "streaming
// can be easily ported ... for additional acceleration").
#include <gtest/gtest.h>

#include "hls/cost_model.hpp"
#include "kernels/engine.hpp"
#include "kernels/specs.hpp"

namespace csdml::kernels {
namespace {

const nn::LstmConfig kConfig;

double total_us(OptimizationLevel level, KernelLink link) {
  static const hls::HlsCostModel model = hls::HlsCostModel::ultrascale_default();
  return kernel_timings(model, kConfig, level, 4, link).total().as_microseconds();
}

class StreamLevelTest : public ::testing::TestWithParam<OptimizationLevel> {};

TEST_P(StreamLevelTest, StreamingIsFasterAtEveryLevel) {
  EXPECT_LT(total_us(GetParam(), KernelLink::Stream),
            total_us(GetParam(), KernelLink::AxiMemory));
}

TEST_P(StreamLevelTest, StreamSpecsDropInterKernelTransfers) {
  const auto level = GetParam();
  const auto pre = make_preprocess_spec(kConfig, level, 4, KernelLink::Stream);
  // Only the off-chip item fetch remains.
  ASSERT_EQ(pre.transfers.size(), 1u);
  EXPECT_EQ(pre.transfers.front().name, "item_fetch");

  const auto gates = make_gates_spec(kConfig, level, KernelLink::Stream);
  EXPECT_TRUE(gates.transfers.empty());

  const auto hidden = make_hidden_state_spec(kConfig, level, 4, KernelLink::Stream);
  ASSERT_EQ(hidden.transfers.size(), 1u);
  EXPECT_EQ(hidden.transfers.front().name, "prediction_out");
}

INSTANTIATE_TEST_SUITE_P(Levels, StreamLevelTest,
                         ::testing::Values(OptimizationLevel::Vanilla,
                                           OptimizationLevel::II,
                                           OptimizationLevel::FixedPoint),
                         [](const auto& info) {
                           std::string name = optimization_name(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(Stream, EngineResultsUnchangedByLink) {
  nn::LstmConfig config;
  Rng rng(61);
  const nn::LstmParams params = nn::LstmParams::glorot(config, rng);
  Rng token_rng(7);
  nn::Sequence seq;
  for (int i = 0; i < 80; ++i) {
    seq.push_back(static_cast<nn::TokenId>(rng.uniform_int(0, 277)));
  }

  csd::SmartSsd board_a{csd::SmartSsdConfig{}};
  xrt::Device device_a{board_a};
  CsdLstmEngine axi(device_a, config, params,
                    EngineConfig{.link = KernelLink::AxiMemory});
  csd::SmartSsd board_b{csd::SmartSsdConfig{}};
  xrt::Device device_b{board_b};
  CsdLstmEngine stream(device_b, config, params,
                       EngineConfig{.link = KernelLink::Stream});

  const auto axi_result = axi.infer(seq);
  const auto stream_result = stream.infer(seq);
  EXPECT_DOUBLE_EQ(axi_result.probability, stream_result.probability);
  EXPECT_LT(stream_result.device_time.picos, axi_result.device_time.picos);
}

TEST(Stream, FixedPointStreamTotalNearOneMicrosecond) {
  // The streamed fixed-point build roughly halves the 2.15 us per item.
  const double us = total_us(OptimizationLevel::FixedPoint, KernelLink::Stream);
  EXPECT_LT(us, 1.5);
  EXPECT_GT(us, 0.5);
}

}  // namespace
}  // namespace csdml::kernels
