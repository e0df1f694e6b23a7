#include "kernels/engine.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace csdml::kernels {
namespace {

struct EngineFixture {
  nn::LstmConfig model_config;
  nn::LstmParams params;
  csd::SmartSsd board{csd::SmartSsdConfig{}};
  xrt::Device device{board};

  EngineFixture() {
    Rng rng(33);
    params = nn::LstmParams::glorot(model_config, rng);
  }

  nn::Sequence sequence(std::uint64_t seed, int length = 100) const {
    Rng rng(seed);
    nn::Sequence seq;
    for (int i = 0; i < length; ++i) {
      seq.push_back(static_cast<nn::TokenId>(
          rng.uniform_int(0, model_config.vocab_size - 1)));
    }
    return seq;
  }
};

TEST(Engine, FixedPointInferMatchesFixedDatapath) {
  EngineFixture f;
  CsdLstmEngine engine(f.device, f.model_config, f.params,
                       EngineConfig{.level = OptimizationLevel::FixedPoint});
  const FixedDatapath reference(f.model_config, f.params);
  const nn::Sequence seq = f.sequence(1);
  const InferenceResult result = engine.infer(seq);
  EXPECT_DOUBLE_EQ(result.probability, reference.infer(seq));
  EXPECT_EQ(result.label, result.probability >= 0.5 ? 1 : 0);
}

TEST(Engine, VanillaInferMatchesFloatDatapath) {
  EngineFixture f;
  CsdLstmEngine engine(f.device, f.model_config, f.params,
                       EngineConfig{.level = OptimizationLevel::Vanilla});
  const FloatDatapath reference(f.model_config, f.params);
  const nn::Sequence seq = f.sequence(2);
  EXPECT_DOUBLE_EQ(engine.infer(seq).probability, reference.infer(seq));
}

TEST(Engine, PerItemTimingsReproduceFig3Totals) {
  EngineFixture f;
  CsdLstmEngine engine(f.device, f.model_config, f.params,
                       EngineConfig{.level = OptimizationLevel::FixedPoint});
  const KernelTimings timings = engine.per_item_timings();
  EXPECT_NEAR(timings.total().as_microseconds(), 2.15133, 0.22);

  csd::SmartSsd board2{csd::SmartSsdConfig{}};
  xrt::Device device2{board2};
  CsdLstmEngine vanilla(device2, f.model_config, f.params,
                        EngineConfig{.level = OptimizationLevel::Vanilla});
  EXPECT_NEAR(vanilla.per_item_timings().total().as_microseconds(), 7.153, 0.72);
}

TEST(Engine, SequenceTimeScalesWithLengthAndOverlapsPreprocess) {
  EngineFixture f;
  CsdLstmEngine engine(f.device, f.model_config, f.params,
                       EngineConfig{.level = OptimizationLevel::FixedPoint});
  const KernelTimings per_item = engine.per_item_timings();
  const auto t10 = engine.infer(f.sequence(3, 10)).device_time;
  const auto t100 = engine.infer(f.sequence(3, 100)).device_time;
  // Steady-state slope = gates + hidden (preprocess runs one item ahead).
  const Duration steady = per_item.gates + per_item.hidden_state;
  EXPECT_NEAR((t100 - t10).as_microseconds(), steady.as_microseconds() * 90.0,
              1e-6);
  // Preprocess is exposed exactly once per sequence.
  EXPECT_NEAR(t10.as_microseconds(),
              per_item.preprocess.as_microseconds() +
                  10 * steady.as_microseconds(),
              1e-6);
}

TEST(Engine, FewerComputeUnitsAreSlower) {
  EngineFixture f;
  CsdLstmEngine four(f.device, f.model_config, f.params,
                     EngineConfig{.level = OptimizationLevel::Vanilla,
                                  .gate_cu_count = 4});
  csd::SmartSsd board1{csd::SmartSsdConfig{}};
  xrt::Device device1{board1};
  CsdLstmEngine one(device1, f.model_config, f.params,
                    EngineConfig{.level = OptimizationLevel::Vanilla,
                                 .gate_cu_count = 1});
  csd::SmartSsd board2{csd::SmartSsdConfig{}};
  xrt::Device device2{board2};
  CsdLstmEngine two(device2, f.model_config, f.params,
                    EngineConfig{.level = OptimizationLevel::Vanilla,
                                 .gate_cu_count = 2});

  const double t4 = four.per_item_timings().gates.as_microseconds();
  const double t2 = two.per_item_timings().gates.as_microseconds();
  const double t1 = one.per_item_timings().gates.as_microseconds();
  EXPECT_NEAR(t2, t4 * 2.0, 1e-9);
  EXPECT_NEAR(t1, t4 * 4.0, 1e-9);
}

TEST(Engine, CuCountDoesNotChangeResults) {
  EngineFixture f;
  CsdLstmEngine four(f.device, f.model_config, f.params,
                     EngineConfig{.level = OptimizationLevel::FixedPoint,
                                  .gate_cu_count = 4});
  csd::SmartSsd board1{csd::SmartSsdConfig{}};
  xrt::Device device1{board1};
  CsdLstmEngine one(device1, f.model_config, f.params,
                    EngineConfig{.level = OptimizationLevel::FixedPoint,
                                 .gate_cu_count = 1});
  const nn::Sequence seq = f.sequence(5);
  EXPECT_DOUBLE_EQ(four.infer(seq).probability, one.infer(seq).probability);
}

TEST(Engine, InferFromSsdP2pBeatsHostPath) {
  EngineFixture f;
  CsdLstmEngine engine(f.device, f.model_config, f.params, EngineConfig{});
  const nn::Sequence seq = f.sequence(7);
  const auto p2p = engine.infer_from_ssd(2048, 1, seq, /*p2p=*/true);

  csd::SmartSsd board2{csd::SmartSsdConfig{}};
  xrt::Device device2{board2};
  CsdLstmEngine engine2(device2, f.model_config, f.params, EngineConfig{});
  const auto host = engine2.infer_from_ssd(2048, 1, seq, /*p2p=*/false);

  EXPECT_LT(p2p.transfer_time.picos, host.transfer_time.picos);
  EXPECT_DOUBLE_EQ(p2p.inference.probability, host.inference.probability);
}

TEST(Engine, PlacesResourcesOnFpga) {
  EngineFixture f;
  CsdLstmEngine engine(f.device, f.model_config, f.params, EngineConfig{});
  EXPECT_GT(engine.fpga_utilization(), 0.0);
  EXPECT_LT(engine.fpga_utilization(), 1.0);
}

TEST(Engine, LoadsFromSnapshot) {
  EngineFixture f;
  const nn::ModelSnapshot snapshot{f.model_config, f.params};
  CsdLstmEngine engine(f.device, snapshot,
                       EngineConfig{.level = OptimizationLevel::FixedPoint});
  EXPECT_GT(engine.infer(f.sequence(9)).device_time.picos, 0);
}

TEST(Engine, RejectsBadCuCount) {
  EngineFixture f;
  EXPECT_THROW(CsdLstmEngine(f.device, f.model_config, f.params,
                             EngineConfig{.gate_cu_count = 0}),
               PreconditionError);
  EXPECT_THROW(CsdLstmEngine(f.device, f.model_config, f.params,
                             EngineConfig{.gate_cu_count = 5}),
               PreconditionError);
}

TEST(Engine, UpdateWeightsSwapsTheModelInPlace) {
  EngineFixture f;
  CsdLstmEngine engine(f.device, f.model_config, f.params,
                       EngineConfig{.level = OptimizationLevel::FixedPoint});
  const nn::Sequence seq = f.sequence(13);
  const double before = engine.infer(seq).probability;
  EXPECT_EQ(engine.weight_updates(), 1u);

  Rng rng(99);
  const nn::LstmParams fresh = nn::LstmParams::glorot(f.model_config, rng);
  const TimePoint t_before = f.device.now();
  engine.update_weights(fresh);
  EXPECT_EQ(engine.weight_updates(), 2u);
  EXPECT_GT(f.device.now().picos, t_before.picos);  // restaging costs time

  const double after = engine.infer(seq).probability;
  EXPECT_NE(before, after);
  // The new behaviour matches a fresh engine built on the new params.
  csd::SmartSsd board2{csd::SmartSsdConfig{}};
  xrt::Device device2{board2};
  CsdLstmEngine reference(device2, f.model_config, fresh,
                          EngineConfig{.level = OptimizationLevel::FixedPoint});
  EXPECT_DOUBLE_EQ(after, reference.infer(seq).probability);
}

TEST(Engine, HotSwapServesNoVersionBeforeItsImageLands) {
  // A version is live exactly when its image is in DDR: the swap and its
  // DMA are one step under the device lock, so while a caller holds that
  // lock a concurrent update_weights can neither be served nor counted.
  EngineFixture f;
  CsdLstmEngine engine(f.device, f.model_config, f.params,
                       EngineConfig{.level = OptimizationLevel::FixedPoint});
  Rng rng(7);
  const nn::LstmParams params_b = nn::LstmParams::glorot(f.model_config, rng);
  const nn::Sequence seq = f.sequence(21);
  const double oracle_a = FixedDatapath(f.model_config, f.params).infer(seq);
  const double oracle_b = FixedDatapath(f.model_config, params_b).infer(seq);
  ASSERT_NE(oracle_a, oracle_b);

  std::unique_lock<std::recursive_mutex> device_guard = engine.lock_device();
  std::thread writer([&] { engine.update_weights(params_b); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(engine.infer(seq).probability, oracle_a);
  EXPECT_EQ(engine.weight_updates(), 1u);
  device_guard.unlock();
  writer.join();

  EXPECT_EQ(engine.infer(seq).probability, oracle_b);
  EXPECT_EQ(engine.weight_updates(), 2u);
}

TEST(Engine, UpdateWeightsRejectsArchitectureChange) {
  EngineFixture f;
  CsdLstmEngine engine(f.device, f.model_config, f.params, EngineConfig{});
  nn::LstmConfig other = f.model_config;
  other.hidden_dim = 16;
  Rng rng(1);
  EXPECT_THROW(engine.update_weights(nn::LstmParams::glorot(other, rng)),
               PreconditionError);
}

TEST(Engine, UpdateWeightsRejectsMisshapedGateTensors) {
  // Embedding and dense shapes match, so only a check on every gate tensor
  // stops staging from reading past the end of these buffers.
  EngineFixture f;
  CsdLstmEngine engine(f.device, f.model_config, f.params,
                       EngineConfig{.level = OptimizationLevel::FixedPoint});
  const nn::Sequence seq = f.sequence(5);
  const double before = engine.infer(seq).probability;
  const std::size_t embed = f.model_config.embed_dim;
  const std::size_t hidden = f.model_config.hidden_dim;
  std::vector<nn::LstmParams> bad(3, f.params);
  bad[0].w_x[nn::kOutput] = nn::Matrix(embed, hidden / 2);
  bad[1].w_h[nn::kForget] = nn::Matrix(hidden / 2, hidden);
  bad[2].bias[nn::kInput].resize(hidden / 2);
  for (const nn::LstmParams& params : bad) {
    EXPECT_THROW(engine.update_weights(params), PreconditionError);
  }
  // A refused update leaves the engine serving the weights it had.
  EXPECT_EQ(engine.weight_updates(), 1u);
  EXPECT_EQ(engine.infer(seq).probability, before);
}

TEST(Engine, RejectsStagedWeightsForAnotherConfig) {
  // A staged version carries the level, fixed scale and architecture it
  // was built for. An engine configured otherwise refuses it, at
  // construction and at update_weights, rather than serve a datapath it
  // did not ask for.
  EngineFixture f;
  const EngineConfig config{.level = OptimizationLevel::FixedPoint};
  nn::LstmConfig tanh_model = f.model_config;
  tanh_model.activation = nn::CellActivation::Tanh;
  nn::LstmConfig wide_model = f.model_config;
  wide_model.hidden_dim *= 2;
  Rng rng(4);
  const nn::LstmParams wide_params = nn::LstmParams::glorot(wide_model, rng);
  const std::vector<std::shared_ptr<const StagedWeights>> foreign{
      std::make_shared<const StagedWeights>(
          f.model_config, f.params, EngineConfig{.level = OptimizationLevel::II}),
      std::make_shared<const StagedWeights>(
          f.model_config, f.params,
          EngineConfig{.level = OptimizationLevel::FixedPoint,
                       .fixed_scale = config.fixed_scale / 10}),
      std::make_shared<const StagedWeights>(tanh_model, f.params, config),
      std::make_shared<const StagedWeights>(wide_model, wide_params, config),
  };
  for (const std::shared_ptr<const StagedWeights>& weights : foreign) {
    EXPECT_THROW(CsdLstmEngine(f.device, f.model_config, weights, config),
                 PreconditionError);
  }

  CsdLstmEngine engine(f.device, f.model_config, f.params, config);
  const nn::Sequence seq = f.sequence(17);
  const double before = engine.infer(seq).probability;
  for (const std::shared_ptr<const StagedWeights>& weights : foreign) {
    EXPECT_THROW(engine.update_weights(weights), PreconditionError);
  }
  // A refused version changes nothing: no update counted, same outputs.
  EXPECT_EQ(engine.weight_updates(), 1u);
  EXPECT_EQ(engine.infer(seq).probability, before);

  // A version staged for this engine's configuration is adopted as is.
  const nn::LstmParams fresh = nn::LstmParams::glorot(f.model_config, rng);
  engine.update_weights(
      std::make_shared<const StagedWeights>(f.model_config, fresh, config));
  EXPECT_EQ(engine.weight_updates(), 2u);
  EXPECT_EQ(engine.infer(seq).probability,
            FixedDatapath(f.model_config, fresh).infer(seq));
}

TEST(StagedWeights, ImageIsTheParamsSerializedFloatByFloat) {
  // The DDR image is every parameter in LstmParams::parameter_pointers
  // order as one little-endian float32, whatever the level; params() is
  // the staged copy of exactly those values.
  const EngineFixture f;
  nn::LstmParams copy = f.params;
  std::vector<std::uint8_t> expect;
  std::vector<double> values;
  for (const double* p : copy.parameter_pointers()) {
    values.push_back(*p);
    const auto word = std::bit_cast<std::uint32_t>(static_cast<float>(*p));
    for (int byte = 0; byte < 4; ++byte) {
      expect.push_back(static_cast<std::uint8_t>(word >> (8 * byte)));
    }
  }
  for (const OptimizationLevel level :
       {OptimizationLevel::FixedPoint, OptimizationLevel::II}) {
    const StagedWeights staged(f.model_config, f.params, EngineConfig{.level = level});
    EXPECT_EQ(staged.image(), expect);
    nn::LstmParams staged_params = staged.params();
    std::vector<double> staged_values;
    for (const double* p : staged_params.parameter_pointers()) {
      staged_values.push_back(*p);
    }
    EXPECT_EQ(staged_values, values);
  }
}

TEST(Engine, UpdateWeightsDoesNotReloadXclbin) {
  // The paper: compiled once, updated at the operator's discretion —
  // utilization must not grow across updates.
  EngineFixture f;
  CsdLstmEngine engine(f.device, f.model_config, f.params, EngineConfig{});
  const double util_before = engine.fpga_utilization();
  Rng rng(5);
  engine.update_weights(nn::LstmParams::glorot(f.model_config, rng));
  EXPECT_DOUBLE_EQ(engine.fpga_utilization(), util_before);
}

TEST(Engine, EmptySequenceThrows) {
  EngineFixture f;
  CsdLstmEngine engine(f.device, f.model_config, f.params, EngineConfig{});
  EXPECT_THROW(engine.infer({}), PreconditionError);
}

}  // namespace
}  // namespace csdml::kernels
