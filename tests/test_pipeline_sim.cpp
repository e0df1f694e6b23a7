// Cross-validation: the event-driven pipeline simulation is the ground
// truth; the engine's closed-form overlap formula must match it for every
// shipped configuration.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "kernels/engine.hpp"
#include "kernels/pipeline_sim.hpp"

namespace csdml::kernels {
namespace {

const hls::HlsCostModel& model() {
  static const hls::HlsCostModel m = hls::HlsCostModel::ultrascale_default();
  return m;
}

struct SimCase {
  OptimizationLevel level;
  std::uint32_t cus;
  KernelLink link;
  std::size_t items;
};

class PipelineSimTest : public ::testing::TestWithParam<SimCase> {};

std::size_t count_named(const std::vector<sim::Span>& spans,
                        const std::string& name) {
  return static_cast<std::size_t>(
      std::count_if(spans.begin(), spans.end(),
                    [&](const sim::Span& span) { return span.name == name; }));
}

TEST_P(PipelineSimTest, EventDrivenMatchesClosedForm) {
  const SimCase param = GetParam();
  const nn::LstmConfig config;
  const PipelineSimConfig pipeline{param.level, param.cus, param.link};
  const KernelTimings timings =
      kernel_timings(model(), config, param.level, param.cus, param.link);
  // Precondition of the closed form (holds for every shipped config):
  ASSERT_LE(timings.preprocess.picos, (timings.gates + timings.hidden_state).picos);

  const PipelineSimResult sim = simulate_pipeline(model(), config, pipeline,
                                                  param.items);
  EXPECT_EQ(sim.total.picos, timings.sequence(param.items).picos);
}

TEST_P(PipelineSimTest, TraceHasOneSpanPerStagePerItem) {
  const SimCase param = GetParam();
  const nn::LstmConfig config;
  const PipelineSimResult sim = simulate_pipeline(
      model(), config, {param.level, param.cus, param.link}, param.items);
  EXPECT_EQ(sim.spans.size(), 3 * param.items);
  EXPECT_EQ(count_named(sim.spans, "preprocess"), param.items);
  EXPECT_EQ(count_named(sim.spans, "gates"), param.items);
  EXPECT_EQ(count_named(sim.spans, "hidden_state"), param.items);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, PipelineSimTest,
    ::testing::Values(
        SimCase{OptimizationLevel::Vanilla, 4, KernelLink::AxiMemory, 10},
        SimCase{OptimizationLevel::II, 4, KernelLink::AxiMemory, 25},
        SimCase{OptimizationLevel::FixedPoint, 4, KernelLink::AxiMemory, 100},
        SimCase{OptimizationLevel::FixedPoint, 1, KernelLink::AxiMemory, 50},
        SimCase{OptimizationLevel::FixedPoint, 4, KernelLink::Stream, 100},
        SimCase{OptimizationLevel::Vanilla, 2, KernelLink::Stream, 7},
        SimCase{OptimizationLevel::II, 4, KernelLink::AxiMemory, 1}));

TEST(PipelineSim, MatchesEngineSequenceTiming) {
  const nn::LstmConfig config;
  Rng rng(3);
  const nn::LstmParams params = nn::LstmParams::glorot(config, rng);
  csd::SmartSsd board{csd::SmartSsdConfig{}};
  xrt::Device device{board};
  CsdLstmEngine engine(device, config, params,
                       EngineConfig{.level = OptimizationLevel::FixedPoint});
  nn::Sequence seq(100, 1);
  const Duration engine_time = engine.infer(seq).device_time;
  const PipelineSimResult sim = simulate_pipeline(
      model(), config, {OptimizationLevel::FixedPoint, 4, KernelLink::AxiMemory},
      100);
  EXPECT_EQ(engine_time.picos, sim.total.picos);
}

TEST(PipelineSim, PreprocessOverlapsSteadyStages) {
  // In the trace, preprocess[i+1] must start before hidden[i] ends —
  // the Section III-C lookahead visible event-by-event.
  const nn::LstmConfig config;
  const PipelineSimResult sim = simulate_pipeline(
      model(), config, {OptimizationLevel::Vanilla, 4, KernelLink::AxiMemory}, 5);
  std::vector<sim::Span> preprocess;
  std::vector<sim::Span> hidden;
  for (const auto& span : sim.spans) {
    if (span.name == "preprocess") preprocess.push_back(span);
    if (span.name == "hidden_state") hidden.push_back(span);
  }
  ASSERT_EQ(preprocess.size(), 5u);
  ASSERT_EQ(hidden.size(), 5u);
  for (std::size_t i = 0; i + 1 < 5; ++i) {
    EXPECT_LT(preprocess[i + 1].start.picos, hidden[i].end.picos);
  }
}

TEST(PipelineSim, SingleItemHasNoOverlapBenefit) {
  const nn::LstmConfig config;
  const PipelineSimConfig pipeline{OptimizationLevel::FixedPoint, 4,
                                   KernelLink::AxiMemory};
  const KernelTimings timings = kernel_timings(
      model(), config, pipeline.level, pipeline.gate_cu_count, pipeline.link);
  const PipelineSimResult sim = simulate_pipeline(model(), config, pipeline, 1);
  EXPECT_EQ(sim.total.picos, timings.total().picos);
}

TEST(PipelineSim, Guards) {
  const nn::LstmConfig config;
  EXPECT_THROW(simulate_pipeline(model(), config, {}, 0), PreconditionError);
}

}  // namespace
}  // namespace csdml::kernels
