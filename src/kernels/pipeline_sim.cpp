#include "kernels/pipeline_sim.hpp"

#include <functional>
#include <vector>

#include "common/error.hpp"

namespace csdml::kernels {

StageDurations stage_durations(const hls::HlsCostModel& model,
                               const nn::LstmConfig& config,
                               const PipelineSimConfig& pipeline) {
  const Frequency clock = model.clock();
  StageDurations stages;
  stages.preprocess =
      clock.duration_of(model.analyze(make_preprocess_spec(
                                          config, pipeline.level,
                                          pipeline.gate_cu_count, pipeline.link))
                            .total);
  const hls::KernelReport gates = model.analyze(
      make_gates_spec(config, pipeline.level, pipeline.link));
  const std::uint32_t rounds =
      (static_cast<std::uint32_t>(nn::kNumGates) + pipeline.gate_cu_count - 1) /
      pipeline.gate_cu_count;
  if (gates_reports_amortized_ii(pipeline.level)) {
    const std::uint64_t ii =
        gates.loops.empty() ? 1 : gates.loops.front().achieved_ii;
    stages.gates = clock.duration_of(Cycles{std::max<std::uint64_t>(ii, 1)}) *
                   static_cast<std::int64_t>(rounds);
  } else {
    stages.gates =
        clock.duration_of(gates.total) * static_cast<std::int64_t>(rounds);
  }
  stages.hidden = clock.duration_of(
      model.analyze(make_hidden_state_spec(config, pipeline.level,
                                           pipeline.gate_cu_count, pipeline.link))
          .total);
  return stages;
}

PipelineSimResult simulate_pipeline(const hls::HlsCostModel& model,
                                    const nn::LstmConfig& config,
                                    const PipelineSimConfig& pipeline,
                                    std::size_t items) {
  CSDML_REQUIRE(items > 0, "need at least one item");
  const StageDurations stages = stage_durations(model, config, pipeline);

  sim::Simulation simulation;
  PipelineSimResult result;
  result.items = items;

  std::vector<bool> preprocess_started(items, false);
  std::vector<bool> gates_started(items, false);
  std::vector<bool> preprocess_done(items, false);
  std::vector<bool> hidden_done(items, false);
  TimePoint last_hidden{};

  std::function<void(std::size_t)> try_start_preprocess;
  std::function<void(std::size_t)> try_start_gates;

  try_start_gates = [&](std::size_t i) {
    if (i >= items || gates_started[i]) return;
    if (!preprocess_done[i]) return;           // needs x_t
    if (i > 0 && !hidden_done[i - 1]) return;  // needs h_{t-1}
    gates_started[i] = true;
    const TimePoint start = simulation.now();
    // The CU input buffer is consumed: the next preprocess may refill it.
    simulation.schedule_after(Duration::zero(),
                              [&, i] { try_start_preprocess(i + 1); });
    simulation.schedule_after(stages.gates, [&, i, start] {
      result.spans.push_back({"gates", start, simulation.now()});
      const TimePoint hidden_start = simulation.now();
      simulation.schedule_after(stages.hidden, [&, i, hidden_start] {
        hidden_done[i] = true;
        result.spans.push_back(
            {"hidden_state", hidden_start, simulation.now()});
        last_hidden = simulation.now();
        try_start_gates(i + 1);
      });
    });
  };

  try_start_preprocess = [&](std::size_t i) {
    if (i >= items || preprocess_started[i]) return;
    if (i > 0 && !preprocess_done[i - 1]) return;   // one lookahead engine
    if (i > 1 && !gates_started[i - 1]) return;     // single x-buffer slot
    preprocess_started[i] = true;
    const TimePoint start = simulation.now();
    simulation.schedule_after(stages.preprocess, [&, i, start] {
      preprocess_done[i] = true;
      result.spans.push_back({"preprocess", start, simulation.now()});
      try_start_gates(i);
      try_start_preprocess(i + 1);
    });
  };

  simulation.schedule_at(TimePoint{}, [&] { try_start_preprocess(0); });
  simulation.run();

  CSDML_REQUIRE(hidden_done[items - 1], "pipeline deadlocked");
  result.total = last_hidden - TimePoint{};
  return result;
}

}  // namespace csdml::kernels
