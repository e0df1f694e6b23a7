#include "kernels/pipeline_sim.hpp"

#include <functional>
#include <vector>

#include "common/error.hpp"

namespace csdml::kernels {

PipelineSimResult simulate_pipeline(const hls::HlsCostModel& model,
                                    const nn::LstmConfig& config,
                                    const PipelineSimConfig& pipeline,
                                    std::size_t items) {
  CSDML_REQUIRE(items > 0, "need at least one item");
  const KernelTimings stages = kernel_timings(
      model, config, pipeline.level, pipeline.gate_cu_count, pipeline.link);

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
      simulation.schedule_after(stages.hidden_state, [&, i, hidden_start] {
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
