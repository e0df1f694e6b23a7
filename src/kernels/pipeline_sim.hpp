// Event-driven simulation of the Fig. 2 kernel pipeline.
//
// The engine computes sequence latency with a closed-form overlap formula
// (KernelTimings::sequence: preprocess exposed once, then gates+hidden per
// item). This module replays the same pipeline through the discrete-event
// core with explicit dependencies —
//
//   preprocess[i]  needs: preprocess[i-1] done, x-buffer free (gates[i-1]
//                         started)
//   gates[i]       needs: preprocess[i] done, hidden[i-1] done (h_{t-1})
//   hidden[i]      needs: gates[i] done
//
// — so it is the ground truth the analytic formula is validated against
// (tests assert they agree whenever preprocess fits under the steady
// stage, which holds for every configuration in this design), and it
// yields a full per-kernel span trace for inspection.
#pragma once

#include <vector>

#include "hls/cost_model.hpp"
#include "kernels/specs.hpp"
#include "sim/simulation.hpp"

namespace csdml::kernels {

struct PipelineSimConfig {
  OptimizationLevel level{OptimizationLevel::FixedPoint};
  std::uint32_t gate_cu_count{4};
  KernelLink link{KernelLink::AxiMemory};
};

struct PipelineSimResult {
  Duration total;            ///< completion time of the last hidden stage
  std::size_t items{0};
  std::vector<sim::Span> spans;  ///< preprocess[i], gates[i], hidden_state[i]
};

/// Runs `items` sequence items through the event-driven pipeline, each
/// stage taking its kernel_timings duration.
PipelineSimResult simulate_pipeline(const hls::HlsCostModel& model,
                                    const nn::LstmConfig& config,
                                    const PipelineSimConfig& pipeline,
                                    std::size_t items);

}  // namespace csdml::kernels
