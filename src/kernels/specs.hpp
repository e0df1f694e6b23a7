// Structural HLS specs for the paper's five kernels (Fig. 2) at each of
// the three optimization levels evaluated in Fig. 3.
//
//   Vanilla     — kernel parallelization only (Section III-C): four
//                 kernel_gates CUs + lookahead kernel_preprocess. Inner
//                 loops keep Vitis' default behaviour: small regular loops
//                 auto-pipeline (gates, preprocess); kernel_hidden_state's
//                 loop, which carries the static item counter and the
//                 conditional final dense layer, schedules sequentially.
//   II          — adds #pragma HLS PIPELINE II=1, UNROLL and
//                 ARRAY_PARTITION complete (Section III-D).
//   FixedPoint  — II plus integer arithmetic at the 10^6 decimal scale;
//                 multiplies map to DSP slices, sigmoid becomes the PLAN
//                 piecewise-linear form and tanh was already softsign.
#pragma once

#include "hls/cost_model.hpp"
#include "hls/kernel_spec.hpp"
#include "nn/lstm.hpp"

namespace csdml::kernels {

enum class OptimizationLevel { Vanilla, II, FixedPoint };

const char* optimization_name(OptimizationLevel level);

/// How x_t / gate vectors / h_t move between kernels.
///
/// The paper's deployed design uses memory-mapped AXI masters through the
/// two DDR banks, and notes that "streaming can be easily ported to the
/// kernel implementation for additional acceleration if the FPGA supports
/// it" — KernelLink::Stream models that port: direct AXI-stream FIFOs
/// between kernels, skipping the DDR round-trips entirely (only the
/// off-chip item fetch and the final prediction writeback remain).
enum class KernelLink { AxiMemory, Stream };

/// kernel_preprocess: embedding gather for one item + one copy of the
/// embedding into each gate CU's input buffer.
hls::KernelSpec make_preprocess_spec(const nn::LstmConfig& config,
                                     OptimizationLevel level,
                                     std::uint32_t gate_cu_count,
                                     KernelLink link = KernelLink::AxiMemory);

/// kernel_gates: one compute unit computing one gate vector
/// (hidden_dim outputs, each an (embed+hidden)-wide MAC + activation).
hls::KernelSpec make_gates_spec(const nn::LstmConfig& config,
                                OptimizationLevel level,
                                KernelLink link = KernelLink::AxiMemory);

/// kernel_hidden_state: cell update, softsign, h_t, h_t copies back to the
/// CUs, plus the final dense layer when the sequence completes.
hls::KernelSpec make_hidden_state_spec(const nn::LstmConfig& config,
                                       OptimizationLevel level,
                                       std::uint32_t gate_cu_count,
                                       KernelLink link = KernelLink::AxiMemory);

/// With ARRAY_PARTITION complete + UNROLL the fixed-point gates pipeline
/// accepts a new item every II cycles, so its steady-state per-item cost is
/// the initiation interval rather than the full pipeline latency (this is
/// the quantity the Vitis profile reports, and why the paper's fixed-point
/// gates bar reads 0.00333 us = exactly one 300 MHz cycle).
bool gates_reports_amortized_ii(OptimizationLevel level);

/// The three kernels of one build (Fig. 2), and what they were built for.
/// An xclbin places `gate_cu_count` copies of `gates`.
struct LstmKernelSpecs {
  OptimizationLevel level;
  std::uint32_t gate_cu_count;
  hls::KernelSpec preprocess;
  hls::KernelSpec gates;
  hls::KernelSpec hidden_state;
};

/// The three specs above for one configuration.
LstmKernelSpecs make_kernel_specs(const nn::LstmConfig& config,
                                  OptimizationLevel level,
                                  std::uint32_t gate_cu_count,
                                  KernelLink link = KernelLink::AxiMemory);

/// Per-item kernel timings — the Fig. 3 quantities.
struct KernelTimings {
  Duration preprocess;
  Duration gates;        ///< all four gate vectors over the parallel CUs
  Duration hidden_state;

  Duration total() const { return preprocess + gates + hidden_state; }

  /// Device time of `items` items streamed back-to-back: preprocess runs
  /// one item ahead of the gate/hidden pipeline (Section III-C), so it is
  /// exposed once; every item then pays gates + hidden_state.
  Duration sequence(std::size_t items) const {
    return preprocess + (gates + hidden_state) * static_cast<std::int64_t>(items);
  }
};

/// Steady-state per-item timings of `specs` under `model`. The one place
/// the amortized-II rule and the ceil(4 / CUs) gate rounds live.
KernelTimings kernel_timings(const hls::HlsCostModel& model,
                             const LstmKernelSpecs& specs);

/// Builds the specs for one configuration, then times them.
KernelTimings kernel_timings(const hls::HlsCostModel& model,
                             const nn::LstmConfig& config,
                             OptimizationLevel level, std::uint32_t gate_cu_count,
                             KernelLink link = KernelLink::AxiMemory);

}  // namespace csdml::kernels
