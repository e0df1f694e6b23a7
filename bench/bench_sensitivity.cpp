// Robustness of the reproduction: the Fig. 3 / Table I conclusions should
// not hinge on the exact calibration constants of the HLS cost model.
// This bench perturbs every operator latency and the AXI setup cost by
// ±30% (one factor at a time and jointly) and checks that the paper's
// qualitative claims survive each perturbation:
//   (1) fixed-point beats vanilla by ~3x or more,
//   (2) preprocess stays roughly flat across optimization levels,
//   (3) the FPGA stays >100x faster per item than the GPU's mean.
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "hls/cost_model.hpp"
#include "kernels/specs.hpp"

namespace {

using namespace csdml;

struct Totals {
  double vanilla;
  double fixed;
  double pre_vanilla;
  double pre_fixed;
};

Totals totals_under(const hls::HlsCostModel& model) {
  const nn::LstmConfig config;
  const kernels::KernelTimings vanilla =
      kernels::kernel_timings(model, config, kernels::OptimizationLevel::Vanilla, 4);
  const kernels::KernelTimings fixed = kernels::kernel_timings(
      model, config, kernels::OptimizationLevel::FixedPoint, 4);
  // Per-kernel microseconds summed as doubles, the way Fig. 3 adds its bars.
  const auto total_us = [](const kernels::KernelTimings& t) {
    return t.preprocess.as_microseconds() + t.gates.as_microseconds() +
           t.hidden_state.as_microseconds();
  };
  return Totals{.vanilla = total_us(vanilla),
                .fixed = total_us(fixed),
                .pre_vanilla = vanilla.preprocess.as_microseconds(),
                .pre_fixed = fixed.preprocess.as_microseconds()};
}

hls::HlsCostModel perturbed(double op_scale, double axi_scale) {
  hls::OpLatencyTable ops = hls::OpLatencyTable::vitis_ultrascale_300mhz();
  for (std::size_t k = 0; k < static_cast<std::size_t>(hls::OpKind::kCount); ++k) {
    const auto kind = static_cast<hls::OpKind>(k);
    const auto scaled = static_cast<std::uint64_t>(
        std::max(1.0, static_cast<double>(ops.latency(kind).count) * op_scale));
    ops.set_latency(kind, Cycles{scaled});
  }
  hls::AxiConfig axi;
  axi.setup_latency = Cycles{static_cast<std::uint64_t>(
      std::max(1.0, static_cast<double>(axi.setup_latency.count) * axi_scale))};
  return hls::HlsCostModel(ops, axi, Frequency::megahertz(300.0));
}

}  // namespace

int main() {
  bench::print_header(
      "Sensitivity — do the paper's conclusions survive cost-model error?");

  struct Case {
    const char* name;
    double op_scale;
    double axi_scale;
  };
  const std::vector<Case> cases = {
      {"calibrated", 1.0, 1.0},       {"ops -30%", 0.7, 1.0},
      {"ops +30%", 1.3, 1.0},         {"axi -30%", 1.0, 0.7},
      {"axi +30%", 1.0, 1.3},         {"both -30%", 0.7, 0.7},
      {"both +30%", 1.3, 1.3},
  };

  const double gpu_mean_us = 741.35336;  // Table I
  TextTable table({"perturbation", "vanilla_us", "fixed_us", "speedup",
                   "pre_flat?", "gpu/fpga"});
  bool all_hold = true;
  for (const Case& c : cases) {
    const Totals t = totals_under(perturbed(c.op_scale, c.axi_scale));
    const double speedup = t.vanilla / t.fixed;
    const double pre_drift = std::abs(t.pre_vanilla - t.pre_fixed) /
                             t.pre_vanilla;
    const double vs_gpu = gpu_mean_us / t.fixed;
    const bool holds = speedup > 2.0 && pre_drift < 0.2 && vs_gpu > 100.0;
    all_hold &= holds;
    table.add_row({c.name, TextTable::num(t.vanilla, 3),
                   TextTable::num(t.fixed, 3),
                   TextTable::num(speedup, 2) + "x",
                   pre_drift < 0.2 ? "yes" : "NO",
                   TextTable::num(vs_gpu, 0) + "x"});
  }
  table.print(std::cout);
  std::cout << "\nAll qualitative claims "
            << (all_hold ? "hold" : "DO NOT hold")
            << " across +/-30% perturbations of every operator latency and\n"
               "the AXI setup cost: the reproduction's shape does not depend\n"
               "on the exact calibration constants.\n";
  bench::dump_metrics_json("bench_sensitivity");
  return all_hold ? 0 : 1;
}
