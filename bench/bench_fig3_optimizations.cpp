// Reproduces Fig. 3: per-kernel forward-pass time for one sequence item
// under the three optimization levels (Vanilla, +II, +Fixed-point).
//
// Paper values (us): vanilla total ~7.153, fully optimized 2.15133, with
// preprocess ~flat, kernel_hidden_state collapsing under II and
// kernel_gates collapsing to one clock cycle under fixed point.
#include <iostream>

#include "bench_util.hpp"
#include "hls/cost_model.hpp"
#include "kernels/specs.hpp"

namespace {

using namespace csdml;

struct PaperRow {
  kernels::OptimizationLevel level;
  double preprocess;
  double gates;
  double hidden;
};

// Bar values from the paper's Fig. 3 (assignment per DESIGN.md §4).
constexpr PaperRow kPaper[] = {
    {kernels::OptimizationLevel::Vanilla, 0.800, 1.277, 5.076},
    {kernels::OptimizationLevel::II, 0.743, 2.001, 1.651},
    {kernels::OptimizationLevel::FixedPoint, 0.740, 0.00333, 1.408},
};

}  // namespace

int main() {
  bench::print_header(
      "Fig. 3 — FPGA-based LSTM inference time per item (microseconds)");

  const nn::LstmConfig config;  // the paper's 7,472-parameter model
  const hls::HlsCostModel model = hls::HlsCostModel::ultrascale_default();

  TextTable table({"optimization", "kernel", "measured_us", "paper_us", "delta"});
  double totals_measured[3] = {};
  double totals_paper[3] = {};
  int row_index = 0;
  for (const PaperRow& paper : kPaper) {
    const kernels::KernelTimings timings =
        kernels::kernel_timings(model, config, paper.level, 4);
    const double pre = timings.preprocess.as_microseconds();
    const double gates = timings.gates.as_microseconds();
    const double hidden = timings.hidden_state.as_microseconds();

    const char* name = kernels::optimization_name(paper.level);
    table.add_row({name, "preprocess", TextTable::num(pre),
                   TextTable::num(paper.preprocess),
                   bench::deviation(pre, paper.preprocess)});
    table.add_row({name, "gates (max of 4 CUs)", TextTable::num(gates),
                   TextTable::num(paper.gates),
                   bench::deviation(gates, paper.gates)});
    table.add_row({name, "hidden_state", TextTable::num(hidden),
                   TextTable::num(paper.hidden),
                   bench::deviation(hidden, paper.hidden)});
    totals_measured[row_index] = pre + gates + hidden;
    totals_paper[row_index] = paper.preprocess + paper.gates + paper.hidden;
    ++row_index;
  }
  table.print(std::cout);

  std::cout << '\n';
  TextTable totals({"optimization", "total_us", "paper_us", "delta"});
  for (int i = 0; i < 3; ++i) {
    totals.add_row({kernels::optimization_name(kPaper[i].level),
                    TextTable::num(totals_measured[i]),
                    TextTable::num(totals_paper[i]),
                    bench::deviation(totals_measured[i], totals_paper[i])});
  }
  totals.print(std::cout);
  std::cout << "\nNote: the II-level gates bar is a documented divergence — the\n"
               "paper's measured 2.001 us exceeds its own vanilla bar; our cost\n"
               "model predicts the pragma helps (see EXPERIMENTS.md).\n";
  bench::dump_metrics_json("bench_fig3_optimizations");
  return 0;
}
