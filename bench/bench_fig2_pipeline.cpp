// Renders Fig. 2's kernel pipeline as a text Gantt chart from the
// event-driven simulation: preprocess running one item ahead of the four
// parallel gate CUs and the hidden-state kernel. Makes the Section III-C
// parallelization strategy visible span by span.
#include <algorithm>
#include <iostream>
#include <map>

#include "bench_util.hpp"
#include "kernels/pipeline_sim.hpp"

namespace {

using namespace csdml;

void render(kernels::OptimizationLevel level, std::size_t items) {
  const nn::LstmConfig config;
  const hls::HlsCostModel model = hls::HlsCostModel::ultrascale_default();
  const kernels::PipelineSimConfig pipeline{level, 4,
                                            kernels::KernelLink::AxiMemory};
  const kernels::PipelineSimResult sim =
      kernels::simulate_pipeline(model, config, pipeline, items);

  bench::print_header(std::string("Fig. 2 pipeline — ") +
                      kernels::optimization_name(level) + " build, " +
                      std::to_string(items) + " items (" +
                      TextTable::num(sim.total.as_microseconds(), 2) + " us)");

  constexpr int kColumns = 100;
  const double scale =
      static_cast<double>(kColumns) / static_cast<double>(sim.total.picos);
  // One lane per stage, spans tagged by item index.
  std::map<std::string, std::string> lanes;
  for (const char* name : {"preprocess", "gates", "hidden_state"}) {
    lanes[name] = std::string(kColumns, '.');
  }
  std::map<std::string, int> item_counter;
  for (const auto& span : sim.spans) {
    const int item = item_counter[span.name]++;
    auto& lane = lanes[span.name];
    const int begin = static_cast<int>(static_cast<double>(span.start.picos) * scale);
    int end = static_cast<int>(static_cast<double>(span.end.picos) * scale);
    end = std::min(end, kColumns - 1);
    const char glyph = static_cast<char>('0' + item % 10);
    for (int c = begin; c <= end; ++c) lane[static_cast<std::size_t>(c)] = glyph;
  }
  for (const char* name : {"preprocess", "gates", "hidden_state"}) {
    std::cout << "  " << name << std::string(14 - std::string(name).size(), ' ')
              << "|" << lanes[name] << "|\n";
  }
  std::cout << "  (digits = item index mod 10; preprocess of item t+1 runs\n"
               "   under gates/hidden of item t — the Section III-C lookahead)\n";
}

}  // namespace

int main() {
  render(kernels::OptimizationLevel::Vanilla, 6);
  render(kernels::OptimizationLevel::FixedPoint, 6);
  bench::dump_metrics_json("bench_fig2_pipeline");
  return 0;
}
