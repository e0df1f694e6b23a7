// Ablation: latency vs throughput. Table I is a *latency* claim — one
// item through the pipeline. GPUs amortize their launch overhead over
// large batches and win raw bulk throughput; the CSD wins every
// per-decision latency and needs no batch to do it. This bench shows both
// regimes side by side (and where a 4-drive node lands).
#include <iostream>

#include "baselines/host_baseline.hpp"
#include "bench_util.hpp"
#include "serve/fleet.hpp"

int main() {
  using namespace csdml;
  bench::print_header("Ablation — per-decision latency vs bulk throughput");

  nn::LstmConfig config;
  Rng rng(91);
  const nn::ModelSnapshot snapshot{config,
                                   nn::LstmParams::glorot(config, rng)};
  const baselines::HostBaseline gpu("gpu", config, snapshot.params,
                                    baselines::HostLatencyConfig::a100_gpu());
  const baselines::HostBaseline cpu("cpu", config, snapshot.params,
                                    baselines::HostLatencyConfig::xeon_cpu());

  // One window of 100 items, per platform.
  csd::SmartSsd board{csd::SmartSsdConfig{}};
  xrt::Device device{board};
  kernels::CsdLstmEngine engine(device, snapshot, kernels::EngineConfig{});
  Rng token_rng(3);
  std::vector<nn::Sequence> windows;
  for (int i = 0; i < 64; ++i) {
    nn::Sequence seq;
    for (int j = 0; j < 100; ++j) {
      seq.push_back(
          static_cast<nn::TokenId>(token_rng.uniform_int(0, 277)));
    }
    windows.push_back(std::move(seq));
  }
  const double fpga_window_us =
      engine.infer(windows.front()).device_time.as_microseconds();

  bench::print_header("Per-decision latency (one 100-call window)");
  TextTable latency({"platform", "window_latency_us"});
  latency.add_row({"FPGA (CSD)", TextTable::num(fpga_window_us, 1)});
  latency.add_row(
      {"GPU batch=1", TextTable::num(gpu.batch_window_latency(1, 100)
                                         .as_microseconds(), 1)});
  latency.add_row(
      {"CPU batch=1", TextTable::num(cpu.batch_window_latency(1, 100)
                                         .as_microseconds(), 1)});
  latency.print(std::cout);

  bench::print_header("Bulk throughput (windows / second)");
  TextTable throughput({"platform", "batch", "windows_per_s"});
  const double fpga_tp = engine.infer_batch(windows).windows_per_second;
  throughput.add_row({"FPGA (one CSD)", "streamed", TextTable::num(fpga_tp, 0)});
  serve::BoardFleet fleet(config, snapshot.params, serve::FleetConfig{.boards = 4},
                          [](const serve::Verdict&) {});
  const serve::ScanReport scan = fleet.scan(windows);
  const double node_tp = static_cast<double>(scan.scanned) /
                         (static_cast<double>(scan.makespan.picos) * 1e-12);
  throughput.add_row({"FPGA (4-drive node)", "streamed",
                      TextTable::num(node_tp, 0)});
  for (const std::size_t batch : {1ul, 64ul, 1024ul, 4096ul}) {
    const double us = gpu.batch_window_latency(batch, 100).as_microseconds();
    throughput.add_row({"GPU (A100)", std::to_string(batch),
                        TextTable::num(static_cast<double>(batch) / (us * 1e-6), 0)});
  }
  throughput.print(std::cout);
  std::cout << "\nThe GPU needs thousands of concurrent windows to beat one\n"
               "drive's throughput — useless for the paper's use case, where\n"
               "each process's window must be classified the moment it fills\n"
               "so encryption can be blocked before it proceeds. Drives also\n"
               "scale linearly per node, next to the data they protect.\n";
  return 0;
}
