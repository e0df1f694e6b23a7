// google-benchmark microbenchmarks of the hot software paths: the
// functional datapaths (what the simulator actually executes per
// inference), fixed-point primitives, and training steps. These measure
// *host* wall-clock of the simulator itself, complementing the modelled
// device times the other benches report.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fixed/activations.hpp"
#include "fixed/row_kernel.hpp"
#include "fixed/scaled_fixed.hpp"
#include "kernels/engine.hpp"
#include "kernels/functional.hpp"
#include "nn/train.hpp"
#include "obs/metrics.hpp"
#include "serve/fleet.hpp"

namespace {

using namespace csdml;

struct Shared {
  nn::LstmConfig config;
  nn::LstmParams params;
  nn::Sequence sequence;

  Shared() {
    Rng rng(3);
    params = nn::LstmParams::glorot(config, rng);
    Rng token_rng(5);
    for (int i = 0; i < 100; ++i) {
      sequence.push_back(static_cast<nn::TokenId>(
          token_rng.uniform_int(0, config.vocab_size - 1)));
    }
  }
};

const Shared& shared() {
  static const Shared s;
  return s;
}

void BM_FloatDatapathInfer(benchmark::State& state) {
  const kernels::FloatDatapath path(shared().config, shared().params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(path.infer(shared().sequence));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(shared().sequence.size()));
}
BENCHMARK(BM_FloatDatapathInfer);

void BM_FixedDatapathInfer(benchmark::State& state) {
  const kernels::FixedDatapath path(shared().config, shared().params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(path.infer(shared().sequence));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(shared().sequence.size()));
}
BENCHMARK(BM_FixedDatapathInfer);

// Weight staging: scaling every parameter into the fused layouts, paid
// once per engine construction and once per hot swap.
void BM_FixedDatapathBuild(benchmark::State& state) {
  for (auto _ : state) {
    const kernels::FixedDatapath path(shared().config, shared().params);
    benchmark::DoNotOptimize(&path);
  }
}
BENCHMARK(BM_FixedDatapathBuild)->Unit(benchmark::kMicrosecond);

// One board's engine construction at the default FixedPoint config:
// SmartSSD and device setup, xclbin placement and the weight-image DMA.
// Arg 0 stages the weights from params, as a standalone engine does;
// arg 1 adopts an already staged version, the cost of each board after
// the first in a fleet.
void BM_EngineConstruct(benchmark::State& state) {
  const kernels::EngineConfig config{};
  const auto staged = std::make_shared<const kernels::StagedWeights>(
      shared().config, shared().params, config);
  const bool adopt = state.range(0) != 0;
  for (auto _ : state) {
    csd::SmartSsd board{csd::SmartSsdConfig{}};
    xrt::Device device{board};
    if (adopt) {
      const kernels::CsdLstmEngine engine(device, shared().config, staged, config);
      benchmark::DoNotOptimize(&engine);
    } else {
      const kernels::CsdLstmEngine engine(device, shared().config,
                                          shared().params, config);
      benchmark::DoNotOptimize(&engine);
    }
  }
}
BENCHMARK(BM_EngineConstruct)->ArgName("staged")->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// A whole fleet's bring-up as perfbench times it for setup_s: the default
// 2-board FleetConfig (telemetry collector on its own thread), one
// staging, two boards and their serving pipelines. Only the constructor
// is timed; the registry reset and the teardown (thread joins) are not.
void BM_FleetConstruct(benchmark::State& state) {
  for (auto _ : state) {
    obs::registry().reset();
    const auto start = std::chrono::steady_clock::now();
    auto fleet = std::make_unique<serve::BoardFleet>(
        shared().config, shared().params, serve::FleetConfig{},
        [](const serve::Verdict&) {});
    state.SetIterationTime(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count());
    benchmark::DoNotOptimize(fleet.get());
    fleet.reset();
  }
}
BENCHMARK(BM_FleetConstruct)->UseManualTime()->Unit(benchmark::kMicrosecond);

void BM_ClassifierForward(benchmark::State& state) {
  const nn::LstmClassifier model(shared().config, shared().params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.forward(shared().sequence, nullptr));
  }
}
BENCHMARK(BM_ClassifierForward);

void BM_BackwardPass(benchmark::State& state) {
  const nn::LstmClassifier model(shared().config, shared().params);
  nn::LstmGradients grads = nn::LstmParams::zeros(shared().config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(backward(model, shared().sequence, 1, grads));
  }
}
BENCHMARK(BM_BackwardPass);

void BM_ScaledFixedMultiply(benchmark::State& state) {
  const auto a = fixedpt::ScaledFixed::from_double(0.1234);
  const auto b = fixedpt::ScaledFixed::from_double(-0.5678);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
}
BENCHMARK(BM_ScaledFixedMultiply);

// The fused datapaths' one arithmetic primitive, at the paper's scale on
// LSTM-range raws (|value| ≲ 1). Arg 0 is the shape of one row of the
// forward's GEMV: a unit-stride weight row against one fixed operand,
// accumulated in place. Arg 1 varies both operands and
// sums them as a dot product, so neither is loop-invariant.
void BM_InvariantScaleMul(benchmark::State& state) {
  const fixedpt::InvariantScale div(fixedpt::kPaperScale);
  const std::size_t width = nn::kNumGates * shared().config.hidden_dim;
  Rng rng(7);
  std::vector<std::int64_t> a(width);
  std::vector<std::int64_t> b(width);
  for (std::size_t i = 0; i < width; ++i) {
    a[i] = rng.uniform_int(-fixedpt::kPaperScale, fixedpt::kPaperScale);
    b[i] = rng.uniform_int(-fixedpt::kPaperScale, fixedpt::kPaperScale);
  }
  std::vector<std::int64_t> acc(width, 0);
  const bool both_vary = state.range(0) != 0;
  for (auto _ : state) {
    if (both_vary) {
      std::int64_t sum = 0;
      for (std::size_t i = 0; i < width; ++i) sum += div.mul(a[i], b[i]);
      benchmark::DoNotOptimize(sum);
    } else {
      const std::int64_t x = b[0];
      for (std::size_t i = 0; i < width; ++i) acc[i] += div.mul(a[i], x);
      benchmark::DoNotOptimize(acc.data());
      benchmark::ClobberMemory();
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(width));
}
BENCHMARK(BM_InvariantScaleMul)->ArgName("both_vary")->Arg(0)->Arg(1);

// One token's GEMV in the fused LSTM forward: the packed (embed+hidden) ×
// 4·hidden [W_x; W_h] block against one [x_t; h] operand per row. Arg
// scalar:1 runs the loop of mul_add_row_scalar over the rows, the oracle.
// Otherwise fixedpt::mul_add_rows runs (the ISA it selects is in the
// context as row_kernel): multi_row:1 is one call over the block, as the
// forward makes, multi_row:0 one call per row, so the accumulator row
// round-trips through memory per row; aligned:1 reads a copy of the block
// whose magnitudes and sign masks start on a 64-byte boundary, aligned:0
// the block as allocated (its offset from 64 bytes is the label).
void BM_FixedRowKernel(benchmark::State& state) {
  const fixedpt::InvariantScale div(fixedpt::kPaperScale);
  const std::size_t rows = shared().config.embed_dim + shared().config.hidden_dim;
  const std::size_t width = nn::kNumGates * shared().config.hidden_dim;
  Rng rng(11);
  std::vector<std::int64_t> w(rows * width);
  for (std::int64_t& v : w) v = rng.uniform_int(-fixedpt::kPaperScale, fixedpt::kPaperScale);
  std::vector<std::int64_t> x(rows);
  for (std::int64_t& v : x) v = rng.uniform_int(-fixedpt::kPaperScale, fixedpt::kPaperScale);
  fixedpt::PackedRows packed(div, rows, width);
  for (std::size_t i = 0; i < rows; ++i) {
    packed.set_row(i, std::span(w).subspan(i * width, width));
  }
  fixedpt::RowBlock block = packed.block();
  const std::size_t sign_pitch = fixedpt::sign_bytes(width);
  // 64-byte aligned copies, carved out of storage 64 bytes longer.
  std::vector<std::uint64_t> magnitude_storage(rows * width + 8);
  std::vector<std::uint8_t> sign_storage(rows * sign_pitch + 64);
  const auto align64 = [](auto* p) {
    const auto address = reinterpret_cast<std::uintptr_t>(p);
    return reinterpret_cast<decltype(p)>((address + 63) & ~std::uintptr_t{63});
  };
  const bool scalar = state.range(0) != 0;
  const bool multi_row = state.range(1) != 0;
  if (state.range(2) != 0) {
    std::uint64_t* magnitude = align64(magnitude_storage.data());
    std::uint8_t* sign = align64(sign_storage.data());
    std::copy_n(block.magnitude, rows * width, magnitude);
    std::copy_n(block.sign, rows * sign_pitch, sign);
    block.magnitude = magnitude;
    block.sign = sign;
  }
  state.SetLabel("offset " +
                 std::to_string(reinterpret_cast<std::uintptr_t>(block.magnitude) % 64));
  std::vector<std::int64_t> acc(width, 0);
  for (auto _ : state) {
    if (scalar) {
      for (std::size_t i = 0; i < rows; ++i) {
        fixedpt::mul_add_row_scalar(div, w.data() + i * width, x[i], acc.data(), width);
      }
    } else if (multi_row) {
      fixedpt::mul_add_rows(div, block, x.data(), acc.data(), width);
    } else {
      for (std::size_t i = 0; i < rows; ++i) {
        const fixedpt::RowBlock row{block.magnitude + i * width, block.sign + i * sign_pitch,
                                    1, width, block.x_limit};
        fixedpt::mul_add_rows(div, row, x.data() + i, acc.data(), width);
      }
    }
    benchmark::DoNotOptimize(acc.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(rows * width));
}
BENCHMARK(BM_FixedRowKernel)
    ->ArgNames({"scalar", "multi_row", "aligned"})
    ->Args({1, 0, 0})
    ->Args({0, 0, 0})
    ->Args({0, 0, 1})
    ->Args({0, 1, 0})
    ->Args({0, 1, 1});

void BM_SigmoidFixed(benchmark::State& state) {
  const auto x = fixedpt::ScaledFixed::from_double(1.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixedpt::sigmoid_fixed(x));
  }
}
BENCHMARK(BM_SigmoidFixed);

void BM_SoftsignFixed(benchmark::State& state) {
  const auto x = fixedpt::ScaledFixed::from_double(-2.25);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixedpt::softsign_fixed(x));
  }
}
BENCHMARK(BM_SoftsignFixed);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("row_kernel", csdml::fixedpt::row_kernel_isa());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
