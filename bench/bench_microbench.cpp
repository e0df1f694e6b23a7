// google-benchmark microbenchmarks of the hot software paths: the
// functional datapaths (what the simulator actually executes per
// inference), fixed-point primitives, and training steps. These measure
// *host* wall-clock of the simulator itself, complementing the modelled
// device times the other benches report.
#include <benchmark/benchmark.h>

#include "fixed/activations.hpp"
#include "kernels/functional.hpp"
#include "kernels/gru_functional.hpp"
#include "nn/train.hpp"

namespace {

using namespace csdml;

struct Shared {
  nn::LstmConfig config;
  nn::LstmParams params;
  nn::GruConfig gru_config;
  nn::GruParams gru_params;
  nn::Sequence sequence;

  Shared() {
    Rng rng(3);
    params = nn::LstmParams::glorot(config, rng);
    gru_params = nn::GruParams::glorot(gru_config, rng);
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

// Weight staging: pre-scaling plus the fused-table build, paid once per
// engine construction and once per hot swap.
void BM_FixedDatapathBuild(benchmark::State& state) {
  for (auto _ : state) {
    const kernels::FixedDatapath path(shared().config, shared().params);
    benchmark::DoNotOptimize(&path);
  }
}
BENCHMARK(BM_FixedDatapathBuild)->Unit(benchmark::kMicrosecond);

void BM_FixedGruDatapathBuild(benchmark::State& state) {
  for (auto _ : state) {
    const kernels::FixedGruDatapath path(shared().gru_config, shared().gru_params);
    benchmark::DoNotOptimize(&path);
  }
}
BENCHMARK(BM_FixedGruDatapathBuild)->Unit(benchmark::kMicrosecond);

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

BENCHMARK_MAIN();
