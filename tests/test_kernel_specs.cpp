// Assertions on the Fig. 3 shape: what each optimization does to each
// kernel under the HLS cost model (see DESIGN.md section 4).
#include "kernels/specs.hpp"

#include <gtest/gtest.h>

#include "hls/cost_model.hpp"
#include "hls/resources.hpp"
#include "kernels/engine.hpp"

namespace csdml::kernels {
namespace {

const nn::LstmConfig kConfig;  // the paper's model

const hls::HlsCostModel& model() {
  static const hls::HlsCostModel m = hls::HlsCostModel::ultrascale_default();
  return m;
}

/// Per-kernel microseconds of the paper's build (four gate CUs, AXI
/// memory links), as Fig. 3 plots them.
struct KernelMicros {
  double preprocess;
  double gates;
  double hidden;
  double total() const { return preprocess + gates + hidden; }
};

KernelMicros fig3_us(OptimizationLevel level) {
  const KernelTimings t = kernel_timings(model(), kConfig, level, 4);
  return {t.preprocess.as_microseconds(), t.gates.as_microseconds(),
          t.hidden_state.as_microseconds()};
}

TEST(Fig3, KernelTimingsMatchTableAndEngine) {
  // The measured column of EXPERIMENTS.md's Fig. 3 table, as printed to
  // three decimals (five for the one-cycle gates bar).
  struct Row {
    OptimizationLevel level;
    KernelMicros measured;
  };
  constexpr Row kTable[] = {
      {OptimizationLevel::Vanilla, {0.790, 1.203, 5.523}},
      {OptimizationLevel::II, {0.713, 0.190, 1.746}},
      {OptimizationLevel::FixedPoint, {0.713, 0.00333, 1.437}},
  };
  Rng rng(5);
  const nn::LstmParams params = nn::LstmParams::glorot(kConfig, rng);
  for (const Row& row : kTable) {
    SCOPED_TRACE(optimization_name(row.level));
    const KernelMicros m = fig3_us(row.level);
    EXPECT_NEAR(m.preprocess, row.measured.preprocess, 0.0005);
    EXPECT_NEAR(m.gates, row.measured.gates, 0.0005);
    EXPECT_NEAR(m.hidden, row.measured.hidden, 0.0005);

    // The engine charges exactly these timings for every build.
    for (const std::uint32_t cus : {1u, 2u, 4u}) {
      for (const KernelLink link : {KernelLink::AxiMemory, KernelLink::Stream}) {
        SCOPED_TRACE(testing::Message() << cus << " CUs, link "
                                        << static_cast<int>(link));
        csd::SmartSsd board{csd::SmartSsdConfig{}};
        xrt::Device device{board};
        const CsdLstmEngine engine(
            device, kConfig, params,
            EngineConfig{.level = row.level, .gate_cu_count = cus, .link = link});
        const KernelTimings expected =
            kernel_timings(model(), kConfig, row.level, cus, link);
        const KernelTimings& actual = engine.per_item_timings();
        EXPECT_EQ(actual.preprocess.picos, expected.preprocess.picos);
        EXPECT_EQ(actual.gates.picos, expected.gates.picos);
        EXPECT_EQ(actual.hidden_state.picos, expected.hidden_state.picos);
      }
    }
  }
}

TEST(Fig3, FewerCusRunMoreGateRounds) {
  // ceil(4 / CUs) rounds of the one-CU gate time.
  for (const auto level : {OptimizationLevel::Vanilla, OptimizationLevel::II,
                           OptimizationLevel::FixedPoint}) {
    const Duration four = kernel_timings(model(), kConfig, level, 4).gates;
    EXPECT_EQ(kernel_timings(model(), kConfig, level, 3).gates.picos, 2 * four.picos);
    EXPECT_EQ(kernel_timings(model(), kConfig, level, 2).gates.picos, 2 * four.picos);
    EXPECT_EQ(kernel_timings(model(), kConfig, level, 1).gates.picos, 4 * four.picos);
  }
}

TEST(Fig3, VanillaTotalMatchesPaper) {
  // Paper: ~7.153 us total for the vanilla implementation.
  EXPECT_NEAR(fig3_us(OptimizationLevel::Vanilla).total(), 7.153, 0.72);
}

TEST(Fig3, FixedPointTotalMatchesPaper) {
  // Paper: 2.15133 us with all optimizations.
  EXPECT_NEAR(fig3_us(OptimizationLevel::FixedPoint).total(), 2.15133, 0.22);
}

TEST(Fig3, FixedPointGatesIsOneCycle) {
  // Paper's fixed-point gates bar: 0.00333 us = exactly one 300 MHz cycle.
  EXPECT_NEAR(fig3_us(OptimizationLevel::FixedPoint).gates, 0.00333, 2e-4);
}

TEST(Fig3, PreprocessRemainsFairlyFixed) {
  // "the execution time of kernel_preprocess remained fairly fixed"
  const double v = fig3_us(OptimizationLevel::Vanilla).preprocess;
  const double ii = fig3_us(OptimizationLevel::II).preprocess;
  const double fp = fig3_us(OptimizationLevel::FixedPoint).preprocess;
  EXPECT_NEAR(v, 0.800, 0.09);
  EXPECT_NEAR(ii, 0.743, 0.08);
  EXPECT_NEAR(fp, 0.740, 0.08);
  EXPECT_LT(std::abs(v - fp) / v, 0.15);
}

TEST(Fig3, IiReducesHiddenStateByWideMargin) {
  // "II minimization reduced the execution time of kernel_hidden_state by
  // a relatively wide margin"
  const double v = fig3_us(OptimizationLevel::Vanilla).hidden;
  const double ii = fig3_us(OptimizationLevel::II).hidden;
  EXPECT_NEAR(v, 5.076, 0.55);
  EXPECT_NEAR(ii, 1.651, 0.18);
  EXPECT_GT(v / ii, 2.5);
}

TEST(Fig3, FixedPointDramaticallyReducesGates) {
  // "fixed-point arithmetic dramatically decreased the execution time of
  // kernel_gates"
  const double v = fig3_us(OptimizationLevel::Vanilla).gates;
  const double fp = fig3_us(OptimizationLevel::FixedPoint).gates;
  EXPECT_NEAR(v, 1.277, 0.14);
  EXPECT_GT(v / fp, 100.0);
}

TEST(Fig3, EachOptimizationLevelIsFasterOverall) {
  const double v = fig3_us(OptimizationLevel::Vanilla).total();
  const double ii = fig3_us(OptimizationLevel::II).total();
  const double fp = fig3_us(OptimizationLevel::FixedPoint).total();
  EXPECT_GT(v, ii);
  EXPECT_GT(ii, fp);
  // The headline reduction: ~3.3x from vanilla to fully optimized.
  EXPECT_NEAR(v / fp, 7.153 / 2.15133, 0.6);
}

TEST(Specs, OptimizationNames) {
  EXPECT_STREQ(optimization_name(OptimizationLevel::Vanilla), "vanilla");
  EXPECT_STREQ(optimization_name(OptimizationLevel::II), "ii");
  EXPECT_STREQ(optimization_name(OptimizationLevel::FixedPoint), "fixed-point");
}

TEST(Specs, OnlyFixedPointReportsAmortizedGates) {
  EXPECT_FALSE(gates_reports_amortized_ii(OptimizationLevel::Vanilla));
  EXPECT_FALSE(gates_reports_amortized_ii(OptimizationLevel::II));
  EXPECT_TRUE(gates_reports_amortized_ii(OptimizationLevel::FixedPoint));
}

TEST(Specs, GatesUseDataflowPerPaper) {
  const nn::LstmConfig config;
  for (const auto level : {OptimizationLevel::Vanilla, OptimizationLevel::II,
                           OptimizationLevel::FixedPoint}) {
    EXPECT_TRUE(make_gates_spec(config, level).dataflow);
    EXPECT_FALSE(make_preprocess_spec(config, level, 4).dataflow);
    EXPECT_FALSE(make_hidden_state_spec(config, level, 4).dataflow);
  }
}

TEST(Specs, FixedPointGatesUseIntegerOps) {
  const nn::LstmConfig config;
  const hls::KernelSpec fp = make_gates_spec(config, OptimizationLevel::FixedPoint);
  for (const auto& op : fp.loops.front().body_ops) {
    EXPECT_NE(op.kind, hls::OpKind::FloatMul);
    EXPECT_NE(op.kind, hls::OpKind::FloatExp);
  }
  const hls::KernelSpec fl = make_gates_spec(config, OptimizationLevel::Vanilla);
  bool has_float = false;
  for (const auto& op : fl.loops.front().body_ops) {
    has_float |= op.kind == hls::OpKind::FloatMul;
  }
  EXPECT_TRUE(has_float);
}

TEST(Specs, PreprocessCopiesScaleWithCuCount) {
  const nn::LstmConfig config;
  const auto two = make_preprocess_spec(config, OptimizationLevel::Vanilla, 2);
  const auto four = make_preprocess_spec(config, OptimizationLevel::Vanilla, 4);
  EXPECT_EQ(four.transfers.size(), two.transfers.size() + 2);
}

TEST(Specs, WholeDesignFitsKu15p) {
  // The SmartSSD's own FPGA must be able to host the design (4 gate CUs).
  const nn::LstmConfig config;
  for (const auto level : {OptimizationLevel::Vanilla, OptimizationLevel::II,
                           OptimizationLevel::FixedPoint}) {
    hls::ResourceEstimate total;
    total += hls::estimate_resources(make_preprocess_spec(config, level, 4));
    const auto gate = hls::estimate_resources(make_gates_spec(config, level));
    total += gate * 4;
    total += hls::estimate_resources(make_hidden_state_spec(config, level, 4));
    EXPECT_TRUE(total.fits(hls::FpgaPart::ku15p()))
        << optimization_name(level) << " utilization "
        << total.utilization(hls::FpgaPart::ku15p());
  }
}

}  // namespace
}  // namespace csdml::kernels
