// Request-scoped tracing: span mechanics (nesting, tags, retention) and the
// end-to-end propagation contract — one TraceId from detector ingress down
// through the engine, NVMe transfers and kernel launches, surviving retries
// and the host-fallback detour.
#include "obs/span_trace.hpp"

#include <gtest/gtest.h>

#include "baselines/host_baseline.hpp"
#include "common/rng.hpp"
#include "csd/nvme.hpp"
#include "detect/detector.hpp"
#include "faults/fault_plan.hpp"
#include "kernels/engine.hpp"

namespace csdml::obs {
namespace {

const SpanRecord* find_span(const std::vector<const SpanRecord*>& spans,
                            const std::string& name) {
  for (const SpanRecord* span : spans) {
    if (span->name == name) return span;
  }
  return nullptr;
}

TEST(SpanTrace, NestingTracksCallStructure) {
  SpanTrace trace;
  const TraceId tid = trace.begin_trace();
  EXPECT_NE(tid, 0u);
  EXPECT_TRUE(trace.in_trace());

  const SpanId root = trace.begin_span("root", TimePoint{});
  const SpanId child = trace.begin_span("child", TimePoint{} + Duration::microseconds(1));
  EXPECT_EQ(trace.open_depth(), 2u);
  trace.tag(child, "k", "v");
  trace.end_span(child, TimePoint{} + Duration::microseconds(2));
  const SpanId sibling = trace.begin_span("sibling", TimePoint{} + Duration::microseconds(3));
  trace.end_span(sibling, TimePoint{} + Duration::microseconds(4));
  trace.end_span(root, TimePoint{} + Duration::microseconds(5));
  trace.end_trace();
  EXPECT_FALSE(trace.in_trace());

  const auto spans = trace.trace_spans(tid);
  ASSERT_EQ(spans.size(), 3u);
  const SpanRecord* root_span = find_span(spans, "root");
  const SpanRecord* child_span = find_span(spans, "child");
  const SpanRecord* sibling_span = find_span(spans, "sibling");
  ASSERT_NE(root_span, nullptr);
  ASSERT_NE(child_span, nullptr);
  ASSERT_NE(sibling_span, nullptr);
  EXPECT_EQ(root_span->parent, 0u);
  EXPECT_EQ(child_span->parent, root_span->id);
  EXPECT_EQ(sibling_span->parent, root_span->id);
  ASSERT_NE(child_span->tag("k"), nullptr);
  EXPECT_EQ(*child_span->tag("k"), "v");
  EXPECT_EQ(child_span->tag("missing"), nullptr);
  EXPECT_EQ(child_span->duration().as_microseconds(), 1.0);
}

TEST(SpanTrace, DisabledIsANoOp) {
  SpanTrace trace;
  trace.set_enabled(false);
  EXPECT_EQ(trace.begin_trace(), 0u);
  EXPECT_EQ(trace.begin_span("x", TimePoint{}), 0u);
  trace.tag_current("k", "v");
  trace.end_span(1, TimePoint{});
  trace.end_trace();
  EXPECT_TRUE(trace.spans().empty());
  record_span(trace, "y", TimePoint{}, TimePoint{});
  EXPECT_TRUE(trace.spans().empty());
}

TEST(SpanTrace, RecordSpanOnlyInsideATrace) {
  SpanTrace trace;
  // Outside any trace: init-time work stays out of the causal record.
  record_span(trace, "init", TimePoint{}, TimePoint{});
  EXPECT_TRUE(trace.spans().empty());

  const TraceId tid = trace.begin_trace();
  const SpanId root = trace.begin_span("root", TimePoint{});
  record_span(trace, "leaf", TimePoint{}, TimePoint{} + Duration::microseconds(1));
  trace.end_span(root, TimePoint{} + Duration::microseconds(2));
  trace.end_trace();
  const SpanRecord* leaf = find_span(trace.trace_spans(tid), "leaf");
  ASSERT_NE(leaf, nullptr);
  EXPECT_EQ(leaf->parent, trace.trace_spans(tid)[0]->id);
}

TEST(SpanTrace, RecordSpanRejectsInvertedSpan) {
  // An inverted span is a caller bug, checked whether or not it would be
  // recorded.
  SpanTrace trace;
  EXPECT_THROW(record_span(trace, "x", TimePoint{10}, TimePoint{5}),
               PreconditionError);
  trace.begin_trace();
  EXPECT_THROW(record_span(trace, "x", TimePoint{10}, TimePoint{5}),
               PreconditionError);
  trace.end_trace();
  EXPECT_TRUE(trace.spans().empty());
}

TEST(SpanTrace, EndTraceClosesUnwoundSpansZeroLength) {
  SpanTrace trace;
  trace.begin_trace();
  trace.begin_span("outer", TimePoint{} + Duration::microseconds(10));
  trace.begin_span("inner", TimePoint{} + Duration::microseconds(20));
  trace.end_trace();  // exception-unwind shape: nothing was end_span()ed
  EXPECT_EQ(trace.open_depth(), 0u);
  for (const SpanRecord& span : trace.spans()) {
    EXPECT_EQ(span.end.picos, span.start.picos) << span.name;
  }
}

TEST(SpanTrace, RetentionShedsOldestHalfInOneBatch) {
  SpanTrace trace;
  trace.set_retention(8);
  for (int i = 0; i < 12; ++i) {
    trace.begin_trace();
    const SpanId id = trace.begin_span("s" + std::to_string(i), TimePoint{});
    trace.end_span(id, TimePoint{});
    trace.end_trace();
    EXPECT_LE(trace.spans().size(), 8u);
  }
  // Trim fired at 9 spans (down to 4); the newest spans always survive.
  EXPECT_EQ(trace.spans().back().name, "s11");
  EXPECT_GT(trace.spans().front().trace_id, 1u);
}

struct TracedEngineFixture {
  static nn::LstmParams make_params(const nn::LstmConfig& config) {
    Rng rng(33);
    return nn::LstmParams::glorot(config, rng);
  }

  nn::LstmConfig model_config{.vocab_size = 48, .embed_dim = 4, .hidden_dim = 8};
  nn::LstmParams params = make_params(model_config);
  csd::SmartSsd board{csd::SmartSsdConfig{}};
  xrt::Device device{board};
  baselines::HostBaseline host{"host", model_config, params,
                               baselines::HostLatencyConfig{}};

  nn::Sequence sequence(std::uint64_t seed, int length = 24) const {
    Rng rng(seed);
    nn::Sequence seq;
    for (int i = 0; i < length; ++i) {
      seq.push_back(static_cast<nn::TokenId>(
          rng.uniform_int(0, model_config.vocab_size - 1)));
    }
    return seq;
  }
};

TEST(SpanTrace, EngineOpensItsOwnTraceWhenNoneActive) {
  TracedEngineFixture f;
  kernels::CsdLstmEngine engine(f.device, f.model_config, f.params,
                                kernels::EngineConfig{.batch_threads = 1});
  (void)engine.infer(f.sequence(1));
  SpanTrace& spans = engine.span_trace();
  EXPECT_EQ(spans.trace_count(), 1u);
  const TraceId tid = spans.spans().front().trace_id;
  const auto trace = spans.trace_spans(tid);
  const SpanRecord* infer = find_span(trace, "engine.infer");
  const SpanRecord* lstm = find_span(trace, "lstm_sequence");
  const SpanRecord* gates = find_span(trace, "kernel_gates");
  ASSERT_NE(infer, nullptr);
  ASSERT_NE(lstm, nullptr);
  ASSERT_NE(gates, nullptr);
  EXPECT_EQ(infer->parent, 0u);
  EXPECT_EQ(lstm->parent, infer->id);
  EXPECT_EQ(gates->parent, lstm->id);
}

TEST(SpanTrace, TraceIdSurvivesRetriesUnderTheDetectorRoot) {
  TracedEngineFixture f;
  kernels::CsdLstmEngine engine(
      f.device, f.model_config, f.params,
      kernels::EngineConfig{.batch_threads = 1,
                            .retry = {.max_attempts = 3}});
  faults::FaultConfig config;
  config.xrt_launch_failure_probability = 1.0;
  config.max_faults = 2;  // two failed attempts, third succeeds
  faults::FaultPlan plan(config);
  f.board.set_fault_plan(&plan);

  // Threshold 0 with no debounce: every classification alerts, so the 8th
  // call hands back a Detection carrying its trace id.
  detect::StreamingDetector detector(
      engine, detect::DetectorConfig{.window_length = 8,
                                     .hop = 4,
                                     .threshold = 0.0,
                                     .consecutive_alerts = 1});
  std::optional<detect::Detection> detection;
  for (int i = 0; i < 8; ++i) {
    detection = detector.on_api_call(1, static_cast<nn::TokenId>(i % 48));
  }
  ASSERT_TRUE(detection.has_value());
  ASSERT_NE(detection->trace_id, 0u);

  const auto trace = engine.span_trace().trace_spans(detection->trace_id);
  const SpanRecord* root = find_span(trace, "detector.classify");
  const SpanRecord* infer = find_span(trace, "engine.infer");
  ASSERT_NE(root, nullptr);
  ASSERT_NE(infer, nullptr);
  EXPECT_EQ(root->parent, 0u);
  EXPECT_EQ(infer->parent, root->id);
  // The retry storm is attributed to this classification, not lost in an
  // aggregate counter: both failed attempts ride the same trace id.
  ASSERT_NE(infer->tag("retries"), nullptr);
  EXPECT_EQ(*infer->tag("retries"), "2");
  for (const SpanRecord* span : trace) {
    EXPECT_EQ(span->trace_id, detection->trace_id) << span->name;
  }
}

TEST(SpanTrace, FallbackServeStaysInsideTheRequestTrace) {
  TracedEngineFixture f;
  kernels::CsdLstmEngine engine(
      f.device, f.model_config, f.params,
      kernels::EngineConfig{.batch_threads = 1,
                            .retry = {.max_attempts = 1,
                                      .recovery_probe_interval = 0}});
  engine.set_fallback(&f.host);
  faults::FaultConfig config;
  config.xrt_launch_failure_probability = 1.0;
  faults::FaultPlan plan(config);
  f.board.set_fault_plan(&plan);

  detect::StreamingDetector detector(
      engine, detect::DetectorConfig{.window_length = 8,
                                     .hop = 4,
                                     .threshold = 0.0,
                                     .consecutive_alerts = 1});
  std::optional<detect::Detection> detection;
  for (int i = 0; i < 8; ++i) {
    detection = detector.on_api_call(1, static_cast<nn::TokenId>(i % 48));
  }
  ASSERT_TRUE(detection.has_value());
  EXPECT_TRUE(detection->degraded);
  ASSERT_NE(detection->trace_id, 0u);

  const auto trace = engine.span_trace().trace_spans(detection->trace_id);
  const SpanRecord* root = find_span(trace, "detector.classify");
  const SpanRecord* fallback = find_span(trace, "host_fallback");
  ASSERT_NE(root, nullptr);
  ASSERT_NE(fallback, nullptr);
  ASSERT_NE(fallback->tag("fallback"), nullptr);
  EXPECT_EQ(*fallback->tag("fallback"), "host");
  ASSERT_NE(root->tag("degraded"), nullptr);
}

TEST(SpanTrace, NvmeTransferAndKernelNestUnderOneRequest) {
  TracedEngineFixture f;
  kernels::CsdLstmEngine engine(f.device, f.model_config, f.params,
                                kernels::EngineConfig{.batch_threads = 1});
  SpanTrace& spans = engine.span_trace();
  const TraceId tid = spans.begin_trace();
  const SpanId request = spans.begin_span("request", f.device.now());

  csd::NvmeQueue queue(f.board, csd::NvmeQueueConfig{});
  csd::NvmeCommand load;
  load.opcode = csd::NvmeOpcode::FpgaP2pLoad;
  load.command_id = 7;
  load.lba = 0;
  load.block_count = 1;
  queue.submit(load, f.device.now());
  const csd::NvmeCompletion done = queue.wait_oldest();
  ASSERT_TRUE(done.success);

  (void)engine.infer(f.sequence(9));
  spans.end_span(request, f.device.now());
  spans.end_trace();

  const auto trace = spans.trace_spans(tid);
  const SpanRecord* root = find_span(trace, "request");
  const SpanRecord* nvme = find_span(trace, "nvme.fpga_p2p_load");
  const SpanRecord* p2p = find_span(trace, "p2p_read");
  const SpanRecord* infer = find_span(trace, "engine.infer");
  const SpanRecord* gates = find_span(trace, "kernel_gates");
  ASSERT_NE(root, nullptr);
  ASSERT_NE(nvme, nullptr);
  ASSERT_NE(p2p, nullptr);
  ASSERT_NE(infer, nullptr);
  ASSERT_NE(gates, nullptr);
  // Parent/child order mirrors the datapath: the NVMe command owns its NAND
  // -> FPGA transfer; the kernel runs under the engine; both under the
  // request; everything under one trace id.
  EXPECT_EQ(nvme->parent, root->id);
  EXPECT_EQ(p2p->parent, nvme->id);
  EXPECT_EQ(infer->parent, root->id);
  // Recording order mirrors submission order: the weight load lands in the
  // record before the kernel that consumes it. (The NVMe queue keeps its
  // own per-command clock, so timestamps across the two lanes may overlap.)
  const auto position = [&trace](const SpanRecord* span) {
    for (std::size_t i = 0; i < trace.size(); ++i) {
      if (trace[i] == span) return i;
    }
    return trace.size();
  };
  EXPECT_LT(position(nvme), position(gates));
  for (const SpanRecord* span : trace) {
    EXPECT_EQ(span->trace_id, tid) << span->name;
  }
}

TEST(SpanTrace, SummaryAttributesStagesAndTaggedEvents) {
  TracedEngineFixture f;
  kernels::CsdLstmEngine engine(f.device, f.model_config, f.params,
                                kernels::EngineConfig{.batch_threads = 1});
  for (int i = 0; i < 3; ++i) (void)engine.infer(f.sequence(20 + i));
  const std::string summary = engine.span_trace().summary();
  EXPECT_NE(summary.find("3 traces"), std::string::npos);
  EXPECT_NE(summary.find("engine.infer"), std::string::npos);
  EXPECT_NE(summary.find("kernel_gates"), std::string::npos);
  EXPECT_NE(summary.find("share"), std::string::npos);
}

}  // namespace
}  // namespace csdml::obs
