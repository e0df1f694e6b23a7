#include "kernels/engine.hpp"

#include <chrono>
#include <cstring>

#include "baselines/host_baseline.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "faults/fault_plan.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/span_trace.hpp"

namespace csdml::kernels {

namespace {

/// Bank assignment: even CUs + preprocess on bank 0, odd CUs + hidden on
/// bank 1 ("a conservative two DDR banks", Section III-C). The weight
/// image and every sequence buffer live on bank 0.
constexpr std::uint32_t kSequenceBank = 0;
/// First launch-retry backoff; doubles per retry.
constexpr Duration kBaseBackoff = Duration::microseconds(50);

/// Request-scoped span covering one engine entry point. If no trace is open
/// (direct engine use, no detector in front) it opens one so the span tree
/// is never orphaned, and closes it again on scope exit — including the
/// exception unwind out of degraded_infer when no fallback is configured.
class ScopedRequestSpan {
 public:
  ScopedRequestSpan(obs::SpanTrace& spans, xrt::Device& device,
                    const char* name)
      : spans_(spans), device_(device) {
    if (!spans_.enabled()) return;
    own_trace_ = !spans_.in_trace();
    if (own_trace_) spans_.begin_trace();
    span_ = spans_.begin_span(name, device_.now());
    active_ = true;
  }
  ScopedRequestSpan(const ScopedRequestSpan&) = delete;
  ScopedRequestSpan& operator=(const ScopedRequestSpan&) = delete;
  ~ScopedRequestSpan() {
    if (!active_) return;
    spans_.end_span(span_, device_.now());
    if (own_trace_) spans_.end_trace();
  }
  bool active() const { return active_; }

 private:
  obs::SpanTrace& spans_;
  xrt::Device& device_;
  obs::SpanId span_{0};
  bool own_trace_{false};
  bool active_{false};
};

/// Serialises the parameters as the raw little-endian float32 image the
/// host program stages into FPGA DDR, in one allocation.
std::vector<std::uint8_t> weight_image(const nn::LstmParams& params) {
  std::vector<std::uint8_t> bytes(params.total_parameter_count() * sizeof(float));
  std::uint8_t* out = bytes.data();
  const auto push = [&out](const double* values, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i, out += sizeof(float)) {
      const float word = static_cast<float>(values[i]);
      std::memcpy(out, &word, sizeof(float));
    }
  };
  push(params.embedding.data(), params.embedding.size());
  for (std::size_t g = 0; g < nn::kNumGates; ++g) {
    push(params.w_x[g].data(), params.w_x[g].size());
    push(params.w_h[g].data(), params.w_h[g].size());
    push(params.bias[g].data(), params.bias[g].size());
  }
  push(params.dense_w.data(), params.dense_w.size());
  push(&params.dense_b, 1);
  return bytes;
}

std::vector<std::uint8_t> sequence_image(const nn::Sequence& sequence) {
  std::vector<std::uint8_t> bytes(sequence.size() * sizeof(nn::TokenId));
  std::memcpy(bytes.data(), sequence.data(), bytes.size());
  return bytes;
}

}  // namespace

StagedWeights::StagedWeights(const nn::LstmConfig& model_config,
                             const nn::LstmParams& params,
                             const EngineConfig& config)
    : model_config_(model_config), level_(config.level),
      fixed_scale_(config.fixed_scale) {
  CSDML_REQUIRE(params_match_config(model_config_, params),
                "staged weights: params do not match the model architecture");
  // Staging time (scaling or, for the float path, the token table, and
  // the DDR image) is tracked so CTI hot swaps stay observable.
  const auto start = std::chrono::steady_clock::now();
  if (level_ == OptimizationLevel::FixedPoint) {
    fixed_path_.emplace(model_config_, params, fixed_scale_);
  } else {
    float_path_.emplace(model_config_, params);
  }
  image_ = weight_image(params);
  const double elapsed_us =
      std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                start)
          .count();
  obs::registry().observe("engine.weight_table_rebuild_us", elapsed_us);
}

double StagedWeights::infer(nn::TokenSpan sequence, FloatScratch& float_scratch,
                            FixedScratch& fixed_scratch) const {
  return fixed_path_ ? fixed_path_->infer(sequence, fixed_scratch)
                     : float_path_->infer(sequence, float_scratch);
}

CsdLstmEngine::CsdLstmEngine(xrt::Device& device, const nn::LstmConfig& model_config,
                             std::shared_ptr<const StagedWeights> weights,
                             EngineConfig config)
    : device_(device), model_config_(model_config), config_(config) {
  CSDML_REQUIRE(config_.gate_cu_count >= 1 && config_.gate_cu_count <= 4,
                "gate CU count must be in [1, 4]");
  check_adoptable(weights.get());

  // Build the xclbin: one preprocess kernel, `gate_cu_count` gate CUs, one
  // hidden-state kernel; the timings come from the same specs.
  const LstmKernelSpecs specs = make_kernel_specs(
      model_config_, config_.level, config_.gate_cu_count, config_.link);
  xrt::Xclbin xclbin;
  xclbin.name = std::string("lstm_") + optimization_name(config_.level);
  xclbin.kernels["kernel_preprocess"] = specs.preprocess;
  for (std::uint32_t cu = 0; cu < config_.gate_cu_count; ++cu) {
    hls::KernelSpec copy = specs.gates;
    copy.name = "kernel_gates_cu" + std::to_string(cu);
    xclbin.kernels[copy.name] = std::move(copy);
  }
  xclbin.kernels["kernel_hidden_state"] = specs.hidden_state;
  device_.load_xclbin(xclbin);
  per_item_timings_ = kernel_timings(device_.cost_model(), specs);

  // Host program initialisation (Fig. 2): the weight/embedding image moves
  // host -> PCIe -> FPGA DDR before any inference runs.
  weights_bo_.emplace(device_.alloc_bo(weights->image().size(), kSequenceBank));
  adopt(std::move(weights));
}

CsdLstmEngine::CsdLstmEngine(xrt::Device& device, const nn::LstmConfig& model_config,
                             const nn::LstmParams& params, EngineConfig config)
    : CsdLstmEngine(device, model_config,
                    std::make_shared<const StagedWeights>(model_config, params, config),
                    config) {}

CsdLstmEngine::CsdLstmEngine(xrt::Device& device, const nn::ModelSnapshot& snapshot,
                             EngineConfig config)
    : CsdLstmEngine(device, snapshot.config, snapshot.params, config) {}

void CsdLstmEngine::check_adoptable(const StagedWeights* weights) const {
  CSDML_REQUIRE(weights != nullptr, "engine: no staged weights");
  CSDML_REQUIRE(weights->level() == config_.level &&
                    weights->fixed_scale() == config_.fixed_scale,
                "engine: weights staged for another optimization level or scale");
  CSDML_REQUIRE(weights->model_config() == model_config_ &&
                    params_match_config(model_config_, weights->params()),
                "engine: weights staged for another model architecture");
}

ThreadPool& CsdLstmEngine::batch_pool() {
  if (batch_pool_ == nullptr) {
    batch_pool_ = std::make_unique<ThreadPool>(config_.batch_threads);
    scratch_.resize(batch_pool_->thread_count());
  }
  return *batch_pool_;
}

void CsdLstmEngine::set_fallback(const baselines::HostBaseline* fallback) {
  fallback_.store(fallback, std::memory_order_release);
}

void CsdLstmEngine::restore_health() {
  if (!healthy_.exchange(true, std::memory_order_relaxed)) {
    obs::registry().add_counter("engine.recoveries");
  }
  degraded_serves_.store(0, std::memory_order_relaxed);
}

bool CsdLstmEngine::attempt_launch() {
  faults::FaultPlan* plan = device_.board().fault_plan();
  if (plan == nullptr) return true;
  obs::MetricsRegistry& metrics = obs::registry();
  obs::SpanTrace& spans = device_.board().span_trace();
  const bool traced = spans.enabled() && spans.in_trace();
  for (std::uint32_t attempt = 0; attempt < config_.retry.max_attempts;
       ++attempt) {
    if (!plan->should_inject(faults::FaultKind::XrtLaunchFailure)) {
      if (attempt > 0) {
        metrics.add_counter("engine.retry_successes");
        if (traced) spans.tag_current("retries", std::to_string(attempt));
      }
      return true;
    }
    metrics.add_counter("engine.launch_faults");
    obs::FlightRecorder::instance().record(
        obs::FlightEventKind::Fault, "engine", "launch_fault", device_.now(),
        spans.current_trace(), attempt + 1);
    if (attempt + 1 < config_.retry.max_attempts) {
      // Exponential backoff before the next attempt, charged to the
      // simulated clock like any other device-side wait.
      const Duration backoff =
          kBaseBackoff * static_cast<std::int64_t>(1u << attempt);
      device_.advance_to(device_.now() + backoff);
      metrics.add_counter("engine.retries");
      metrics.observe("engine.retry_backoff_us", backoff.as_microseconds());
      obs::FlightRecorder::instance().record(
          obs::FlightEventKind::Retry, "engine", "launch_backoff",
          device_.now(), spans.current_trace(), attempt + 1);
    }
  }
  if (traced) {
    spans.tag_current("retries",
                      std::to_string(config_.retry.max_attempts - 1));
    spans.tag_current("fault", "launch_retries_exhausted");
  }
  if (healthy_.exchange(false, std::memory_order_relaxed)) {
    metrics.add_counter("engine.marked_unhealthy");
    CSDML_LOG_WARN("engine") << "kernel launch retries exhausted, CSD marked "
                                "unhealthy";
    if (traced) spans.tag_current("unhealthy_latch", "1");
    obs::FlightRecorder::instance().record(
        obs::FlightEventKind::UnhealthyLatch, "engine", "retries_exhausted",
        device_.now(), spans.current_trace(), config_.retry.max_attempts);
    obs::FlightRecorder::instance().auto_dump("unhealthy_latch");
  }
  degraded_serves_.store(0, std::memory_order_relaxed);
  return false;
}

bool CsdLstmEngine::ensure_csd_available() {
  if (healthy()) return attempt_launch();
  // Unhealthy: probe the pipeline again every Nth degraded serve so a
  // transient fault burst doesn't pin the detector on the host forever.
  const std::uint32_t interval = config_.retry.recovery_probe_interval;
  const std::uint32_t serve =
      degraded_serves_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (interval == 0 || serve % interval != 0) return false;
  faults::FaultPlan* plan = device_.board().fault_plan();
  if (plan != nullptr &&
      plan->should_inject(faults::FaultKind::XrtLaunchFailure)) {
    return false;  // probe failed too; stay degraded
  }
  healthy_.store(true, std::memory_order_relaxed);
  obs::registry().add_counter("engine.recoveries");
  CSDML_LOG_INFO("engine") << "recovery probe succeeded, CSD healthy again";
  obs::SpanTrace& spans = device_.board().span_trace();
  if (spans.enabled() && spans.in_trace()) {
    spans.tag_current("recovered", "1");
  }
  obs::FlightRecorder::instance().record(
      obs::FlightEventKind::Recovery, "engine", "probe_succeeded",
      device_.now(), spans.current_trace(), serve);
  return true;
}

InferenceResult CsdLstmEngine::degraded_infer(nn::TokenSpan sequence) {
  obs::MetricsRegistry& metrics = obs::registry();
  obs::SpanTrace& spans = device_.board().span_trace();
  const bool traced = spans.enabled() && spans.in_trace();
  const baselines::HostBaseline* fallback =
      fallback_.load(std::memory_order_acquire);
  if (fallback == nullptr) {
    metrics.add_counter("engine.unavailable_inferences");
    if (traced) spans.tag_current("csd_unavailable", "1");
    throw faults::CsdUnavailableError(
        "CSD unhealthy and no host fallback configured");
  }
  metrics.add_counter("engine.fallback_inferences");
  const double probability = fallback->infer(sequence);
  // The host serve still advances the single simulated clock so campaign
  // timelines stay monotonic across degraded stretches.
  const Duration host_time = fallback->batch_window_latency(1, sequence.size());
  const TimePoint start = device_.now();
  device_.advance_to(start + host_time);
  if (traced) {
    const obs::SpanId span = spans.begin_span("host_fallback", start);
    spans.tag(span, "fallback", "host");
    spans.end_span(span, start + host_time);
    spans.tag_current("fallback", "host");
  }
  obs::FlightRecorder::instance().record(
      obs::FlightEventKind::Fallback, "engine", "host_fallback",
      start + host_time, spans.current_trace());
  metrics.observe("engine.fallback_us", host_time.as_microseconds());

  InferenceResult result;
  result.probability = probability;
  result.label = probability >= 0.5 ? 1 : 0;
  result.device_time = host_time;
  result.degraded = true;
  return result;
}

void CsdLstmEngine::adopt(std::shared_ptr<const StagedWeights> weights) {
  // Same xclbin, fresh weight image: the paper's compile-once update path.
  // The version is served exactly when its image is in DDR, so the pointer
  // store and the DMA are one critical section; the version was staged
  // (its datapath included) before it got here.
  const auto device_guard = lock_device();
  weights_ = std::move(weights);
  weights_bo_->write(weights_->image());
  weights_bo_->sync_to_device();
  const std::uint32_t update_number =
      weight_updates_.fetch_add(1, std::memory_order_relaxed) + 1;
  obs::FlightRecorder::instance().record(
      obs::FlightEventKind::WeightUpdate, "engine", "adopt", device_.now(),
      device_.board().span_trace().current_trace(), update_number);
  obs::registry().add_counter("engine.weight_updates");
  CSDML_LOG_INFO("engine") << "adopted weight image"
                           << kv("update", update_number)
                           << kv("bytes", weights_->image().size())
                           << kv("bank", kSequenceBank);
}

void CsdLstmEngine::update_weights(const nn::LstmParams& params) {
  update_weights(std::make_shared<const StagedWeights>(model_config_, params, config_));
}

void CsdLstmEngine::update_weights(std::shared_ptr<const StagedWeights> weights) {
  check_adoptable(weights.get());
  adopt(std::move(weights));
}

InferenceResult CsdLstmEngine::infer(nn::TokenSpan sequence) {
  CSDML_REQUIRE(!sequence.empty(), "empty sequence");
  // The device lock serialises concurrent infer/infer_batch callers and
  // adopt (clock, trace, spans, the served version, engine-owned scratch
  // are all single-threaded state).
  const auto device_guard = lock_device();
  obs::SpanTrace& spans = device_.board().span_trace();
  ScopedRequestSpan scope(spans, device_, "engine.infer");
  if (!ensure_csd_available()) return degraded_infer(sequence);
  const KernelTimings& per_item = per_item_timings_;

  // Functional result through the configured datapath (fused path,
  // executor 0's scratch: allocation-free in steady state).
  const double probability = weights_->infer(
      sequence, scratch_[0].float_scratch, scratch_[0].fixed_scratch);

  const Duration total = per_item.sequence(sequence.size());

  const TimePoint start = device_.now();
  device_.advance_to(start + total);
  // Per-kernel spans (aggregated over the sequence) under the parent
  // span, so trace exports show the Fig. 3 breakdown per classification.
  if (scope.active()) {
    const TimePoint preprocess_done = start + per_item.preprocess;
    const TimePoint gates_done =
        preprocess_done + per_item.gates * static_cast<std::int64_t>(sequence.size());
    const obs::SpanId seq_span = spans.begin_span("lstm_sequence", start);
    obs::record_span(spans, "kernel_preprocess", start, preprocess_done);
    obs::record_span(spans, "kernel_gates", preprocess_done, gates_done);
    obs::record_span(spans, "kernel_hidden_state", gates_done, start + total);
    spans.end_span(seq_span, start + total);
  }

  obs::MetricsRegistry& metrics = obs::registry();
  metrics.add_counter("engine.inferences");
  metrics.observe("engine.kernel.preprocess_us",
                  per_item.preprocess.as_microseconds());
  metrics.observe("engine.kernel.gates_us", per_item.gates.as_microseconds());
  metrics.observe("engine.kernel.hidden_state_us",
                  per_item.hidden_state.as_microseconds());
  metrics.observe("engine.sequence_us", total.as_microseconds());

  InferenceResult result;
  result.probability = probability;
  result.label = probability >= 0.5 ? 1 : 0;
  result.device_time = total;
  result.per_item = per_item;
  return result;
}

CsdLstmEngine::BatchResult CsdLstmEngine::infer_batch(
    const std::vector<nn::Sequence>& sequences) {
  CSDML_REQUIRE(!sequences.empty(), "empty batch");
  const auto device_guard = lock_device();
  obs::SpanTrace& spans = device_.board().span_trace();
  ScopedRequestSpan scope(spans, device_, "engine.infer_batch");

  BatchResult result;
  result.probabilities.resize(sequences.size());
  result.labels.resize(sequences.size());
  std::size_t total_items = 0;
  for (const nn::Sequence& sequence : sequences) {
    CSDML_REQUIRE(!sequence.empty(), "empty sequence in batch");
    total_items += sequence.size();
  }

  // One availability decision per batch (the whole batch rides one
  // pipeline launch); a degraded batch is served window-by-window from
  // the host fallback so every classification is still produced.
  if (!ensure_csd_available()) {
    Duration total{};
    for (std::size_t i = 0; i < sequences.size(); ++i) {
      const InferenceResult one = degraded_infer(sequences[i]);
      result.probabilities[i] = one.probability;
      result.labels[i] = one.label;
      total += one.device_time;
    }
    result.device_time = total;
    const double degraded_seconds = static_cast<double>(total.picos) * 1e-12;
    result.windows_per_second =
        degraded_seconds > 0.0
            ? static_cast<double>(sequences.size()) / degraded_seconds
            : 0.0;
    result.degraded = true;
    obs::registry().add_counter("engine.batch_degraded");
    return result;
  }

  // Fan the functional forward passes out across the pool; each executor
  // owns one engine-held scratch entry, results land at their sequence
  // index. Every worker reads the version served here: the device lock
  // held across the batch keeps an adopt from replacing it mid-batch.
  ThreadPool& pool = batch_pool();
  const StagedWeights& weights = *weights_;
  pool.parallel_for(
      sequences.size(), [&](std::size_t executor, std::size_t index) {
        Scratch& scratch = scratch_[executor];
        const double probability = weights.infer(
            sequences[index], scratch.float_scratch, scratch.fixed_scratch);
        result.probabilities[index] = probability;
        result.labels[index] = probability >= 0.5 ? 1 : 0;
      });
  result.device_time = per_item_timings_.sequence(total_items);

  const TimePoint start = device_.now();
  device_.advance_to(start + result.device_time);
  obs::record_span(spans, "lstm_batch", start, start + result.device_time);
  obs::MetricsRegistry& metrics = obs::registry();
  metrics.add_counter("engine.batch_inferences");
  metrics.add_counter("engine.batch_windows", sequences.size());
  metrics.observe("engine.batch_us", result.device_time.as_microseconds());
  metrics.set_gauge("engine.batch_threads",
                    static_cast<double>(pool.thread_count()));

  const double seconds = static_cast<double>(result.device_time.picos) * 1e-12;
  result.windows_per_second =
      seconds > 0.0 ? static_cast<double>(sequences.size()) / seconds : 0.0;
  return result;
}

CsdLstmEngine::SsdInferenceResult CsdLstmEngine::infer_from_ssd(
    std::uint64_t lba, std::uint32_t block_count, const nn::Sequence& sequence,
    bool p2p) {
  // Recursive device lock: the nested infer() below re-acquires it.
  const auto device_guard = lock_device();
  csd::SmartSsd& board = device_.board();
  ScopedRequestSpan scope(board.span_trace(), device_, "engine.infer_from_ssd");
  if (scope.active()) {
    board.span_trace().tag_current("path", p2p ? "p2p" : "host");
  }
  const TimePoint start = device_.now();

  // Stage the sequence image on the SSD so the read returns real bytes.
  board.ssd().write(lba, sequence_image(sequence), start);

  const csd::TransferResult transfer =
      p2p ? board.p2p_read_to_fpga(lba, block_count, kSequenceBank, 0, start)
          : board.host_read_to_fpga(lba, block_count, kSequenceBank, 0,
                                    start);
  device_.advance_to(transfer.done);

  SsdInferenceResult result;
  result.transfer_time = transfer.done - start;
  result.inference = infer(sequence);
  return result;
}

double CsdLstmEngine::fpga_utilization() const {
  return device_.board().fpga().utilization();
}

}  // namespace csdml::kernels
