#include "detect/detector.hpp"

#include "common/error.hpp"
#include "faults/fault_plan.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"

namespace csdml::detect {

namespace {

/// Deciles of window fill — occupancy is a fraction in [0, 1].
const std::vector<double>& occupancy_bounds() {
  static const std::vector<double> bounds{0.1, 0.2, 0.3, 0.4, 0.5,
                                          0.6, 0.7, 0.8, 0.9, 1.0};
  return bounds;
}

}  // namespace

StreamingDetector::StreamingDetector(kernels::CsdLstmEngine& engine,
                                     DetectorConfig config)
    : engine_(engine), config_(config) {
  validate(config_);
}

std::optional<Detection> StreamingDetector::on_api_call(ProcessId process,
                                                        nn::TokenId token) {
  CSDML_REQUIRE(token >= 0 && token < engine_.model_config().vocab_size,
                "API-call token outside model vocabulary");
  obs::MetricsRegistry& metrics = obs::registry();
  const auto [it, new_process] = processes_.try_emplace(process, config_);
  if (new_process) {
    metrics.set_gauge("detector.tracked_processes",
                      static_cast<double>(processes_.size()));
  }
  WindowTracker& tracker = it->second;
  if (!tracker.on_call(token, config_)) return std::nullopt;

  // Request ingress: one trace per classification. Everything the engine,
  // transfers and kernels record until end_trace lands in this tree.
  obs::SpanTrace& spans = engine_.span_trace();
  const bool tracing = spans.enabled();
  obs::TraceId trace_id = 0;
  obs::SpanId root = 0;
  if (tracing) {
    trace_id = spans.begin_trace();
    root = spans.begin_span("detector.classify", engine_.device_now());
    spans.tag(root, "process", std::to_string(process));
    spans.tag(root, "call_index", std::to_string(tracker.calls_seen()));
  }

  // Zero-copy: the tracker's window is one contiguous run, so
  // classification needs no per-call Sequence copy.
  kernels::InferenceResult result;
  try {
    result = engine_.infer(tracker.window());
  } catch (const faults::CsdUnavailableError&) {
    // Deferred, not dropped: the very next call for this process retries.
    tracker.on_deferred(config_);
    ++degraded_;
    metrics.add_counter("detector.degraded_classifications");
    if (tracing) {
      spans.tag(root, "deferred", "1");
      spans.end_span(root, engine_.device_now());
      spans.end_trace();
    }
    obs::FlightRecorder::instance().record(
        obs::FlightEventKind::Deferred, "detector", "csd_unavailable",
        engine_.device_now(), trace_id, process);
    return std::nullopt;
  }
  if (result.degraded) {
    metrics.add_counter("detector.fallback_classifications");
    if (tracing) spans.tag(root, "degraded", "1");
  }
  tracker.on_enqueued();
  ++classifications_;
  device_time_ += result.device_time;
  metrics.add_counter("detector.classifications");
  metrics.observe("detector.inference_us",
                  result.device_time.as_microseconds());

  const WindowTracker::VerdictOutcome outcome =
      tracker.on_verdict(result.probability, config_);
  const bool alert = outcome.alert;
  if (outcome.debounced) {
    metrics.add_counter("detector.debounce_suppressions");
    if (tracing) spans.tag(root, "debounced", "1");
  }
  if (tracing) {
    if (alert) spans.tag(root, "alert", "1");
    spans.end_span(root, engine_.device_now());
    spans.end_trace();
  }
  if (!alert) return std::nullopt;
  metrics.add_counter("detector.alerts");
  obs::FlightRecorder::instance().record(
      obs::FlightEventKind::Alert, "detector", "ransomware_alert",
      engine_.device_now(), trace_id, process);
  obs::FlightRecorder::instance().auto_dump("alert");

  Detection detection;
  detection.process = process;
  detection.probability = result.probability;
  detection.call_index = tracker.calls_seen();
  detection.inference_time = result.device_time;
  detection.degraded = result.degraded;
  detection.trace_id = trace_id;
  return detection;
}

void StreamingDetector::forget(ProcessId process) {
  const auto it = processes_.find(process);
  if (it == processes_.end()) {
    // Unknown id: process exit raced stream teardown, or it never made a
    // call. Count it; every other detector invariant is untouched.
    obs::registry().add_counter("detector.forget_unknown");
    return;
  }
  // Flush the per-process state into aggregate counters before erasing so
  // long-running fleets don't silently leak stats with process churn.
  obs::MetricsRegistry& metrics = obs::registry();
  metrics.add_counter("detector.processes_forgotten");
  const WindowTracker& tracker = it->second;
  if (tracker.on_forget().deferral) {
    // The process died with a deferred classification still owed: the
    // retry-on-next-call guarantee can no longer fire, so the deferral is
    // dropped here — the one place "never dropped" has an asterisk, and
    // it gets its own counter.
    metrics.add_counter("detector.forget_pending");
  }
  if (tracker.alert_streak() > 0) {
    metrics.add_counter("detector.pending_alert_streaks_flushed",
                        tracker.alert_streak());
  }
  metrics.observe("detector.window_occupancy",
                  static_cast<double>(tracker.window().size()) /
                      static_cast<double>(config_.window_length),
                  occupancy_bounds());
  processes_.erase(it);
  metrics.set_gauge("detector.tracked_processes",
                    static_cast<double>(processes_.size()));
}

}  // namespace csdml::detect
