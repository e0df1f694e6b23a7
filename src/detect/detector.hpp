// Streaming ransomware detection over live API-call streams.
//
// The deployed model watches the API calls of every process on the host
// that houses the CSD; once a process has emitted a full window of calls
// the engine classifies it, and re-classifies on a configurable hop as the
// window slides — the paper's "classify API call sequences associated with
// ransomware on the system housing the CSD".
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "detect/window_tracker.hpp"
#include "kernels/engine.hpp"
#include "nn/dataset.hpp"

namespace csdml::detect {

struct Detection {
  ProcessId process{0};
  double probability{0.0};
  /// Index (per process) of the API call that completed the window.
  std::uint64_t call_index{0};
  /// Simulated device time charged for the classification.
  Duration inference_time;
  /// True when the classification was served by the host fallback while
  /// the CSD was unhealthy (same alert semantics, different datapath).
  bool degraded{false};
  /// Request trace id assigned at ingress (0 when tracing is disabled).
  /// Joins the alert to its span tree in exported traces.
  obs::TraceId trace_id{0};
};

class StreamingDetector {
 public:
  StreamingDetector(kernels::CsdLstmEngine& engine, DetectorConfig config);

  /// Feeds one API call of one process. Returns a Detection when this call
  /// triggered a classification that crossed the alert threshold (with
  /// debouncing applied). Out-of-vocabulary tokens are rejected at
  /// ingestion (PreconditionError) rather than poisoning the window.
  ///
  /// If the CSD is unhealthy and no fallback is configured, the due
  /// classification is deferred — never dropped: the next call for the
  /// same process retries it (see degraded_classifications()).
  std::optional<Detection> on_api_call(ProcessId process, nn::TokenId token);

  /// Forgets a terminated process. Unknown ids are a well-defined no-op
  /// (counted in `detector.forget_unknown`), so races between process
  /// exit notification and stream teardown are harmless.
  void forget(ProcessId process);

  std::uint64_t classifications_run() const { return classifications_; }
  Duration device_time_spent() const { return device_time_; }
  /// Classifications that came due but could not run because the CSD was
  /// unavailable; each is retried on the process's next call.
  std::uint64_t degraded_classifications() const { return degraded_; }

  kernels::CsdLstmEngine& engine() { return engine_; }
  /// Health of the underlying CSD engine (false while serving degraded).
  bool csd_healthy() const { return engine_.healthy(); }

 private:
  kernels::CsdLstmEngine& engine_;
  DetectorConfig config_;
  std::unordered_map<ProcessId, WindowTracker> processes_;
  std::uint64_t classifications_{0};
  std::uint64_t degraded_{0};
  Duration device_time_{};
};

}  // namespace csdml::detect
