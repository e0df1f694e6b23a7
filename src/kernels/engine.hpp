// CsdLstmEngine — the paper's primary contribution assembled: the full
// LSTM inference procedure offloaded to the CSD's FPGA.
//
// Composition per Fig. 2 of the paper:
//
//   host program ──initialises──> weights & embeddings in FPGA DDR
//   kernel_preprocess ──x_t copies──> 4 × kernel_gates CUs (parallel)
//                       gate vectors ──> kernel_hidden_state ──h_t copies──┐
//                                 ▲─────────────────────────────────────────┘
//
// kernel_preprocess runs one item ahead of the gate/hidden pipeline
// (Section III-C), so per-item latency in steady state is
// gates + hidden_state, and preprocess is only exposed for the first item.
//
// The functional result runs through the fused table-driven datapaths
// (see functional.hpp); batches fan out across a thread pool with
// per-thread scratch, since wall-clock throughput of the software model is
// itself a measured quantity (bench_throughput).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/thread_pool.hpp"
#include "kernels/functional.hpp"
#include "kernels/specs.hpp"
#include "nn/weights_io.hpp"
#include "xrt/runtime.hpp"

namespace csdml::baselines {
class HostBaseline;
}

namespace csdml::kernels {

/// How the engine reacts to injected kernel-launch failures: bounded
/// retries with exponential backoff from 50 us (charged to simulated
/// device time), then mark the CSD unhealthy and serve from the host
/// fallback until a periodic recovery probe succeeds.
struct RetryPolicy {
  std::uint32_t max_attempts{3};
  /// While unhealthy, re-probe the pipeline every Nth degraded serve
  /// (0 disables probing: once unhealthy, always degraded).
  std::uint32_t recovery_probe_interval{8};
};

struct EngineConfig {
  OptimizationLevel level{OptimizationLevel::FixedPoint};
  std::uint32_t gate_cu_count{4};  ///< the paper uses four
  std::int64_t fixed_scale{fixedpt::kPaperScale};
  /// Inter-kernel data movement; Stream is the paper's "streaming can be
  /// easily ported ... for additional acceleration" variant.
  KernelLink link{KernelLink::AxiMemory};
  /// Executors for infer_batch (including the caller); 0 picks
  /// hardware_concurrency, 1 keeps the batch loop single-threaded.
  std::uint32_t batch_threads{0};
  RetryPolicy retry{};
};

/// One immutable weight version, staged for one optimization level and
/// fixed scale: exactly one functional datapath (its parameters and fused
/// layouts included; fixed-point mode never reads a float path, and
/// Vanilla/II change timing, not arithmetic), and the float32 image the
/// host program DMAs into FPGA DDR. Engines share it through
/// `std::shared_ptr<const StagedWeights>`, so a fleet stages each version
/// once however many boards serve it — the paper's host program stages
/// the image once, and the model "is compiled once and can be updated at
/// the operator's discretion".
class StagedWeights {
 public:
  /// Stages `params` for engines configured with `config` (its level and
  /// fixed scale). The only place an engine's datapath is built. Throws
  /// PreconditionError when `params` do not have the shape `model_config`
  /// implies. Wall time is recorded once per staging in the
  /// `engine.weight_table_rebuild_us` histogram.
  StagedWeights(const nn::LstmConfig& model_config, const nn::LstmParams& params,
                const EngineConfig& config);

  const nn::LstmConfig& model_config() const { return model_config_; }
  /// The staged datapath's parameters, the version's only copy.
  const nn::LstmParams& params() const {
    return fixed_path_ ? fixed_path_->params() : float_path_->params();
  }
  OptimizationLevel level() const { return level_; }
  std::int64_t fixed_scale() const { return fixed_scale_; }
  /// Raw little-endian float32 image staged into FPGA DDR.
  const std::vector<std::uint8_t>& image() const { return image_; }

  /// Whole-sequence forward pass through the staged datapath; only the
  /// scratch of the populated datapath is touched.
  double infer(nn::TokenSpan sequence, FloatScratch& float_scratch,
               FixedScratch& fixed_scratch) const;

 private:
  nn::LstmConfig model_config_;
  OptimizationLevel level_;
  std::int64_t fixed_scale_;
  std::optional<FloatDatapath> float_path_;
  std::optional<FixedDatapath> fixed_path_;
  std::vector<std::uint8_t> image_;
};

struct InferenceResult {
  double probability{0.0};
  int label{0};
  Duration device_time;      ///< end-to-end simulated FPGA time for the sequence
  KernelTimings per_item;    ///< steady-state per-item breakdown
  /// True when the FPGA pipeline was unavailable and the classification
  /// was served by the host fallback instead (per-item timings are then
  /// zero and device_time is the modelled host latency).
  bool degraded{false};
};

class CsdLstmEngine {
 public:
  /// Builds the xclbin for the configured optimization level, places it on
  /// the device's FPGA (throws ResourceError if it cannot fit) and DMAs the
  /// staged weight image into FPGA DDR the way the host program's
  /// initialisation step does. `weights` must have been staged for
  /// `model_config` and for `config`'s level and fixed scale
  /// (PreconditionError otherwise); it is shared, never copied.
  CsdLstmEngine(xrt::Device& device, const nn::LstmConfig& model_config,
                std::shared_ptr<const StagedWeights> weights, EngineConfig config);

  /// Stages `params` for this engine alone, then adopts them.
  CsdLstmEngine(xrt::Device& device, const nn::LstmConfig& model_config,
                const nn::LstmParams& params, EngineConfig config);

  /// Convenience: initialise straight from a weight text file snapshot.
  CsdLstmEngine(xrt::Device& device, const nn::ModelSnapshot& snapshot,
                EngineConfig config);

  const EngineConfig& config() const { return config_; }
  const nn::LstmConfig& model_config() const { return model_config_; }

  /// Steady-state per-item kernel timings under the cost model
  /// (kernel_timings of the placed specs), fixed at construction (neither
  /// the cost model nor the config can change).
  const KernelTimings& per_item_timings() const { return per_item_timings_; }

  /// Classifies a sequence already resident in FPGA DRAM (the steady-state
  /// in-storage path). Accepts any contiguous token window (e.g. a ring
  /// buffer view) without copying.
  InferenceResult infer(nn::TokenSpan sequence);

  /// Classifies a batch of sequences streamed back-to-back through the
  /// kernel pipeline. In steady state the lookahead preprocess keeps every
  /// stage busy across sequence boundaries, so only the first sequence
  /// exposes the preprocess latency. The functional forward passes fan out
  /// across `config().batch_threads` executors with per-thread scratch.
  struct BatchResult {
    std::vector<double> probabilities;
    std::vector<int> labels;
    Duration device_time;
    /// Classified windows per second of device time.
    double windows_per_second{0.0};
    /// True when the batch was served window-by-window from the host
    /// fallback because the FPGA pipeline was unavailable.
    bool degraded{false};
  };
  BatchResult infer_batch(const std::vector<nn::Sequence>& sequences);

  /// Classifies a sequence stored on the SSD: P2P (or host-mediated) read
  /// into FPGA DDR, then inference. Returns the result plus the transfer
  /// time actually spent on the chosen path.
  struct SsdInferenceResult {
    InferenceResult inference;
    Duration transfer_time;
  };
  SsdInferenceResult infer_from_ssd(std::uint64_t lba, std::uint32_t block_count,
                                    const nn::Sequence& sequence, bool p2p);

  /// FPGA resource utilisation after placement.
  double fpga_utilization() const;

  /// The board's request-span collector. The detector opens a trace here at
  /// ingress; every stage below (engine, transfers, kernels) then records
  /// into the same tree.
  obs::SpanTrace& span_trace() { return device_.board().span_trace(); }
  /// Current simulated device time (span/trace boundary timestamps).
  TimePoint device_now() const { return device_.now(); }

  /// Hot-swaps the model without recompiling the FPGA binary — the
  /// paper's update path ("the FPGA-based model is compiled once and can
  /// be updated at the operator's discretion", e.g. after retraining on
  /// new strains from CTI feeds). Adopts an already staged version: under
  /// the device lock it becomes the served version and its image is DMA'd
  /// over this board's PCIe link (time charged to the device), in one
  /// step, so no classification ever runs on a version whose image is not
  /// yet in DDR. The wait is only for an in-flight classification; staging
  /// happens before the call. The version must match the engine's model
  /// architecture (dims, activation), level and fixed scale; a refused
  /// version throws PreconditionError and changes nothing.
  void update_weights(std::shared_ptr<const StagedWeights> weights);
  /// Stages `params` for this engine alone, then adopts them.
  void update_weights(const nn::LstmParams& params);

  /// Number of weight images staged so far (1 after construction).
  std::uint32_t weight_updates() const {
    return weight_updates_.load(std::memory_order_relaxed);
  }

  /// The version this engine serves (its image is the one in DDR). Takes
  /// the device lock, so it waits out an in-flight adopt.
  std::shared_ptr<const StagedWeights> weights() const {
    const auto device_guard = lock_device();
    return weights_;
  }

  /// Hands out the engine's device lock so callers can frame their own
  /// spans/trace around an engine entry point (the serving coalescer opens
  /// a `serve.batch` trace, then calls infer_batch while still holding the
  /// lock — the mutex is recursive precisely so that nesting works). All
  /// simulated-device state (clock, kernel trace, span collector) and the
  /// served weight version are single-threaded by contract; every engine
  /// path that touches them locks this mutex, as must any outside caller.
  /// Holding it also holds off any update_weights until release.
  std::unique_lock<std::recursive_mutex> lock_device() const {
    return std::unique_lock<std::recursive_mutex>(device_mutex_);
  }

  /// Registers the host deployment consulted while the CSD is unhealthy.
  /// Not owned; must outlive the engine (nullptr detaches — classifying
  /// while unhealthy then throws faults::CsdUnavailableError, so no
  /// degraded classification can pass unnoticed).
  void set_fallback(const baselines::HostBaseline* fallback);

  /// False once launch retries were exhausted; recovery probes (every
  /// `retry.recovery_probe_interval` degraded serves) flip it back.
  bool healthy() const { return healthy_.load(std::memory_order_relaxed); }

  /// Test/operator hook: clears the unhealthy latch immediately.
  void restore_health();

 private:
  /// One executor's forward-pass scratch; only the populated datapath's
  /// half is touched.
  struct Scratch {
    FloatScratch float_scratch;
    FixedScratch fixed_scratch;
  };

  /// PreconditionError unless `weights` were staged for this engine.
  void check_adoptable(const StagedWeights* weights) const;
  /// Under the device lock: serves `weights`, DMAs its image into DDR and
  /// counts the update. The only place the served version changes.
  void adopt(std::shared_ptr<const StagedWeights> weights);
  /// The batch executors, created on first use; sizes `scratch_` to them.
  /// Caller holds the device lock.
  ThreadPool& batch_pool();
  /// True when the pipeline is usable for this classification: healthy
  /// and the (possibly retried) launch succeeded, or a recovery probe
  /// just brought the CSD back. Charges backoff to device time.
  bool ensure_csd_available();
  bool attempt_launch();
  InferenceResult degraded_infer(nn::TokenSpan sequence);

  xrt::Device& device_;
  nn::LstmConfig model_config_;
  EngineConfig config_;
  KernelTimings per_item_timings_;
  /// Everything on the simulated device is single-threaded by contract —
  /// the clock, the kernel trace, the span collector, the served version
  /// and its DDR image, the scratch. This lock is that contract made
  /// enforceable: infer / infer_batch / infer_from_ssd hold it for their
  /// device work, adopt holds it to switch versions, and the serving layer
  /// pins it around its own span framing via lock_device(). Recursive so
  /// infer_from_ssd can nest infer, and so the serving coalescer can hold
  /// it across infer_batch.
  mutable std::recursive_mutex device_mutex_;
  std::shared_ptr<const StagedWeights> weights_;  ///< guarded by device_mutex_
  /// One entry per batch executor (entry 0 also serves infer); guarded by
  /// device_mutex_.
  std::vector<Scratch> scratch_ = std::vector<Scratch>(1);
  std::unique_ptr<ThreadPool> batch_pool_;  ///< lazily created on first batch
  std::optional<xrt::BufferObject> weights_bo_;
  std::atomic<std::uint32_t> weight_updates_{0};
  std::atomic<bool> healthy_{true};
  std::atomic<std::uint32_t> degraded_serves_{0};
  std::atomic<const baselines::HostBaseline*> fallback_{nullptr};
};

}  // namespace csdml::kernels
