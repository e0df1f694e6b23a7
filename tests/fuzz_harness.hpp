// Differential fuzz harness for the CSD stack under fault injection.
//
// A FuzzStack is one complete simulated deployment — SmartSSD, XRT device,
// CsdLstmEngine, StreamingDetector, NVMe queue — with a seeded FaultPlan
// attached, plus three independent oracles (fused-layout float and fixed
// datapaths built from the same parameters, and a HostBaseline). run()
// replays a seeded stream of randomized events (API calls, process
// forgets, SSD/NVMe traffic) and checks, on every classification the
// detector emits:
//
//   * parity: the served probability is bit-identical to the matching
//     oracle recomputed on the reference WindowModel's copy of the process
//     window (window_oracle.hpp) — fused vs infer_reference vs
//     host-baseline, depending on which path served;
//   * no silent drops: whenever the reference model says a classification is
//     due, the detector either ran it or deferred it (degraded counter),
//     never neither;
//   * determinism: the injected-fault log digest and an FNV digest over
//     all detector outcomes are bit-identical for equal seeds.
//
// Iteration counts come from fuzz_iterations(): CI runs the deterministic
// short campaign; CSDML_FUZZ_ITERS raises it for long local runs.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "baselines/host_baseline.hpp"
#include "common/env.hpp"
#include "common/hash.hpp"
#include "csd/nvme.hpp"
#include "detect/detector.hpp"
#include "faults/fault_plan.hpp"
#include "kernels/engine.hpp"
#include "kernels/functional.hpp"
#include "nn/lstm.hpp"
#include "window_oracle.hpp"

namespace csdml::testing {

/// Iterations for a fuzz loop: `CSDML_FUZZ_ITERS` when set (so `ctest -L
/// fuzz` can run long campaigns locally), else `fallback` (the CI budget).
/// Invalid values (non-numeric, zero, overflow) warn and use the fallback.
inline std::size_t fuzz_iterations(std::size_t fallback) {
  return static_cast<std::size_t>(
      env_u64("CSDML_FUZZ_ITERS", fallback, 1, 1ull << 32));
}

struct FuzzConfig {
  std::uint64_t seed{1};
  kernels::OptimizationLevel level{kernels::OptimizationLevel::FixedPoint};
  faults::FaultConfig faults{};
  std::size_t window_length{24};
  std::size_t hop{6};
  std::size_t process_count{5};
  /// When false the engine has no host fallback: unhealthy stretches
  /// surface as deferred classifications instead of degraded serves.
  bool with_fallback{true};
};

struct FuzzOutcome {
  std::uint64_t events{0};
  std::uint64_t classifications{0};
  std::uint64_t detections{0};
  std::uint64_t degraded_serves{0};     ///< served by the host fallback
  std::uint64_t deferred{0};            ///< due but CSD unavailable
  std::uint64_t parity_mismatches{0};
  std::uint64_t accounting_mismatches{0};
  std::uint64_t faults_injected{0};
  std::uint64_t fault_digest{0};
  std::uint64_t outcome_digest{0};
};

class FuzzStack {
 public:
  explicit FuzzStack(FuzzConfig config)
      : config_(config),
        model_config_{.vocab_size = 48, .embed_dim = 4, .hidden_dim = 8},
        plan_(config.faults),
        board_(csd::SmartSsdConfig{}),
        device_(board_),
        queue_(board_, csd::NvmeQueueConfig{}) {
    Rng rng(config_.seed);
    params_ = nn::LstmParams::glorot(model_config_, rng);
    float_oracle_ = std::make_unique<kernels::FloatDatapath>(model_config_, params_);
    fixed_oracle_ = std::make_unique<kernels::FixedDatapath>(model_config_, params_);
    host_oracle_ = std::make_unique<baselines::HostBaseline>(
        "fuzz-host", model_config_, params_, baselines::HostLatencyConfig{});

    engine_ = std::make_unique<kernels::CsdLstmEngine>(
        device_, model_config_, params_,
        kernels::EngineConfig{.level = config_.level, .batch_threads = 1});
    if (config_.with_fallback) engine_->set_fallback(host_oracle_.get());
    // Attach the plan only after construction so weight staging is clean:
    // campaigns target the serving path, not initialisation.
    board_.set_fault_plan(&plan_);

    // threshold 0 + no debounce: every classification surfaces as a
    // Detection, so parity is checked on all of them.
    detector_ = std::make_unique<detect::StreamingDetector>(*engine_,
                                                            detector_config());
  }

  faults::FaultPlan& plan() { return plan_; }
  detect::StreamingDetector& detector() { return *detector_; }
  kernels::CsdLstmEngine& engine() { return *engine_; }

  /// Replays `events` randomized events and returns the campaign outcome.
  FuzzOutcome run(std::size_t events) {
    Rng rng = Rng(config_.seed).fork("fuzz-events");
    FuzzOutcome outcome;
    for (std::size_t i = 0; i < events; ++i) {
      const double roll = rng.uniform();
      if (roll < 0.85) {
        api_call_event(rng, outcome);
      } else if (roll < 0.89) {
        forget_known_event(rng);
      } else if (roll < 0.92) {
        // Unknown pid forget must be a no-op (regression: used to be
        // indistinguishable from a dropped teardown).
        detector_->forget(kUnknownPidBase + static_cast<detect::ProcessId>(
                                                rng.uniform_int(0, 999)));
      } else if (roll < 0.97) {
        ssd_traffic_event(rng);
      } else {
        nvme_traffic_event(rng);
      }
      ++outcome.events;
    }
    outcome.classifications = detector_->classifications_run();
    outcome.deferred = detector_->degraded_classifications();
    outcome.faults_injected = plan_.injected();
    outcome.fault_digest = plan_.digest();
    outcome.outcome_digest = outcome_digest_.value();
    return outcome;
  }

 private:
  static constexpr detect::ProcessId kUnknownPidBase = 1u << 20;

  detect::DetectorConfig detector_config() const {
    return {.window_length = config_.window_length,
            .hop = config_.hop,
            .threshold = 0.0,
            .consecutive_alerts = 1};
  }

  double oracle_probability(const std::vector<nn::TokenId>& window,
                            bool degraded) const {
    if (degraded) return host_oracle_->infer(window);
    if (config_.level == kernels::OptimizationLevel::FixedPoint) {
      return fixed_oracle_->infer(window);
    }
    return float_oracle_->infer(window);
  }

  bool oracle_self_consistent(const std::vector<nn::TokenId>& window) const {
    // Fused vs stage-by-stage reference of the active datapath, plus the
    // host baseline against the float fused path (identical math).
    if (config_.level == kernels::OptimizationLevel::FixedPoint) {
      if (fixed_oracle_->infer(window) != fixed_oracle_->infer_reference(window)) {
        return false;
      }
    } else if (float_oracle_->infer(window) != float_oracle_->infer_reference(window)) {
      return false;
    }
    return float_oracle_->infer(window) == host_oracle_->infer(window);
  }

  void api_call_event(Rng& rng, FuzzOutcome& outcome) {
    const auto pid = static_cast<detect::ProcessId>(
        rng.uniform_int(1, static_cast<std::int64_t>(config_.process_count)));
    const auto token = static_cast<nn::TokenId>(
        rng.uniform_int(0, model_config_.vocab_size - 1));

    WindowModel& shadow = shadows_.try_emplace(pid, detector_config()).first->second;
    const bool due = shadow.call(token);

    const std::uint64_t classified_before = detector_->classifications_run();
    const std::uint64_t deferred_before = detector_->degraded_classifications();
    const std::optional<detect::Detection> detection =
        detector_->on_api_call(pid, token);
    const std::uint64_t classified = detector_->classifications_run() - classified_before;
    const std::uint64_t deferred = detector_->degraded_classifications() - deferred_before;

    // No-drop accounting: a due classification either ran or was deferred
    // (and a not-due call did neither).
    if (due ? classified + deferred != 1 : classified + deferred != 0) {
      ++outcome.accounting_mismatches;
    }
    if (due) {
      // Keep the shadow scheduler in lockstep with the detector's deferred
      // retry: a deferred classification re-arms the next call.
      if (deferred != 0) {
        shadow.deferred();
      } else {
        shadow.enqueued();
      }
    }

    if (!detection.has_value()) {
      if (classified != 0) ++outcome.accounting_mismatches;  // threshold 0 ⇒ detect
      return;
    }
    ++outcome.detections;
    if (detection->degraded) ++outcome.degraded_serves;

    const std::vector<nn::TokenId> window = shadow.window();
    const double expected = oracle_probability(window, detection->degraded);
    if (detection->probability != expected || !oracle_self_consistent(window)) {
      ++outcome.parity_mismatches;
    }
    outcome_digest_.u64(pid);
    outcome_digest_.u64(detection->call_index);
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(detection->probability));
    std::memcpy(&bits, &detection->probability, sizeof(bits));
    outcome_digest_.u64(bits);
    outcome_digest_.u64(detection->degraded ? 1 : 0);
  }

  void forget_known_event(Rng& rng) {
    const auto pid = static_cast<detect::ProcessId>(
        rng.uniform_int(1, static_cast<std::int64_t>(config_.process_count)));
    detector_->forget(pid);
    shadows_.erase(pid);
  }

  void ssd_traffic_event(Rng& rng) {
    // Round-trip through NAND + the PCIe switch so NandReadDisturb and
    // PcieCorruption sites fire under detector load.
    const auto lba = static_cast<std::uint64_t>(rng.uniform_int(0, 63));
    std::vector<std::uint8_t> payload(128);
    for (auto& byte : payload) {
      byte = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    const TimePoint now = device_.now();
    board_.ssd().write(lba, payload, now);
    if (rng.chance(0.5)) {
      board_.p2p_read_to_fpga(lba, 1, 0, 0, device_.now());
    } else {
      board_.host_read_to_fpga(lba, 1, 0, 0, device_.now());
    }
  }

  void nvme_traffic_event(Rng& rng) {
    csd::NvmeCommand command;
    command.command_id = static_cast<std::uint16_t>(rng.uniform_int(0, 0xFFFF));
    command.opcode = csd::NvmeOpcode::Read;
    command.lba = static_cast<std::uint64_t>(rng.uniform_int(0, 63));
    command.block_count = 1;
    queue_.submit(command, device_.now());
    queue_.wait_oldest();
  }

  FuzzConfig config_;
  nn::LstmConfig model_config_;
  nn::LstmParams params_;
  faults::FaultPlan plan_;
  csd::SmartSsd board_;
  xrt::Device device_;
  csd::NvmeQueue queue_;
  std::unique_ptr<kernels::FloatDatapath> float_oracle_;
  std::unique_ptr<kernels::FixedDatapath> fixed_oracle_;
  std::unique_ptr<baselines::HostBaseline> host_oracle_;
  std::unique_ptr<kernels::CsdLstmEngine> engine_;
  std::unique_ptr<detect::StreamingDetector> detector_;
  std::unordered_map<detect::ProcessId, WindowModel> shadows_;
  Fnv1a outcome_digest_;
};

}  // namespace csdml::testing
