// Deterministic fault-injection plan for the simulated CSD stack.
//
// The paper's detector lives *inside* the storage device it protects, so
// it must keep classifying while that device degrades under ransomware
// I/O pressure. The device layers (csd::NandArray, csd::NvmeQueue,
// csd::SmartSsd's PCIe paths, CsdLstmEngine's kernel launch) each consult
// an attached FaultPlan at their injection site; the plan decides — from seeded,
// per-kind xoshiro streams — whether that operation fails, and records
// every injected fault in an append-only log.
//
// Determinism contract: decisions depend only on (seed, per-kind query
// order). Each fault kind draws from its own forked stream, so adding
// queries of one kind never perturbs another kind's schedule, and the
// FaultClock stamps a global sequence number on every decision. Two runs
// of the same workload with the same seed therefore produce bit-identical
// logs — compare with digest().
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "faults/fault_clock.hpp"

namespace csdml::faults {

enum class FaultKind : std::uint8_t {
  NvmeTimeout = 0,          ///< command exceeds the host's timeout window
  NvmeDroppedCompletion,    ///< device work done, CQE never arrives
  PcieCorruption,           ///< single bit flip in a transiting payload
  NandReadDisturb,          ///< page read pushed past the LDPC budget
  XrtLaunchFailure,         ///< kernel launch fails (engine retries)
};

inline constexpr std::size_t kFaultKindCount = 5;

const char* fault_kind_name(FaultKind kind);

/// Per-kind injection probabilities plus a global budget. All default to
/// zero: an attached plan with a default config injects nothing.
struct FaultConfig {
  std::uint64_t seed{0};
  double nvme_timeout_probability{0.0};
  double nvme_drop_probability{0.0};
  double pcie_corruption_probability{0.0};
  double nand_read_disturb_probability{0.0};
  double xrt_launch_failure_probability{0.0};
  /// Total faults the plan may inject before going quiet; bounded
  /// campaigns use this to model a fault burst that subsides (and lets
  /// the engine's recovery probes succeed again).
  std::uint64_t max_faults{UINT64_MAX};
};

/// A kill switch for one board: every kernel launch fails, so the engine
/// exhausts its retries, latches unhealthy, and (without a fallback)
/// defers classifications until the plan is detached. The fleet uses this
/// for deterministic failover drills (`csdml serve --kill-board K@CALL`).
inline FaultConfig lethal_launch_config(std::uint64_t seed) {
  FaultConfig config;
  config.seed = seed;
  config.xrt_launch_failure_probability = 1.0;
  return config;
}

/// One injected fault: where in the decision sequence, what kind, and a
/// kind-specific detail (e.g. the bit index a PCIe corruption flipped).
struct FaultRecord {
  std::uint64_t sequence{0};  ///< FaultClock tick of the decision
  FaultKind kind{FaultKind::NvmeTimeout};
  std::uint64_t detail{0};

  friend bool operator==(const FaultRecord&, const FaultRecord&) = default;
};

/// Thrown by the engine when the CSD is marked unhealthy (retries
/// exhausted) and no host fallback is configured. Callers must either
/// retry the classification later or surface the degradation — never
/// drop it silently.
class CsdUnavailableError : public Error {
 public:
  explicit CsdUnavailableError(const std::string& what) : Error(what) {}
};

class FaultPlan {
 public:
  explicit FaultPlan(FaultConfig config);

  const FaultConfig& config() const { return config_; }

  /// One injection decision. Advances the clock, draws from `kind`'s
  /// stream, and on injection appends to the log, bumps the per-kind
  /// count and the `faults.injected.<kind>` counter in obs::registry().
  /// Thread-safe, but determinism additionally requires the *call order*
  /// to be deterministic — consult only from simulated-time (single-
  /// threaded) code, never from inside a thread-pool worker.
  bool should_inject(FaultKind kind);

  /// Deterministic kind-agnostic detail draw in [0, bound); stored into
  /// the most recent log record. Injection sites use it to pick e.g.
  /// which bit of a payload to flip.
  std::uint64_t draw_detail(std::uint64_t bound);

  /// Stamps a caller-provided detail (e.g. the failing NVMe command id)
  /// onto the most recent log record without consuming the detail stream.
  void note_detail(std::uint64_t value);

  /// Total injection decisions taken (injected or not).
  std::uint64_t decisions() const;
  /// Faults injected, in total and per kind.
  std::uint64_t injected() const;
  std::uint64_t injected(FaultKind kind) const;

  /// Append-only log of every injected fault, in decision order.
  std::vector<FaultRecord> log() const;

  /// FNV-1a digest of the full log. Equal-seed runs of the same workload
  /// must produce equal digests — the reproducibility assertion.
  std::uint64_t digest() const;

  /// Rewinds the plan to its post-construction state: streams re-derived
  /// from the seed, log and clock cleared.
  void reset();

 private:
  double probability_for(FaultKind kind) const;
  void reseed();
  std::uint64_t injected_total() const;  // caller holds mutex_

  FaultConfig config_;
  FaultClock clock_;
  std::array<Rng, kFaultKindCount> streams_;
  Rng detail_stream_;
  std::vector<FaultRecord> log_;
  std::array<std::uint64_t, kFaultKindCount> injected_counts_{};
  mutable std::mutex mutex_;
};

}  // namespace csdml::faults
