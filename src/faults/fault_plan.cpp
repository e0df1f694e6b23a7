#include "faults/fault_plan.hpp"

#include <string>

#include "common/hash.hpp"
#include "obs/metrics.hpp"

namespace csdml::faults {

namespace {

// Stream names double as metric suffixes; keep them stable — they are
// part of the determinism contract (Rng::fork hashes the name).
constexpr std::array<const char*, kFaultKindCount> kKindNames = {
    "nvme_timeout",
    "nvme_dropped_completion",
    "pcie_corruption",
    "nand_read_disturb",
    "xrt_launch_failure",
};

}  // namespace

const char* fault_kind_name(FaultKind kind) {
  return kKindNames[static_cast<std::size_t>(kind)];
}

FaultPlan::FaultPlan(FaultConfig config) : config_(config) { reseed(); }

void FaultPlan::reseed() {
  const Rng root(config_.seed);
  for (std::size_t i = 0; i < kFaultKindCount; ++i) {
    streams_[i] = root.fork(kKindNames[i]);
  }
  detail_stream_ = root.fork("fault_detail");
}

double FaultPlan::probability_for(FaultKind kind) const {
  switch (kind) {
    case FaultKind::NvmeTimeout: return config_.nvme_timeout_probability;
    case FaultKind::NvmeDroppedCompletion: return config_.nvme_drop_probability;
    case FaultKind::PcieCorruption: return config_.pcie_corruption_probability;
    case FaultKind::NandReadDisturb: return config_.nand_read_disturb_probability;
    case FaultKind::XrtLaunchFailure: return config_.xrt_launch_failure_probability;
  }
  return 0.0;
}

bool FaultPlan::should_inject(FaultKind kind) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t sequence = clock_.tick();
  const double probability = probability_for(kind);
  // Zero-probability kinds never advance their stream: a campaign that
  // only enables (say) NAND disturbs gets the same NAND schedule no
  // matter which other sites are wired up.
  if (probability <= 0.0) return false;
  const std::size_t idx = static_cast<std::size_t>(kind);
  if (!streams_[idx].chance(probability)) return false;
  if (injected_total() >= config_.max_faults) return false;
  log_.push_back(FaultRecord{sequence, kind, 0});
  ++injected_counts_[idx];
  obs::registry().add_counter(std::string("faults.injected.") + kKindNames[idx]);
  return true;
}

std::uint64_t FaultPlan::draw_detail(std::uint64_t bound) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t value = 0;
  if (bound > 1) {
    value = static_cast<std::uint64_t>(detail_stream_.uniform_int(
        0, static_cast<std::int64_t>(bound - 1)));
  }
  if (!log_.empty()) log_.back().detail = value;
  return value;
}

void FaultPlan::note_detail(std::uint64_t value) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!log_.empty()) log_.back().detail = value;
}

std::uint64_t FaultPlan::decisions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return clock_.now();
}

std::uint64_t FaultPlan::injected() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return injected_total();
}

std::uint64_t FaultPlan::injected(FaultKind kind) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return injected_counts_[static_cast<std::size_t>(kind)];
}

std::vector<FaultRecord> FaultPlan::log() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return log_;
}

std::uint64_t FaultPlan::digest() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Fnv1a hash;
  for (const FaultRecord& record : log_) {
    hash.u64(record.sequence);
    hash.u64(static_cast<std::uint64_t>(record.kind));
    hash.u64(record.detail);
  }
  return hash.value();
}

void FaultPlan::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  clock_.reset();
  log_.clear();
  injected_counts_.fill(0);
  reseed();
}

std::uint64_t FaultPlan::injected_total() const {
  std::uint64_t total = 0;
  for (const std::uint64_t count : injected_counts_) total += count;
  return total;
}

}  // namespace csdml::faults
