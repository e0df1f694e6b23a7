// Per-process sliding-window / deferral state machine.
//
// The paper classifies each process's API calls over a sliding window that
// is re-scored every `hop` calls. WindowTracker is the one implementation of
// that rule: the synchronous StreamingDetector, the serving shards and the
// fleet's board migration all drive it. It is pure bookkeeping — no engine,
// locks or metrics — and the owner passes its DetectorConfig into every call
// instead of storing a copy per process.
//
// A due window (on_call == true) is either accepted (on_enqueued, later
// on_verdict) or refused (on_deferred); an accepted window whose batch later
// fails is handed back through on_deferred too. A deferred classification
// is owed — never dropped — and re-armed for the next call. It stays owed
// until that re-armed window is accepted: a verdict for an earlier window
// does not settle it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "detect/token_ring.hpp"
#include "nn/dataset.hpp"

namespace csdml::detect {

using ProcessId = std::uint32_t;

struct DetectorConfig {
  std::size_t window_length{100};
  /// Calls between consecutive classifications of one process once its
  /// window is full (1 = classify on every call).
  std::size_t hop{25};
  double threshold{0.5};
  /// Consecutive over-threshold classifications required before alerting
  /// (debounce against one-off false positives).
  std::size_t consecutive_alerts{1};
};

/// Throws PreconditionError unless window, hop and debounce are positive.
void validate(const DetectorConfig& config);

class WindowTracker {
 public:
  explicit WindowTracker(const DetectorConfig& config)
      : window_(config.window_length) {}

  /// Pushes one call's token; true when a classification is due: on the
  /// call that first fills the window, then every `hop` calls (hop >
  /// window_length skips calls), and on the first call after a deferral.
  bool on_call(nn::TokenId token, const DetectorConfig& config);

  /// The current window, oldest→newest, zero-copy; valid until on_call.
  nn::TokenSpan window() const { return window_.view(); }
  std::uint64_t calls_seen() const { return calls_seen_; }
  std::size_t alert_streak() const { return alert_streak_; }

  /// The due window was accepted for classification.
  void on_enqueued() { deferral_owed_ = false; }

  struct VerdictOutcome {
    bool alert{false};
    bool debounced{false};  ///< over threshold, still inside the debounce
    /// First verdict since restore() carried in an owed deferral.
    bool migrated_resolved{false};
  };
  VerdictOutcome on_verdict(double probability, const DetectorConfig& config);

  /// A due window could not be served: owed, and re-armed for the next call.
  void on_deferred(const DetectorConfig& config);

  struct Owed {
    bool deferral{false};  ///< a deferred classification not yet re-served
    bool migrated{false};  ///< ... carried in by restore()
  };
  /// What the process still owes if it is forgotten now.
  Owed on_forget() const { return {deferral_owed_, migrated_owed_}; }

  /// Everything a destination board needs to continue the process.
  struct Snapshot {
    std::vector<nn::TokenId> window;  ///< oldest→newest
    std::uint64_t calls_seen{0};
    std::uint64_t calls_since_eval{0};
    std::size_t alert_streak{0};
    bool deferral_owed{false};
    /// Carried by an earlier migration and still unresolved.
    bool migrated_owed{false};

    /// An owed deferral that no earlier migration has counted.
    bool fresh_carry() const { return deferral_owed && !migrated_owed; }
  };
  Snapshot snapshot() const;
  /// Keeps the hop phase, so the destination classifies on the call indices
  /// the source would have; an owed deferral re-arms at once.
  static WindowTracker restore(const Snapshot& snapshot,
                               const DetectorConfig& config);

 private:
  TokenRing window_;
  std::uint64_t calls_seen_{0};
  std::uint64_t calls_since_eval_{0};
  std::size_t alert_streak_{0};
  bool deferral_owed_{false};
  bool migrated_owed_{false};
};

}  // namespace csdml::detect
