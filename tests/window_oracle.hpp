// Test-only reference model of the per-process sliding-window / deferral
// rule, and the synchronous verdict oracle built on it.
//
// Deliberately naive and independent of the production code: the window is
// a std::deque copied on every read, and the schedule is "the next due call
// index" rather than a hop counter. Neither detect::TokenRing nor
// detect::WindowTracker is used, so a bug in either cannot be copied here.
#pragma once

#include <cstdint>
#include <deque>
#include <ios>
#include <map>
#include <ostream>
#include <vector>

#include "common/rng.hpp"
#include "detect/window_tracker.hpp"
#include "kernels/engine.hpp"

namespace csdml::testing {

class WindowModel {
 public:
  explicit WindowModel(const detect::DetectorConfig& config)
      : config_(config), next_due_(config.window_length) {}

  /// One API call; true when a classification is due.
  bool call(nn::TokenId token) {
    window_.push_back(token);
    if (window_.size() > config_.window_length) window_.pop_front();
    ++calls_;
    if (window_.size() < config_.window_length || calls_ < next_due_) return false;
    next_due_ = calls_ + config_.hop;
    return true;
  }
  void enqueued() { owed_ = false; }
  void deferred() {
    owed_ = true;
    next_due_ = calls_ + 1;
  }
  /// True when this classification alerts; it also serves any deferral
  /// carried in by migrate().
  bool verdict(double probability) {
    streak_ = probability >= config_.threshold ? streak_ + 1 : 0;
    migrated_ = false;
    return streak_ >= config_.consecutive_alerts;
  }
  /// Moves the process to another board; true when this move is the first
  /// to carry its owed deferral.
  bool migrate() {
    const bool fresh = owed_ && !migrated_;
    if (owed_) {
      migrated_ = true;
      next_due_ = calls_ + 1;
    }
    return fresh;
  }

  std::vector<nn::TokenId> window() const { return {window_.begin(), window_.end()}; }
  std::uint64_t calls() const { return calls_; }
  bool owed() const { return owed_; }
  bool migrated() const { return migrated_; }

 private:
  detect::DetectorConfig config_;
  std::deque<nn::TokenId> window_;
  std::uint64_t calls_{0};
  std::uint64_t next_due_;
  std::size_t streak_{0};
  bool owed_{false};
  bool migrated_{false};
};

struct LoggedVerdict {
  std::uint64_t call_index{0};
  double probability{0.0};  ///< compared bit-exactly: same datapath, no tolerance
  bool alert{false};

  bool operator==(const LoggedVerdict&) const = default;
  friend std::ostream& operator<<(std::ostream& out, const LoggedVerdict& v) {
    return out << "{call " << v.call_index << ", p " << std::hexfloat
               << v.probability << std::defaultfloat << (v.alert ? ", alert}" : "}");
  }
};
using VerdictLog = std::map<detect::ProcessId, std::vector<LoggedVerdict>>;
using Streams = std::map<detect::ProcessId, std::vector<nn::TokenId>>;

inline std::vector<nn::TokenId> random_stream(std::uint64_t seed, std::size_t calls,
                                              std::int32_t vocab) {
  Rng rng(seed);
  std::vector<nn::TokenId> stream;
  stream.reserve(calls);
  for (std::size_t i = 0; i < calls; ++i) {
    stream.push_back(static_cast<nn::TokenId>(rng.uniform_int(0, vocab - 1)));
  }
  return stream;
}

/// Every stream replayed through the model against engine.infer.
inline VerdictLog sync_replay(kernels::CsdLstmEngine& engine,
                              const detect::DetectorConfig& config,
                              const Streams& streams) {
  VerdictLog log;
  for (const auto& [pid, stream] : streams) {
    WindowModel model(config);
    for (const nn::TokenId token : stream) {
      if (!model.call(token)) continue;
      model.enqueued();
      const std::vector<nn::TokenId> window = model.window();
      const double probability = engine.infer(window).probability;
      log[pid].push_back({model.calls(), probability, model.verdict(probability)});
    }
  }
  return log;
}

}  // namespace csdml::testing
