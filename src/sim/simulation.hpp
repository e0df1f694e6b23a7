// Discrete-event simulation core.
//
// The SmartSSD model (src/csd) is built from components that exchange
// timed events through this engine: NAND reads complete after a latency,
// DMA transfers occupy a link for a bandwidth-derived duration, kernels
// finish after a cycle count. The engine is deliberately single-threaded
// and deterministic: identical schedules replay identically.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace csdml::sim {

using EventCallback = std::function<void()>;

/// A named stretch of simulated time (one pipeline stage of one item).
struct Span {
  std::string name;
  TimePoint start;
  TimePoint end;

  Duration duration() const { return end - start; }
};

class Simulation {
 public:
  /// Current simulated time.
  TimePoint now() const { return now_; }

  /// Schedules `callback` at absolute time `when` (>= now()).
  void schedule_at(TimePoint when, EventCallback callback);

  /// Schedules `callback` `delay` after the current time.
  void schedule_after(Duration delay, EventCallback callback);

  /// Runs events until the queue drains. Returns the number executed.
  std::size_t run();

  /// Runs events with timestamp <= deadline; leaves later events queued.
  /// The clock advances to min(deadline, last executed event time).
  std::size_t run_until(TimePoint deadline);

  bool empty() const { return queue_.empty(); }
  std::size_t pending() const { return queue_.size(); }

 private:
  struct Event {
    TimePoint when;
    std::uint64_t sequence;  // FIFO tie-break for equal timestamps
    EventCallback callback;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.sequence > b.sequence;
    }
  };

  TimePoint now_{};
  std::uint64_t next_sequence_{0};
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

/// A single-owner resource (bus, flash channel, DMA engine) that serialises
/// requests: each acquire() returns the time at which the requester may
/// proceed, busy-ing the resource for `hold`.
class SerialResource {
 public:
  /// Requests the resource at `at` for `hold`; returns the grant time
  /// (>= at) at which exclusive use begins.
  TimePoint acquire(TimePoint at, Duration hold);

  /// Time at which the resource next becomes free.
  TimePoint free_at() const { return free_at_; }

  /// Total time the resource has spent occupied.
  Duration busy_time() const { return busy_; }

 private:
  TimePoint free_at_{};
  Duration busy_{};
};

}  // namespace csdml::sim
