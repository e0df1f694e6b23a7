// Workloads of the open-loop fleet benchmark and their seeded arrival
// schedules. Everything here is computed before the fleet exists, so no
// input generation is ever timed.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "detect/detector.hpp"
#include "nn/dataset.hpp"

namespace perfbench {

using csdml::detect::ProcessId;
using csdml::nn::TokenId;

/// One traffic mix. Rates are API calls per second offered open-loop.
struct WorkloadSpec {
  std::string name;
  std::string why;
  /// Processes that live for the whole run and supply the verdicts.
  std::size_t long_lived{0};
  /// Share of calls made by long-lived processes; the rest come from
  /// short-lived processes that exit before filling a window.
  double long_share{1.0};
  /// Short-lived processes alive at any moment.
  std::size_t short_live{0};
  /// Calls a short-lived process makes before it exits (inclusive range).
  std::size_t short_calls_min{0};
  std::size_t short_calls_max{0};
  /// Operating rate of the measured phase: a quarter to a half of the
  /// default fleet's goodput on a 4-core VM, so CPU stolen by neighbouring
  /// VMs still leaves it below the knee.
  double rate{0.0};
  /// Seconds between canary-gated weight rollouts (0 = none).
  double rollout_period_s{0.0};
  /// One kill_board/revive_board cycle in the measured phase.
  bool kill_cycle{false};
};

const std::vector<WorkloadSpec>& workloads();
/// Goodput ladder shared by every workload: ascending multiples of the
/// workload's operating rate.
const std::vector<double>& rate_ladder();
/// Null when no workload has that name.
const WorkloadSpec* find_workload(std::string_view name);

enum class Op : std::uint8_t { Ingest, Forget };

struct Event {
  std::int64_t at_ns{0};  ///< scheduled send time, from phase start
  ProcessId pid{0};
  std::uint32_t call{0};  ///< 1-based per-process call index (0 for Forget)
  TokenId token{0};
  Op op{Op::Ingest};
};

/// A run of events sent back to back; `rate` is 0 for unpaced phases.
struct Phase {
  std::string name;
  double rate{0.0};
  std::vector<Event> events;
};

/// Generates every process's API-call stream from the ransomware sandbox
/// generator and lays the calls out on Poisson schedules. Processes keep
/// their call counters across phases, so consecutive phases continue the
/// same streams.
class ScheduleBuilder {
 public:
  ScheduleBuilder(const WorkloadSpec& spec, std::uint64_t seed,
                  std::size_t window, std::size_t hop, TokenId vocab);

  /// Fills every long-lived process's window at `rate` (each ends at a
  /// random hop phase), so measured phases start warm.
  Phase warmup(double rate);
  /// Poisson arrivals at `rate` for `seconds`, mixing long- and
  /// short-lived processes as the spec says.
  Phase open_loop(std::string name, double rate, double seconds);
  /// `hop` unpaced calls per long-lived process: each owes at least one
  /// classification afterwards, which resolves any carried deferral.
  Phase settle();

  /// Token of `pid`'s `call`-th API call (1-based).
  TokenId token(ProcessId pid, std::uint32_t call) const;
  /// The window that call `call` of `pid` completed.
  csdml::nn::Sequence window(ProcessId pid, std::uint32_t call) const;

  std::size_t long_lived() const { return spec_.long_lived; }
  /// Highest pid handed out so far (pids are dense from 1).
  ProcessId max_pid() const { return next_pid_ - 1; }

 private:
  struct ShortProcess {
    ProcessId pid{0};
    std::uint32_t calls_left{0};
  };

  Event call_event(ProcessId pid, std::int64_t at_ns);
  ShortProcess spawn_short();
  /// A fresh pid reading from a random trace at a random offset.
  ProcessId new_process();

  WorkloadSpec spec_;
  std::size_t window_;
  std::size_t hop_;
  csdml::Rng rng_;
  std::vector<std::vector<TokenId>> traces_;  ///< sandbox trace pool
  /// Per pid (index = pid): trace index, start offset, calls made so far.
  std::vector<std::uint32_t> trace_of_;
  std::vector<std::uint32_t> offset_of_;
  std::vector<std::uint32_t> calls_of_;
  std::vector<ShortProcess> live_short_;
  ProcessId next_pid_{1};
};

}  // namespace perfbench
