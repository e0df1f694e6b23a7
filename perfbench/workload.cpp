#include "workload.hpp"

#include <cmath>
#include <stdexcept>

#include "ransomware/families.hpp"
#include "ransomware/sandbox.hpp"

namespace perfbench {

namespace {

/// Share of long-lived processes replaying a ransomware trace; the rest
/// replay benign application sessions.
constexpr double kRansomwareShare = 0.15;
constexpr std::size_t kTraceLength = 1200;

// The goodput ladder spans 0.5x to 5x the operating rate in 8% steps, so a
// knee that moves between runs moves goodput by one small step.
constexpr double kLadderLow = 0.5;
constexpr double kLadderHigh = 5.0;
constexpr double kLadderStep = 1.08;

}  // namespace

const std::vector<double>& rate_ladder() {
  static const std::vector<double> ladder = [] {
    std::vector<double> steps;
    for (double multiple = kLadderLow; multiple <= kLadderHigh; multiple *= kLadderStep) {
      steps.push_back(multiple);
    }
    return steps;
  }();
  return ladder;
}

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> all;
    WorkloadSpec steady;
    steady.name = "steady-hop25";
    steady.why =
        "long-lived processes at window 100, hop 25, Poisson 5k calls/s: the "
        "fixed-point forward and coalescing dominate, ingest is cheap";
    steady.long_lived = 256;
    steady.rate = 5'000.0;
    all.push_back(steady);

    WorkloadSpec churn;
    churn.name = "churn-short";
    churn.why =
        "99% of processes exit before filling a window at 15k calls/s: routing, "
        "shard maps, ring allocation and sweeps dominate, the engine idles";
    churn.long_lived = 32;
    churn.long_share = 0.25;
    churn.short_live = 256;
    churn.short_calls_min = 4;
    churn.short_calls_max = 60;
    churn.rate = 15'000.0;
    all.push_back(churn);

    WorkloadSpec rollout = steady;
    rollout.name = "rollout-failover";
    rollout.why =
        "steady traffic plus a canary-gated weight rollout each second and one "
        "board kill/revive: swaps and migration beside reads";
    rollout.rollout_period_s = 1.0;
    rollout.kill_cycle = true;
    all.push_back(rollout);
    return all;
  }();
  return specs;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

ScheduleBuilder::ScheduleBuilder(const WorkloadSpec& spec, std::uint64_t seed,
                                 std::size_t window, std::size_t hop,
                                 TokenId vocab)
    : spec_(spec), window_(window), hop_(hop), rng_(seed) {
  if (spec_.short_live > 0 && spec_.short_calls_max >= window_) {
    throw std::invalid_argument("short-lived processes must exit before a window fills");
  }
  csdml::ransomware::SandboxConfig sandbox;
  sandbox.seed = rng_.next();
  const csdml::ransomware::SandboxTraceGenerator generator(sandbox);
  for (const auto& family : csdml::ransomware::ransomware_families()) {
    traces_.push_back(generator.ransomware_trace(
        family, static_cast<std::uint32_t>(rng_.next() % family.variants),
        kTraceLength));
  }
  const std::size_t ransomware_traces = traces_.size();
  std::uint32_t session = 0;
  for (const auto& profile : csdml::ransomware::benign_profiles()) {
    traces_.push_back(generator.benign_trace(profile, ++session, kTraceLength));
  }
  for (const std::vector<TokenId>& trace : traces_) {
    for (const TokenId token : trace) {
      if (token < 0 || token >= vocab) {
        throw std::runtime_error("sandbox trace token outside the model vocabulary");
      }
    }
  }
  // Index 0 is unused: pids start at 1.
  trace_of_.push_back(0);
  offset_of_.push_back(0);
  calls_of_.push_back(0);
  for (std::size_t i = 0; i < spec_.long_lived; ++i) {
    const ProcessId pid = new_process();
    trace_of_[pid] = rng_.chance(kRansomwareShare)
                         ? static_cast<std::uint32_t>(rng_.next() % ransomware_traces)
                         : static_cast<std::uint32_t>(
                               ransomware_traces +
                               rng_.next() % (traces_.size() - ransomware_traces));
  }
}

ProcessId ScheduleBuilder::new_process() {
  const ProcessId pid = next_pid_++;
  trace_of_.push_back(static_cast<std::uint32_t>(rng_.next() % traces_.size()));
  offset_of_.push_back(static_cast<std::uint32_t>(rng_.next() % kTraceLength));
  calls_of_.push_back(0);
  return pid;
}

TokenId ScheduleBuilder::token(ProcessId pid, std::uint32_t call) const {
  const std::vector<TokenId>& trace = traces_[trace_of_[pid]];
  return trace[(offset_of_[pid] + call - 1) % trace.size()];
}

csdml::nn::Sequence ScheduleBuilder::window(ProcessId pid,
                                            std::uint32_t call) const {
  csdml::nn::Sequence out;
  out.reserve(window_);
  for (std::uint32_t c = call + 1 - static_cast<std::uint32_t>(window_); c <= call; ++c) {
    out.push_back(token(pid, c));
  }
  return out;
}

Event ScheduleBuilder::call_event(ProcessId pid, std::int64_t at_ns) {
  Event event;
  event.at_ns = at_ns;
  event.pid = pid;
  event.call = ++calls_of_[pid];
  event.token = token(pid, event.call);
  event.op = Op::Ingest;
  return event;
}

ScheduleBuilder::ShortProcess ScheduleBuilder::spawn_short() {
  ShortProcess process;
  process.pid = new_process();
  process.calls_left = static_cast<std::uint32_t>(rng_.uniform_int(
      static_cast<std::int64_t>(spec_.short_calls_min),
      static_cast<std::int64_t>(spec_.short_calls_max)));
  return process;
}

Phase ScheduleBuilder::warmup(double rate) {
  std::vector<ProcessId> order;
  for (ProcessId pid = 1; pid <= spec_.long_lived; ++pid) {
    const std::size_t calls = window_ + rng_.next() % hop_;
    order.insert(order.end(), calls, pid);
  }
  rng_.shuffle(order);
  Phase phase;
  phase.name = "warmup";
  phase.rate = rate;
  double at_s = 0.0;
  for (const ProcessId pid : order) {
    at_s += -std::log1p(-rng_.uniform()) / rate;
    phase.events.push_back(call_event(pid, static_cast<std::int64_t>(at_s * 1e9)));
  }
  return phase;
}

Phase ScheduleBuilder::open_loop(std::string name, double rate, double seconds) {
  Phase phase;
  phase.name = std::move(name);
  phase.rate = rate;
  phase.events.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  while (live_short_.size() < spec_.short_live) live_short_.push_back(spawn_short());
  double at_s = 0.0;
  for (;;) {
    at_s += -std::log1p(-rng_.uniform()) / rate;
    if (at_s >= seconds) break;
    const auto at_ns = static_cast<std::int64_t>(at_s * 1e9);
    if (live_short_.empty() || rng_.uniform() < spec_.long_share) {
      const auto pid = static_cast<ProcessId>(1 + rng_.next() % spec_.long_lived);
      phase.events.push_back(call_event(pid, at_ns));
      continue;
    }
    ShortProcess& process = live_short_[rng_.next() % live_short_.size()];
    phase.events.push_back(call_event(process.pid, at_ns));
    if (--process.calls_left == 0) {
      Event exit;
      exit.at_ns = at_ns;
      exit.pid = process.pid;
      exit.op = Op::Forget;
      phase.events.push_back(exit);
      process = spawn_short();
    }
  }
  return phase;
}

Phase ScheduleBuilder::settle() {
  Phase phase;
  phase.name = "settle";
  for (std::size_t round = 0; round < hop_; ++round) {
    for (ProcessId pid = 1; pid <= spec_.long_lived; ++pid) {
      phase.events.push_back(call_event(pid, 0));
    }
  }
  return phase;
}

}  // namespace perfbench
