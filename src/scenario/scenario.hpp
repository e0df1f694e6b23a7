// Scenario specs — named, replayable end-to-end attack campaigns.
//
// The paper's claim is operational: the in-storage LSTM must catch
// ransomware *mid-attack*, before the encryption loop has eaten the
// victim's files. A Scenario is the executable form of that claim: a
// cast of processes (benign sandbox sessions interleaved with family
// attack traces), a fleet topology, and a schedule of mid-run control
// events (board kills, revives, weight rollouts), plus the quality
// budget the outcome is graded against.
//
// Specs exist in two equivalent forms — a builder API for tests and the
// builtin corpus, and a small line-oriented text format stored under
// tests/scenarios/ — and `serialize_scenario`/`parse_scenario` round-trip
// between them. Everything downstream (runner, scorer, digest) consumes
// only the validated Scenario struct.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "detect/detector.hpp"

namespace csdml::scenario {

/// Default sandbox background-noise rate (mirrors SandboxConfig).
inline constexpr double kDefaultNoiseRate = 0.18;

/// One process in the campaign: a benign application session or a
/// numbered variant of a ransomware family, entering at round `start`
/// and feeding `calls` API calls from its sandbox trace.
struct ProcessSpec {
  detect::ProcessId pid{0};
  bool attack{false};
  /// FamilyProfile::name (attack) or BenignProfile::name (benign).
  std::string profile;
  /// Family variant index (attack) or benign session id.
  std::uint32_t variant{0};
  /// Round (global ingest step) the stream enters the fleet.
  std::uint64_t start{0};
  /// API calls ingested from the trace.
  std::uint64_t calls{0};
  /// Sandbox background-noise rate; raising it dilutes the attack motifs
  /// between OS chatter (the "slow-roll" knob).
  double noise{kDefaultNoiseRate};

  friend bool operator==(const ProcessSpec&, const ProcessSpec&) = default;
};

/// A mid-run control event, applied at a quiescent point (fleet flushed)
/// immediately before round `at` is ingested.
struct EventSpec {
  enum class Kind {
    KillBoard,    ///< attach the lethal launch plan to `board`
    ReviveBoard,  ///< detach it again
    KillOwner,    ///< kill whichever board currently owns `pid`
    Rollout,      ///< coordinated canary-gated weight rollout
  };
  Kind kind{Kind::KillBoard};
  std::uint64_t at{0};
  std::size_t board{0};      ///< KillBoard / ReviveBoard target
  detect::ProcessId pid{0};  ///< KillOwner target

  friend bool operator==(const EventSpec&, const EventSpec&) = default;
};

/// The quality budget a run is graded against (see GateReport).
struct Budget {
  /// Max detection latency per attack pid, in API calls past the first
  /// full window (first_alert_call - window_length).
  std::uint64_t detection_latency{100};
  /// Max files encrypted (completed encrypt→rename motifs) across all
  /// attack pids before their first alert.
  std::uint64_t files_lost{50};
  /// Max benign false-positive rate (alerting benign pids / benign pids).
  double fpr{0.0};

  friend bool operator==(const Budget&, const Budget&) = default;
};

struct Scenario {
  std::string name;
  std::uint64_t seed{2024};
  std::size_t boards{1};
  /// Detector geometry, identical semantics to detect::DetectorConfig.
  std::size_t window{100};
  std::size_t hop{25};
  std::size_t debounce{2};
  double threshold{0.5};
  std::vector<ProcessSpec> processes;
  std::vector<EventSpec> events;  ///< sorted by `at` (stable)
  Budget budget;

  friend bool operator==(const Scenario&, const Scenario&) = default;

  /// Rounds until the last process's last scheduled call.
  std::uint64_t horizon() const;
  bool has_attack() const;
};

/// Fluent construction for tests and the builtin corpus. `build()`
/// validates (throws PreconditionError on a malformed spec).
class ScenarioBuilder {
 public:
  explicit ScenarioBuilder(std::string name);

  ScenarioBuilder& seed(std::uint64_t value);
  ScenarioBuilder& boards(std::size_t count);
  ScenarioBuilder& detector(std::size_t window, std::size_t hop,
                            std::size_t debounce, double threshold);
  ScenarioBuilder& benign(detect::ProcessId pid, std::string profile,
                          std::uint32_t session, std::uint64_t start,
                          std::uint64_t calls,
                          double noise = kDefaultNoiseRate);
  ScenarioBuilder& attack(detect::ProcessId pid, std::string family,
                          std::uint32_t variant, std::uint64_t start,
                          std::uint64_t calls,
                          double noise = kDefaultNoiseRate);
  ScenarioBuilder& kill_board(std::size_t board, std::uint64_t at);
  ScenarioBuilder& revive_board(std::size_t board, std::uint64_t at);
  ScenarioBuilder& kill_owner(detect::ProcessId pid, std::uint64_t at);
  ScenarioBuilder& rollout(std::uint64_t at);
  ScenarioBuilder& budget(std::uint64_t detection_latency,
                          std::uint64_t files_lost, double fpr);

  Scenario build() const;

 private:
  Scenario scenario_;
};

/// Bounds on one process's `start` and `calls` and on the detector
/// window. They keep every horizon and trace length far from integer
/// wrap; the parser rejects a larger value as a ParseError naming its key.
inline constexpr std::uint64_t kMaxScenarioCalls = 1'000'000;
inline constexpr std::uint64_t kMaxScenarioWindow = 10'000;

/// Throws common::PreconditionError describing the first problem: bad
/// geometry, start/calls/window beyond their bounds, duplicate/zero pids, unknown family or benign profile,
/// event targets out of range, out-of-order budget values.
void validate_scenario(const Scenario& scenario);

const char* event_kind_name(EventSpec::Kind kind);

/// Canonical text form (what tests/scenarios/*.scn store). Stable: the
/// output of serialize is byte-identical across runs for equal specs,
/// and parse(serialize(s)) == s.
std::string serialize_scenario(const Scenario& scenario);

/// Parses the text format; `origin` labels error messages (file name).
/// Throws ParseError on any malformed line or unknown key; the result is
/// then validated (PreconditionError).
Scenario parse_scenario(const std::string& text,
                        const std::string& origin = "<string>");

/// Reads and parses one .scn file.
Scenario load_scenario_file(const std::string& path);

}  // namespace csdml::scenario
