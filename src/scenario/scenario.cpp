#include "scenario/scenario.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <unordered_map>

#include "common/error.hpp"
#include "ransomware/families.hpp"

namespace csdml::scenario {

namespace {

/// Shortest decimal that round-trips the double (%.17g is exact for IEEE
/// binary64), so serialize(parse(serialize(s))) is byte-stable.
std::string format_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  double back = 0.0;
  std::sscanf(buffer, "%lf", &back);
  for (int precision = 1; precision < 17; ++precision) {
    char shorter[64];
    std::snprintf(shorter, sizeof(shorter), "%.*g", precision, value);
    std::sscanf(shorter, "%lf", &back);
    if (back == value) return shorter;
  }
  return buffer;
}

const ransomware::FamilyProfile* find_family(const std::string& name) {
  for (const ransomware::FamilyProfile& family :
       ransomware::ransomware_families()) {
    if (family.name == name) return &family;
  }
  return nullptr;
}

bool benign_profile_exists(const std::string& name) {
  for (const ransomware::BenignProfile& profile :
       ransomware::benign_profiles()) {
    if (profile.name == name) return true;
  }
  return false;
}

[[noreturn]] void parse_fail(const std::string& origin, std::size_t line,
                             const std::string& what) {
  throw ParseError("scenario " + origin + ":" + std::to_string(line) + ": " +
                   what);
}

/// `text` as an unsigned decimal: digits only, so `-1` (which std::stoull
/// wraps to 2^64 - 1), `+5`, ` 5` and `5x` are not counts. Empty when it
/// is not one or does not fit 64 bits.
std::optional<std::uint64_t> parse_digits(const std::string& text) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || stop != end) return std::nullopt;
  return value;
}

/// The remaining argument of a positional line (`seed <u64>`,
/// `boards <n>`), parsed as a count; fails with `expected` when the line
/// has no argument or more than one, and with `what` when it is not a
/// count.
std::uint64_t positional_count(const std::string& raw,
                               const std::string& origin, std::size_t number,
                               const std::string& expected,
                               const std::string& what) {
  std::istringstream in(raw);
  std::string keyword, value, extra;
  in >> keyword >> value;
  if (value.empty() || (in >> extra)) parse_fail(origin, number, expected);
  const std::optional<std::uint64_t> count = parse_digits(value);
  if (!count) parse_fail(origin, number, "`" + value + "` is not " + what);
  return *count;
}

/// One parsed spec line: a keyword plus key=value fields.
struct Line {
  std::string keyword;
  std::unordered_map<std::string, std::string> fields;
  std::vector<std::string> order;  ///< keys, in appearance order
};

Line tokenize(const std::string& text, const std::string& origin,
              std::size_t number) {
  Line line;
  std::istringstream in(text);
  std::string token;
  in >> line.keyword;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == token.size()) {
      parse_fail(origin, number,
                 "expected key=value, got `" + token + "`");
    }
    const std::string key = token.substr(0, eq);
    if (line.fields.contains(key)) {
      parse_fail(origin, number, "duplicate key `" + key + "`");
    }
    line.fields.emplace(key, token.substr(eq + 1));
    line.order.push_back(key);
  }
  return line;
}

class FieldReader {
 public:
  FieldReader(Line line, std::string origin, std::size_t number)
      : line_(std::move(line)), origin_(std::move(origin)), number_(number) {}

  std::string str(const std::string& key) {
    const auto it = line_.fields.find(key);
    if (it == line_.fields.end()) {
      parse_fail(origin_, number_,
                 "`" + line_.keyword + "` is missing `" + key + "=`");
    }
    consumed_.insert(key);
    return it->second;
  }

  /// An unsigned decimal no larger than `max`.
  std::uint64_t u64(const std::string& key,
                    std::uint64_t max =
                        std::numeric_limits<std::uint64_t>::max()) {
    const std::string value = str(key);
    const std::optional<std::uint64_t> out = parse_digits(value);
    if (!out) {
      parse_fail(origin_, number_,
                 "`" + key + "=" + value + "` is not an unsigned integer");
    }
    if (*out > max) {
      parse_fail(origin_, number_,
                 "`" + key + "=" + value + "` exceeds " + std::to_string(max));
    }
    return *out;
  }

  std::uint32_t u32(const std::string& key) {
    return static_cast<std::uint32_t>(
        u64(key, std::numeric_limits<std::uint32_t>::max()));
  }

  double real(const std::string& key) {
    const std::string value = str(key);
    double out = 0.0;
    std::size_t used = 0;
    try {
      out = std::stod(value, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    if (used != value.size()) {
      parse_fail(origin_, number_,
                 "`" + key + "=" + value + "` is not a number");
    }
    return out;
  }

  double real_or(const std::string& key, double fallback) {
    return line_.fields.contains(key) ? real(key) : fallback;
  }

  void done() {
    for (const std::string& key : line_.order) {
      if (!consumed_.contains(key)) {
        parse_fail(origin_, number_,
                   "`" + line_.keyword + "` has unknown key `" + key + "`");
      }
    }
  }

 private:
  Line line_;
  std::string origin_;
  std::size_t number_;
  std::set<std::string> consumed_;
};

}  // namespace

std::uint64_t Scenario::horizon() const {
  std::uint64_t end = 0;
  for (const ProcessSpec& process : processes) {
    end = std::max(end, process.start + process.calls);
  }
  return end;
}

bool Scenario::has_attack() const {
  return std::any_of(processes.begin(), processes.end(),
                     [](const ProcessSpec& p) { return p.attack; });
}

ScenarioBuilder::ScenarioBuilder(std::string name) {
  scenario_.name = std::move(name);
}

ScenarioBuilder& ScenarioBuilder::seed(std::uint64_t value) {
  scenario_.seed = value;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::boards(std::size_t count) {
  scenario_.boards = count;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::detector(std::size_t window, std::size_t hop,
                                           std::size_t debounce,
                                           double threshold) {
  scenario_.window = window;
  scenario_.hop = hop;
  scenario_.debounce = debounce;
  scenario_.threshold = threshold;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::benign(detect::ProcessId pid,
                                         std::string profile,
                                         std::uint32_t session,
                                         std::uint64_t start,
                                         std::uint64_t calls, double noise) {
  ProcessSpec spec;
  spec.pid = pid;
  spec.attack = false;
  spec.profile = std::move(profile);
  spec.variant = session;
  spec.start = start;
  spec.calls = calls;
  spec.noise = noise;
  scenario_.processes.push_back(std::move(spec));
  return *this;
}

ScenarioBuilder& ScenarioBuilder::attack(detect::ProcessId pid,
                                         std::string family,
                                         std::uint32_t variant,
                                         std::uint64_t start,
                                         std::uint64_t calls, double noise) {
  ProcessSpec spec;
  spec.pid = pid;
  spec.attack = true;
  spec.profile = std::move(family);
  spec.variant = variant;
  spec.start = start;
  spec.calls = calls;
  spec.noise = noise;
  scenario_.processes.push_back(std::move(spec));
  return *this;
}

ScenarioBuilder& ScenarioBuilder::kill_board(std::size_t board,
                                             std::uint64_t at) {
  EventSpec event;
  event.kind = EventSpec::Kind::KillBoard;
  event.board = board;
  event.at = at;
  scenario_.events.push_back(event);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::revive_board(std::size_t board,
                                               std::uint64_t at) {
  EventSpec event;
  event.kind = EventSpec::Kind::ReviveBoard;
  event.board = board;
  event.at = at;
  scenario_.events.push_back(event);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::kill_owner(detect::ProcessId pid,
                                             std::uint64_t at) {
  EventSpec event;
  event.kind = EventSpec::Kind::KillOwner;
  event.pid = pid;
  event.at = at;
  scenario_.events.push_back(event);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::rollout(std::uint64_t at) {
  EventSpec event;
  event.kind = EventSpec::Kind::Rollout;
  event.at = at;
  scenario_.events.push_back(event);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::budget(std::uint64_t detection_latency,
                                         std::uint64_t files_lost,
                                         double fpr) {
  scenario_.budget.detection_latency = detection_latency;
  scenario_.budget.files_lost = files_lost;
  scenario_.budget.fpr = fpr;
  return *this;
}

Scenario ScenarioBuilder::build() const {
  Scenario scenario = scenario_;
  std::stable_sort(
      scenario.events.begin(), scenario.events.end(),
      [](const EventSpec& a, const EventSpec& b) { return a.at < b.at; });
  validate_scenario(scenario);
  return scenario;
}

void validate_scenario(const Scenario& scenario) {
  CSDML_REQUIRE(!scenario.name.empty(), "scenario: name required");
  CSDML_REQUIRE(scenario.name.find_first_of(" \t\n") == std::string::npos,
                "scenario: name must not contain whitespace");
  CSDML_REQUIRE(scenario.boards >= 1 && scenario.boards <= 16,
                "scenario: boards must be in [1, 16]");
  CSDML_REQUIRE(scenario.window > 0 && scenario.window <= kMaxScenarioWindow,
                "scenario: window must be in [1, " +
                    std::to_string(kMaxScenarioWindow) + "]");
  CSDML_REQUIRE(scenario.hop > 0 && scenario.hop <= scenario.window,
                "scenario: hop must be in [1, window]");
  CSDML_REQUIRE(scenario.debounce >= 1, "scenario: debounce must be >= 1");
  CSDML_REQUIRE(scenario.threshold > 0.0 && scenario.threshold < 1.0,
                "scenario: threshold must be in (0, 1)");
  CSDML_REQUIRE(!scenario.processes.empty(),
                "scenario: at least one process required");
  CSDML_REQUIRE(scenario.budget.fpr >= 0.0 && scenario.budget.fpr <= 1.0,
                "scenario: budget fpr must be in [0, 1]");

  std::set<detect::ProcessId> pids;
  for (const ProcessSpec& process : scenario.processes) {
    CSDML_REQUIRE(process.pid != 0, "scenario: pid 0 is reserved");
    CSDML_REQUIRE(pids.insert(process.pid).second,
                  "scenario: duplicate pid " + std::to_string(process.pid));
    CSDML_REQUIRE(process.calls > 0,
                  "scenario: process " + std::to_string(process.pid) +
                      " has zero calls");
    CSDML_REQUIRE(process.start <= kMaxScenarioCalls &&
                      process.calls <= kMaxScenarioCalls,
                  "scenario: process " + std::to_string(process.pid) +
                      " start and calls must each be at most " +
                      std::to_string(kMaxScenarioCalls));
    CSDML_REQUIRE(process.noise >= 0.0 && process.noise < 1.0,
                  "scenario: noise rate must be in [0, 1)");
    if (process.attack) {
      const ransomware::FamilyProfile* family = find_family(process.profile);
      CSDML_REQUIRE(family != nullptr,
                    "scenario: unknown ransomware family `" + process.profile +
                        "`");
      CSDML_REQUIRE(process.variant < family->variants,
                    "scenario: " + process.profile + " has only " +
                        std::to_string(family->variants) + " variants");
    } else {
      CSDML_REQUIRE(benign_profile_exists(process.profile),
                    "scenario: unknown benign profile `" + process.profile +
                        "`");
    }
  }

  for (const EventSpec& event : scenario.events) {
    switch (event.kind) {
      case EventSpec::Kind::KillBoard:
      case EventSpec::Kind::ReviveBoard:
        CSDML_REQUIRE(event.board < scenario.boards,
                      "scenario: event board out of range");
        break;
      case EventSpec::Kind::KillOwner:
        CSDML_REQUIRE(pids.contains(event.pid),
                      "scenario: kill-owner pid " + std::to_string(event.pid) +
                          " is not in the cast");
        break;
      case EventSpec::Kind::Rollout:
        break;
    }
  }
  CSDML_REQUIRE(std::is_sorted(scenario.events.begin(), scenario.events.end(),
                               [](const EventSpec& a, const EventSpec& b) {
                                 return a.at < b.at;
                               }),
                "scenario: events must be sorted by `at`");
}

const char* event_kind_name(EventSpec::Kind kind) {
  switch (kind) {
    case EventSpec::Kind::KillBoard: return "kill-board";
    case EventSpec::Kind::ReviveBoard: return "revive-board";
    case EventSpec::Kind::KillOwner: return "kill-owner";
    case EventSpec::Kind::Rollout: return "rollout";
  }
  return "unknown";
}

std::string serialize_scenario(const Scenario& scenario) {
  std::ostringstream out;
  out << "# csdml scenario v1\n";
  out << "scenario " << scenario.name << "\n";
  out << "seed " << scenario.seed << "\n";
  out << "boards " << scenario.boards << "\n";
  out << "detector window=" << scenario.window << " hop=" << scenario.hop
      << " debounce=" << scenario.debounce
      << " threshold=" << format_double(scenario.threshold) << "\n";
  for (const ProcessSpec& process : scenario.processes) {
    if (process.attack) {
      out << "attack pid=" << process.pid << " family=" << process.profile
          << " variant=" << process.variant;
    } else {
      out << "benign pid=" << process.pid << " profile=" << process.profile
          << " session=" << process.variant;
    }
    out << " start=" << process.start << " calls=" << process.calls;
    if (process.noise != kDefaultNoiseRate) {
      out << " noise=" << format_double(process.noise);
    }
    out << "\n";
  }
  for (const EventSpec& event : scenario.events) {
    out << "event " << event_kind_name(event.kind);
    switch (event.kind) {
      case EventSpec::Kind::KillBoard:
      case EventSpec::Kind::ReviveBoard:
        out << " board=" << event.board;
        break;
      case EventSpec::Kind::KillOwner:
        out << " pid=" << event.pid;
        break;
      case EventSpec::Kind::Rollout:
        break;
    }
    out << " at=" << event.at << "\n";
  }
  out << "budget latency=" << scenario.budget.detection_latency
      << " files-lost=" << scenario.budget.files_lost
      << " fpr=" << format_double(scenario.budget.fpr) << "\n";
  return out.str();
}

Scenario parse_scenario(const std::string& text, const std::string& origin) {
  Scenario scenario;
  bool named = false;
  std::istringstream in(text);
  std::string raw;
  std::size_t number = 0;
  while (std::getline(in, raw)) {
    ++number;
    const std::size_t hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    const std::size_t begin = raw.find_first_not_of(" \t\r");
    if (begin == std::string::npos) continue;
    raw = raw.substr(begin);

    // Positional lines (`scenario`, `seed`, `boards`, the event kind) must
    // be dispatched on the keyword alone — tokenize() rejects bare tokens,
    // so it only runs on the lines that actually carry key=value fields.
    std::string keyword;
    {
      std::istringstream keyword_in(raw);
      keyword_in >> keyword;
    }
    if (keyword == "scenario") {
      // The name is positional: `scenario <name>`.
      std::istringstream name_in(raw);
      std::string kw;
      name_in >> kw >> scenario.name;
      std::string extra;
      if (scenario.name.empty() || (name_in >> extra)) {
        parse_fail(origin, number, "expected `scenario <name>`");
      }
      named = true;
      continue;
    }
    if (keyword == "seed") {
      // `seed <u64>` and `boards <n>` are also positional.
      scenario.seed = positional_count(raw, origin, number,
                                       "expected `seed <u64>`", "a seed");
    } else if (keyword == "boards") {
      scenario.boards = positional_count(raw, origin, number,
                                         "expected `boards <n>`",
                                         "a board count");
    } else if (keyword == "detector") {
      FieldReader fields(tokenize(raw, origin, number), origin, number);
      scenario.window = fields.u64("window", kMaxScenarioWindow);
      scenario.hop = fields.u64("hop");
      scenario.debounce = fields.u64("debounce");
      scenario.threshold = fields.real("threshold");
      fields.done();
    } else if (keyword == "benign" || keyword == "attack") {
      FieldReader fields(tokenize(raw, origin, number), origin, number);
      ProcessSpec process;
      process.attack = keyword == "attack";
      process.pid = fields.u32("pid");
      process.profile =
          process.attack ? fields.str("family") : fields.str("profile");
      process.variant =
          process.attack ? fields.u32("variant") : fields.u32("session");
      process.start = fields.u64("start", kMaxScenarioCalls);
      process.calls = fields.u64("calls", kMaxScenarioCalls);
      process.noise = fields.real_or("noise", kDefaultNoiseRate);
      fields.done();
      scenario.processes.push_back(std::move(process));
    } else if (keyword == "event") {
      // `event <kind> ... at=N` — the kind is positional, so re-tokenize
      // from the remainder.
      std::istringstream event_in(raw);
      std::string keyword, kind;
      event_in >> keyword >> kind;
      std::string rest;
      std::getline(event_in, rest);
      FieldReader event_fields(tokenize("event " + rest, origin, number),
                               origin, number);
      EventSpec event;
      if (kind == "kill-board" || kind == "revive-board") {
        event.kind = kind == "kill-board" ? EventSpec::Kind::KillBoard
                                          : EventSpec::Kind::ReviveBoard;
        event.board = event_fields.u64("board");
      } else if (kind == "kill-owner") {
        event.kind = EventSpec::Kind::KillOwner;
        event.pid = event_fields.u32("pid");
      } else if (kind == "rollout") {
        event.kind = EventSpec::Kind::Rollout;
      } else {
        parse_fail(origin, number, "unknown event kind `" + kind + "`");
      }
      event.at = event_fields.u64("at");
      event_fields.done();
      scenario.events.push_back(event);
    } else if (keyword == "budget") {
      FieldReader fields(tokenize(raw, origin, number), origin, number);
      scenario.budget.detection_latency = fields.u64("latency");
      scenario.budget.files_lost = fields.u64("files-lost");
      scenario.budget.fpr = fields.real("fpr");
      fields.done();
    } else {
      parse_fail(origin, number, "unknown keyword `" + keyword + "`");
    }
  }
  if (!named) {
    parse_fail(origin, number, "missing `scenario <name>` line");
  }
  std::stable_sort(
      scenario.events.begin(), scenario.events.end(),
      [](const EventSpec& a, const EventSpec& b) { return a.at < b.at; });
  validate_scenario(scenario);
  return scenario;
}

Scenario load_scenario_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw ParseError("scenario: cannot open `" + path + "`");
  }
  std::ostringstream text;
  text << in.rdbuf();
  return parse_scenario(text.str(), path);
}

}  // namespace csdml::scenario
