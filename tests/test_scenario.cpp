// Scenario harness tests: spec round-trips, scorer arithmetic on
// hand-built verdict streams, seed determinism of the runner, and the
// attack-during-failover invariant (no pid lost across a rehash).
//
// Runner tests use the tiny model (scenario_model(true)) so this suite
// stays inside the `scenario` ctest label's time budget; full-model
// outcomes are gated separately by the golden-digest CTest entry.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "common/error.hpp"
#include "ransomware/api_vocab.hpp"
#include "ransomware/sandbox.hpp"
#include "scenario/corpus.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "scenario/scorer.hpp"

namespace csdml::scenario {
namespace {

// ---------------------------------------------------------------- parsing

TEST(ScenarioParse, RoundTripsEveryBuiltin) {
  for (const Scenario& original : builtin_corpus()) {
    const std::string text = serialize_scenario(original);
    const Scenario parsed = parse_scenario(text, original.name);
    EXPECT_EQ(parsed, original) << original.name;
    // Serialization is canonical: a second lap is byte-identical.
    EXPECT_EQ(serialize_scenario(parsed), text) << original.name;
  }
}

TEST(ScenarioParse, AppliesDefaultsAndComments) {
  const Scenario s = parse_scenario(
      "# a comment line\n"
      "scenario demo  # trailing comment\n"
      "benign pid=7 profile=VLC session=1 start=5 calls=200\n");
  EXPECT_EQ(s.name, "demo");
  EXPECT_EQ(s.seed, Scenario{}.seed);
  EXPECT_EQ(s.boards, 1u);
  ASSERT_EQ(s.processes.size(), 1u);
  EXPECT_DOUBLE_EQ(s.processes[0].noise, kDefaultNoiseRate);
  EXPECT_FALSE(s.processes[0].attack);
}

TEST(ScenarioParse, SortsEventsByRound) {
  const Scenario s = parse_scenario(
      "scenario demo\n"
      "boards 2\n"
      "benign pid=1 profile=VLC session=0 start=0 calls=300\n"
      "event revive-board board=0 at=200\n"
      "event kill-board board=0 at=50\n");
  ASSERT_EQ(s.events.size(), 2u);
  EXPECT_EQ(s.events[0].kind, EventSpec::Kind::KillBoard);
  EXPECT_EQ(s.events[1].kind, EventSpec::Kind::ReviveBoard);
}

TEST(ScenarioParse, RejectsMalformedText) {
  const char* benign = "benign pid=1 profile=VLC session=0 start=0 calls=100\n";
  // No `scenario <name>` line at all.
  EXPECT_THROW(parse_scenario(std::string(benign)), ParseError);
  // Bare token where key=value is required.
  EXPECT_THROW(parse_scenario("scenario x\nbenign pid\n"), ParseError);
  // Duplicate key on one line.
  EXPECT_THROW(
      parse_scenario("scenario x\n"
                     "benign pid=1 pid=2 profile=VLC session=0 start=0 "
                     "calls=100\n"),
      ParseError);
  // Unknown keyword, unknown event kind, unknown field.
  EXPECT_THROW(parse_scenario("scenario x\nfrobnicate a=1\n"), ParseError);
  EXPECT_THROW(parse_scenario("scenario x\nevent explode at=5\n"), ParseError);
  EXPECT_THROW(
      parse_scenario(std::string("scenario x\n") + benign +
                     "detector window=100 hop=25 debounce=2 threshold=0.5 "
                     "bogus=1\n"),
      ParseError);
  // Positional lines with the wrong shape.
  EXPECT_THROW(parse_scenario("scenario\n"), ParseError);
  EXPECT_THROW(parse_scenario("scenario x\nseed notanumber\n"), ParseError);
  EXPECT_THROW(parse_scenario("scenario x\nboards 1 2\n"), ParseError);
}

/// The ParseError message `text` raises, or "" when it parses (or fails
/// some other way).
std::string parse_error(const std::string& text) {
  try {
    parse_scenario(text);
  } catch (const ParseError& e) {
    return e.what();
  }
  return "";
}

TEST(ScenarioParse, RejectsCountsThatWouldWrapOrTruncate) {
  const std::string header = "scenario x\n";
  const auto benign = [&](const std::string& fields) {
    return header + "benign profile=VLC " + fields + "\n";
  };
  const auto attack = [&](const std::string& fields) {
    return header + "attack family=Cryptowall " + fields + "\n";
  };
  // Digits only: a sign, a space-free plus or a hex prefix is not a count
  // (std::stoull read `-1` as 2^64 - 1).
  EXPECT_NE(parse_error(benign("pid=-1 session=0 start=0 calls=100"))
                .find("`pid=-1`"),
            std::string::npos);
  EXPECT_NE(parse_error(benign("pid=+1 session=0 start=0 calls=100")), "");
  EXPECT_NE(parse_error(benign("pid=0x1 session=0 start=0 calls=100")), "");
  EXPECT_NE(parse_error(benign("pid=1 session=0 start=0 calls=-100")), "");
  // 32-bit fields reject what a cast would have truncated: pid 2^32 + 1
  // used to become pid 1, variant 2^32 variant 0.
  EXPECT_NE(parse_error(benign("pid=4294967297 session=0 start=0 calls=100"))
                .find("`pid=4294967297` exceeds 4294967295"),
            std::string::npos);
  EXPECT_NE(parse_error(attack("pid=1 variant=4294967296 start=0 calls=100"))
                .find("`variant=4294967296`"),
            std::string::npos);
  EXPECT_NE(parse_error(benign("pid=1 session=4294967296 start=0 calls=100"))
                .find("`session="),
            std::string::npos);
  EXPECT_NE(parse_error(benign("pid=1 session=0 start=0 calls=100") +
                        "event kill-owner pid=4294967297 at=10\n")
                .find("`pid=4294967297`"),
            std::string::npos);
  // start and calls stop at kMaxScenarioCalls, window at
  // kMaxScenarioWindow: calls=2^64-1 once wrapped the runner's trace
  // length to 63 and sent `start + calls` near 2^64.
  EXPECT_NE(
      parse_error(benign("pid=1 session=0 start=0 "
                         "calls=18446744073709551615"))
          .find("`calls=18446744073709551615` exceeds 1000000"),
      std::string::npos);
  EXPECT_NE(parse_error(benign("pid=1 session=0 start=0 calls=1000001"))
                .find("`calls="),
            std::string::npos);
  EXPECT_NE(parse_error(benign("pid=1 session=0 start=1000001 calls=100"))
                .find("`start="),
            std::string::npos);
  EXPECT_NE(parse_error(benign("pid=1 session=0 start=0 calls=100") +
                        "detector window=10001 hop=25 debounce=2 "
                        "threshold=0.5\n")
                .find("`window=10001` exceeds 10000"),
            std::string::npos);
  // Positional counts follow the same rule.
  EXPECT_NE(parse_error(header + "seed -1\n").find("`-1` is not a seed"),
            std::string::npos);
  EXPECT_NE(parse_error(header + "boards +2\n"), "");
  EXPECT_NE(parse_error(header + "seed 18446744073709551616\n"), "");

  // The bounds themselves are accepted.
  const Scenario edge = parse_scenario(
      benign("pid=4294967295 session=4294967295 start=1000000 "
             "calls=1000000") +
      "detector window=10000 hop=25 debounce=2 threshold=0.5\n"
      "seed 18446744073709551615\n");
  EXPECT_EQ(edge.processes[0].pid, 4294967295u);
  EXPECT_EQ(edge.processes[0].variant, 4294967295u);
  EXPECT_EQ(edge.horizon(), 2'000'000u);
  EXPECT_EQ(edge.window, 10'000u);
  EXPECT_EQ(edge.seed, 18446744073709551615u);

  // Scenarios built in code meet the same bounds in validate_scenario.
  EXPECT_THROW(ScenarioBuilder("x")
                   .benign(1, "VLC", 0, 0, kMaxScenarioCalls + 1)
                   .build(),
               PreconditionError);
}

TEST(ScenarioParse, ValidatesSemantics) {
  const char* header = "scenario x\n";
  // Duplicate pid.
  EXPECT_THROW(
      parse_scenario(std::string(header) +
                     "benign pid=1 profile=VLC session=0 start=0 calls=100\n"
                     "benign pid=1 profile=7-Zip session=0 start=0 "
                     "calls=100\n"),
      PreconditionError);
  // Unknown benign profile / attack family.
  EXPECT_THROW(parse_scenario(std::string(header) +
                              "benign pid=1 profile=NotARealApp session=0 "
                              "start=0 calls=100\n"),
               PreconditionError);
  EXPECT_THROW(parse_scenario(std::string(header) +
                              "attack pid=1 family=NotAFamily variant=0 "
                              "start=0 calls=100\n"),
               PreconditionError);
  // Event aimed past the board range.
  EXPECT_THROW(
      parse_scenario(std::string(header) +
                     "benign pid=1 profile=VLC session=0 start=0 calls=100\n"
                     "event kill-board board=5 at=10\n"),
      PreconditionError);
}

TEST(ScenarioCorpus, TextFilesMatchBuiltins) {
  // tests/scenarios/*.scn are the serialized builtins; regenerate with
  //   csdml scenario show --name <scenario> > tests/scenarios/<scenario>.scn
  const std::filesystem::path dir{CSDML_SCENARIO_CORPUS_DIR};
  for (const Scenario& builtin : builtin_corpus()) {
    const std::filesystem::path path = dir / (builtin.name + ".scn");
    ASSERT_TRUE(std::filesystem::exists(path)) << path;
    EXPECT_EQ(load_scenario_file(path.string()), builtin) << path;
  }
}

TEST(ScenarioCorpus, GoldenFileCoversEveryScenario) {
  const std::filesystem::path path =
      std::filesystem::path{CSDML_SCENARIO_CORPUS_DIR} / "golden_digests.txt";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::set<std::string> named;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, digest;
    ASSERT_TRUE(fields >> name >> digest) << line;
    EXPECT_EQ(digest.size(), 16u) << line;
    named.insert(name);
  }
  for (const Scenario& builtin : builtin_corpus()) {
    EXPECT_TRUE(named.contains(builtin.name)) << builtin.name;
  }
}

// ---------------------------------------------------------------- sandbox

TEST(ScenarioSandbox, CountsCompletedEncryptRenameMotifs) {
  const auto& vocab = ransomware::ApiVocabulary::instance();
  const nn::TokenId encrypt = vocab.require("CryptEncrypt");
  const nn::TokenId bcrypt = vocab.require("BCryptEncrypt");
  const nn::TokenId rename = vocab.require("MoveFileExW");
  const nn::TokenId replace = vocab.require("ReplaceFileW");
  const nn::TokenId other = vocab.require("ReadFile");

  using Trace = std::vector<nn::TokenId>;
  EXPECT_EQ(ransomware::count_files_encrypted(Trace{}), 0u);
  // A rename with no pending encrypt is not a lost file.
  EXPECT_EQ(ransomware::count_files_encrypted(Trace{rename, replace}), 0u);
  // encrypt → (noise) → rename completes one file.
  EXPECT_EQ(ransomware::count_files_encrypted(Trace{encrypt, other, rename}),
            1u);
  // Double encrypt before one rename is still one file.
  EXPECT_EQ(ransomware::count_files_encrypted(Trace{encrypt, bcrypt, replace}),
            1u);
  // A trailing encrypt with no rename yet has lost nothing.
  EXPECT_EQ(ransomware::count_files_encrypted(
                Trace{encrypt, rename, bcrypt, replace, encrypt}),
            2u);
}

// ----------------------------------------------------------------- scorer

/// A two-process scenario (benign pid 1, attack pid 2) and matching
/// synthetic traces/verdicts for exercising the scorer arithmetic without
/// running a fleet.
struct ScorerFixture {
  Scenario scenario;
  std::unordered_map<detect::ProcessId, std::vector<nn::TokenId>> traces;
  serve::BoardFleet::Stats fleet;

  ScorerFixture() {
    scenario = ScenarioBuilder("scorer-arith")
                   .seed(7)
                   .boards(1)
                   .detector(100, 25, 2, 0.5)
                   .benign(1, "VLC", 0, 0, 200)
                   .attack(2, "Lockbit", 0, 0, 200)
                   .budget(100, 80, 0.0)
                   .build();
    const auto& vocab = ransomware::ApiVocabulary::instance();
    const nn::TokenId encrypt = vocab.require("CryptEncrypt");
    const nn::TokenId rename = vocab.require("MoveFileExW");
    const nn::TokenId noise = vocab.require("ReadFile");
    traces[1] = std::vector<nn::TokenId>(200, noise);
    // The attack encrypts one file per two calls: prefix of n calls has
    // n/2 completed motifs.
    std::vector<nn::TokenId> attack;
    for (int i = 0; i < 100; ++i) {
      attack.push_back(encrypt);
      attack.push_back(rename);
    }
    traces[2] = attack;
  }

  serve::Verdict verdict(detect::ProcessId pid, std::uint64_t call,
                         bool alert) const {
    serve::Verdict v;
    v.process = pid;
    v.call_index = call;
    v.alert = alert;
    return v;
  }

  /// Benign quiet; attack alerts from its third window on. Sorted by
  /// (pid, call_index) as score_scenario requires.
  std::vector<serve::Verdict> detected_stream() {
    std::vector<serve::Verdict> verdicts;
    for (std::uint64_t call = 100; call <= 200; call += 25) {
      verdicts.push_back(verdict(1, call, false));
    }
    for (std::uint64_t call = 100; call <= 200; call += 25) {
      verdicts.push_back(verdict(2, call, call >= 150));
    }
    fleet_accounting(verdicts.size());
    return verdicts;
  }

  void fleet_accounting(std::size_t verdict_count) {
    fleet.totals = {};
    fleet.totals.enqueued = verdict_count;
    fleet.totals.verdicts = verdict_count;
    fleet.boards_admitted = 1;
  }
};

TEST(ScenarioScorer, ComputesLatencyFilesAndFpr) {
  ScorerFixture fix;
  const std::vector<serve::Verdict> verdicts = fix.detected_stream();
  const ScoreSummary summary =
      score_scenario(fix.scenario, verdicts, fix.traces, fix.fleet);

  EXPECT_EQ(summary.attacks, 1u);
  EXPECT_EQ(summary.benign, 1u);
  EXPECT_EQ(summary.detected, 1u);
  EXPECT_EQ(summary.false_positives, 0u);
  EXPECT_DOUBLE_EQ(summary.fpr, 0.0);
  // First alert at call 150, first classifiable point at 100 → latency 50.
  ASSERT_EQ(summary.latencies.size(), 1u);
  EXPECT_EQ(summary.latencies[0], 50u);
  // 150 calls let through at one motif per two calls.
  EXPECT_EQ(summary.files_lost, 75u);

  ASSERT_EQ(summary.processes.size(), 2u);
  EXPECT_EQ(summary.processes[0].pid, 1u);
  EXPECT_EQ(summary.processes[0].first_alert_call, kNever);
  EXPECT_EQ(summary.processes[1].first_alert_call, 150u);
  EXPECT_EQ(summary.processes[1].detection_latency, 50u);
  EXPECT_EQ(summary.processes[1].files_lost, 75u);

  const GateReport gates = evaluate_gates(fix.scenario, summary);
  EXPECT_TRUE(gates.pass());
}

TEST(ScenarioScorer, UndetectedAttackFailsGatesAndLosesEverything) {
  ScorerFixture fix;
  std::vector<serve::Verdict> verdicts;
  for (std::uint64_t call = 100; call <= 200; call += 25) {
    verdicts.push_back(fix.verdict(1, call, false));
  }
  for (std::uint64_t call = 100; call <= 200; call += 25) {
    verdicts.push_back(fix.verdict(2, call, false));
  }
  fix.fleet_accounting(verdicts.size());
  const ScoreSummary summary =
      score_scenario(fix.scenario, verdicts, fix.traces, fix.fleet);

  EXPECT_EQ(summary.detected, 0u);
  EXPECT_TRUE(summary.latencies.empty());
  // Undetected: the whole scheduled stream ran → all 100 files lost.
  EXPECT_EQ(summary.files_lost, 100u);

  const GateReport gates = evaluate_gates(fix.scenario, summary);
  EXPECT_FALSE(gates.attacks_detected);
  EXPECT_FALSE(gates.latency_within_budget);
  EXPECT_FALSE(gates.files_within_budget);
  EXPECT_FALSE(gates.pass());
}

TEST(ScenarioScorer, BenignAlertIsAFalsePositive) {
  ScorerFixture fix;
  std::vector<serve::Verdict> verdicts = fix.detected_stream();
  verdicts[2].alert = true;  // pid 1, call 150
  const ScoreSummary summary =
      score_scenario(fix.scenario, verdicts, fix.traces, fix.fleet);
  EXPECT_EQ(summary.false_positives, 1u);
  EXPECT_DOUBLE_EQ(summary.fpr, 1.0);
  EXPECT_FALSE(evaluate_gates(fix.scenario, summary).fpr_within_budget);
}

TEST(ScenarioScorer, ConservationViolationFailsGates) {
  ScorerFixture fix;
  const std::vector<serve::Verdict> verdicts = fix.detected_stream();
  fix.fleet.totals.enqueued += 1;  // one window vanished
  const ScoreSummary summary =
      score_scenario(fix.scenario, verdicts, fix.traces, fix.fleet);
  const GateReport gates = evaluate_gates(fix.scenario, summary);
  EXPECT_FALSE(gates.conservation);
  EXPECT_FALSE(gates.pass());
}

TEST(ScenarioScorer, DigestIsOrderStableAndSeedSensitive) {
  ScorerFixture fix;
  const std::vector<serve::Verdict> verdicts = fix.detected_stream();
  const ScoreSummary summary =
      score_scenario(fix.scenario, verdicts, fix.traces, fix.fleet);
  const GateReport gates = evaluate_gates(fix.scenario, summary);
  const std::uint64_t digest =
      outcome_digest(fix.scenario, verdicts, summary, gates);
  EXPECT_EQ(digest, outcome_digest(fix.scenario, verdicts, summary, gates));
  EXPECT_EQ(format_digest(digest).size(), 16u);

  Scenario reseeded = fix.scenario;
  reseeded.seed += 1;
  EXPECT_NE(outcome_digest(reseeded, verdicts, summary, gates), digest);

  // Probabilities are deliberately outside the digest (floating-point
  // formatting is not byte-stable); flipping one must not move it.
  std::vector<serve::Verdict> jittered = verdicts;
  jittered[0].probability = 0.123456;
  EXPECT_EQ(outcome_digest(fix.scenario, jittered, summary, gates), digest);
}

// ----------------------------------------------------------------- runner

Scenario small_attack_scenario() {
  return ScenarioBuilder("runner-smoke")
      .seed(501)
      .boards(1)
      .detector(100, 25, 2, 0.5)
      .benign(1, "SumatraPDF", 0, 0, 300)
      .attack(2, "Lockbit", 2, 50, 250)
      .budget(150, 80, 0.0)
      .build();
}

TEST(ScenarioRunner, SameSeedSameDigestDifferentSeedDiffers) {
  const Scenario scenario = small_attack_scenario();
  RunOptions options;
  options.tiny = true;

  const RunResult first = run_scenario(scenario, options);
  const RunResult second = run_scenario(scenario, options);
  EXPECT_EQ(first.digest, second.digest);
  ASSERT_EQ(first.verdicts.size(), second.verdicts.size());
  for (std::size_t i = 0; i < first.verdicts.size(); ++i) {
    EXPECT_EQ(first.verdicts[i].process, second.verdicts[i].process);
    EXPECT_EQ(first.verdicts[i].call_index, second.verdicts[i].call_index);
    EXPECT_EQ(first.verdicts[i].alert, second.verdicts[i].alert);
  }

  RunOptions reseeded = options;
  reseeded.seed = 502;
  EXPECT_NE(run_scenario(scenario, reseeded).digest, first.digest);
}

TEST(ScenarioRunner, VerdictStreamIsSortedAndConserved) {
  RunOptions options;
  options.tiny = true;
  const RunResult result = run_scenario(small_attack_scenario(), options);

  EXPECT_TRUE(std::is_sorted(
      result.verdicts.begin(), result.verdicts.end(),
      [](const serve::Verdict& a, const serve::Verdict& b) {
        return a.process != b.process ? a.process < b.process
                                      : a.call_index < b.call_index;
      }));
  EXPECT_TRUE(result.gates.conservation);
  EXPECT_TRUE(result.gates.nothing_shed);
  EXPECT_GT(result.summary.fleet.totals.verdicts, 0u);
}

TEST(ScenarioRunner, AttackSurvivesOwnerBoardFailover) {
  // Kill the board that owns the attack pid mid-encryption: the pid must
  // cross the rehash, keep producing verdicts, and still be caught.
  const Scenario scenario = ScenarioBuilder("runner-failover")
                                .seed(503)
                                .boards(2)
                                .detector(100, 25, 2, 0.5)
                                .benign(1, "SumatraPDF", 0, 0, 400)
                                .benign(2, "VLC", 0, 0, 400)
                                .attack(9, "Wannacry", 0, 40, 360)
                                .kill_owner(9, 180)
                                .budget(250, 120, 1.0)
                                .build();
  RunOptions options;
  options.tiny = true;
  const RunResult result = run_scenario(scenario, options);

  EXPECT_EQ(result.summary.fleet.failovers, 1u);
  EXPECT_TRUE(result.gates.conservation);
  EXPECT_TRUE(result.gates.failover_resolved);

  // No pid lost across the rehash: every process keeps verdicting after
  // the kill round, and the attack is still detected.
  for (const ProcessOutcome& outcome : result.summary.processes) {
    EXPECT_GT(outcome.verdicts, 0u) << "pid " << outcome.pid;
    const auto last = std::find_if(
        result.verdicts.rbegin(), result.verdicts.rend(),
        [&outcome](const serve::Verdict& v) {
          return v.process == outcome.pid;
        });
    ASSERT_NE(last, result.verdicts.rend());
    EXPECT_GT(last->call_index, 180u) << "pid " << outcome.pid;
  }
  EXPECT_EQ(result.summary.detected, 1u);
  const ProcessOutcome& attack = result.summary.processes.back();
  EXPECT_TRUE(attack.attack);
  EXPECT_NE(attack.first_alert_call, kNever);
}

}  // namespace
}  // namespace csdml::scenario
