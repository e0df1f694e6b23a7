// Exit-code contract tests across the operational commands.
//
// The contract (documented in cli.hpp): 0 success, 2 usage error
// (PreconditionError / malformed numbers), 1 runtime failure (unreadable
// or unwritable files, unhealthy verdicts, quality-gate and golden-digest
// failures). CI scripts branch on these, so the distinction between "you
// typed it wrong" (2) and "the system is unhealthy / the gate failed" (1)
// is load-bearing.
#include "host/cli.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "temp_path.hpp"

namespace csdml::host {
namespace {

using testing::temp_path;

struct CliRun {
  int code;
  std::string out;
  std::string err;
};

CliRun run(const std::vector<std::string>& args) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = run_cli(args, out, err);
  return CliRun{code, out.str(), err.str()};
}

std::string write_file(const char* name, const std::string& text) {
  const std::string path = temp_path(name);
  std::ofstream out(path, std::ios::trunc);
  out << text;
  return path;
}

/// A benign-only one-process scenario small enough for the tiny model to
/// chew through in well under a second; the FPR budget of 1.0 keeps the
/// quality gates out of the way so golden-file plumbing is what's tested.
const char* kMiniScenario =
    "scenario cli-mini\n"
    "seed 77\n"
    "boards 1\n"
    "detector window=100 hop=50 debounce=2 threshold=0.5\n"
    "benign pid=1 profile=VLC session=0 start=0 calls=150\n"
    "budget latency=0 files-lost=0 fpr=1\n";

TEST(CliExitCodes, ScenarioUsageErrorsReturnTwo) {
  EXPECT_EQ(run({"scenario"}).code, 2);               // missing subcommand
  EXPECT_EQ(run({"scenario", "frob"}).code, 2);       // unknown subcommand
  EXPECT_EQ(run({"scenario", "run", "--name", "not-a-scenario"}).code, 2);
  EXPECT_EQ(run({"scenario", "run", "--name"}).code, 2);  // missing value
  EXPECT_EQ(run({"scenario", "run", "--update-golden"}).code, 2);
  EXPECT_EQ(run({"scenario", "run", "--name", "clean-benign", "--seed",
                 "notanumber"}).code, 2);
  EXPECT_EQ(run({"scenario", "show"}).code, 2);       // missing --name
  EXPECT_EQ(run({"scenario", "show", "--name", "not-a-scenario"}).code, 2);
}

TEST(CliExitCodes, ScenarioListAndShowSucceed) {
  const CliRun list = run({"scenario", "list"});
  EXPECT_EQ(list.code, 0);
  EXPECT_NE(list.out.find("clean-benign"), std::string::npos);
  EXPECT_NE(list.out.find("attack-during-failover"), std::string::npos);

  const CliRun show = run({"scenario", "show", "--name", "clean-benign"});
  EXPECT_EQ(show.code, 0);
  EXPECT_NE(show.out.find("scenario clean-benign"), std::string::npos);
  EXPECT_NE(show.out.find("budget "), std::string::npos);
}

TEST(CliExitCodes, ScenarioBadInputFilesAreFailuresNotUsage) {
  // A missing or unparseable scenario file is a broken gate (1), not a
  // typo (2): CI must not mistake a deleted corpus file for a bad flag.
  EXPECT_EQ(run({"scenario", "run", "--file", "/nonexistent/x.scn"}).code, 1);
  const std::string bad =
      write_file("csdml_cli_bad.scn", "scenario x\nfrobnicate a=1\n");
  EXPECT_EQ(run({"scenario", "run", "--file", bad}).code, 1);
  std::remove(bad.c_str());
}

TEST(CliExitCodes, ScenarioGoldenLifecycle) {
  const std::string scn = write_file("csdml_cli_mini.scn", kMiniScenario);
  const std::string golden = temp_path("csdml_cli_golden.txt");
  std::remove(golden.c_str());

  // Comparing against an absent golden file is a failure…
  EXPECT_EQ(run({"scenario", "run", "--file", scn, "--tiny", "--golden",
                 golden}).code, 1);
  // …an unwritable --update-golden target too…
  EXPECT_EQ(run({"scenario", "run", "--file", scn, "--tiny", "--golden",
                 "/nonexistent-dir/golden.txt", "--update-golden"}).code, 1);
  // …but recording and then re-verifying round-trips to success.
  EXPECT_EQ(run({"scenario", "run", "--file", scn, "--tiny", "--golden",
                 golden, "--update-golden"}).code, 0);
  const CliRun match = run(
      {"scenario", "run", "--file", scn, "--tiny", "--golden", golden});
  EXPECT_EQ(match.code, 0) << match.out;
  EXPECT_NE(match.out.find("digests match"), std::string::npos);

  // A drifted digest is a failure with a diagnostic naming the scenario.
  std::ofstream(golden, std::ios::trunc)
      << "cli-mini 0000000000000000\n";
  const CliRun drift = run(
      {"scenario", "run", "--file", scn, "--tiny", "--golden", golden});
  EXPECT_EQ(drift.code, 1);
  EXPECT_NE(drift.out.find("drifted"), std::string::npos);

  std::remove(scn.c_str());
  std::remove(golden.c_str());
}

TEST(CliExitCodes, ClassifyDistinguishesUsageFromMissingFiles) {
  EXPECT_EQ(run({"classify"}).code, 2);  // missing required flags
  EXPECT_EQ(run({"classify", "--weights", "/nonexistent/w.txt", "--dataset",
                 "/nonexistent/d.csv"}).code, 1);
}

TEST(CliExitCodes, ClassifyRefusesUntrustedWeightDimensions) {
  // A weight-file dimension that is not a positive integer, or that
  // wraps the loader's size arithmetic (2^61), is a usage error (2),
  // refused before the (here missing) dataset is read.
  for (const char* embed : {"2305843009213693952", "2.5"}) {
    const std::string weights = write_file(
        "csdml_cli_bad_dims.txt",
        std::string("csdml-weights v1\nactivation softsign\nvocab 8\nembed ") +
            embed + "\nhidden 32\n");
    const CliRun bad = run({"classify", "--weights", weights, "--dataset",
                            "/nonexistent/d.csv"});
    EXPECT_EQ(bad.code, 2) << embed << ": " << bad.err;
    EXPECT_NE(bad.err.find("embed"), std::string::npos) << bad.err;
    std::remove(weights.c_str());
  }
}

TEST(CliExitCodes, TrainRealFlagsParseWholeBeforeTheDataset) {
  // A malformed or non-finite real is a usage error naming its flag, and
  // it is caught before the (here missing) dataset is read.
  for (const char* lr : {"0.01x", "abc", "nan", "inf", ""}) {
    const CliRun bad = run({"train", "--dataset", "/nonexistent/d.csv",
                            "--weights", "/nonexistent/w.txt", "--lr", lr});
    EXPECT_EQ(bad.code, 2) << lr;
    EXPECT_NE(bad.err.find("--lr"), std::string::npos) << bad.err;
  }
  EXPECT_EQ(run({"train", "--dataset", "/nonexistent/d.csv", "--weights",
                 "/nonexistent/w.txt", "--test-fraction", "1e999"}).code, 2);
  EXPECT_EQ(run({"train", "--dataset", "/nonexistent/d.csv"}).code, 2);  // no --weights
  // Well-formed flags reach the dataset, whose absence is a runtime error.
  EXPECT_EQ(run({"train", "--dataset", "/nonexistent/d.csv", "--weights",
                 "/nonexistent/w.txt", "--lr", "-0.5e-2"}).code, 1);
}

TEST(CliExitCodes, StatsUsageErrorsAndUnwritableTrace) {
  EXPECT_EQ(run({"stats", "--level", "turbo"}).code, 2);
  EXPECT_EQ(run({"stats", "--calls", "50"}).code, 2);       // below minimum
  EXPECT_EQ(run({"stats", "--fault-rate", "1.5"}).code, 2);  // out of range
  EXPECT_EQ(run({"stats", "--calls", "-1"}).code, 2);  // not a wrapped count
  // Reals parse whole: 0.2x does not truncate to 0.2.
  const CliRun real = run({"stats", "--calls", "200", "--fault-rate", "0.2x"});
  EXPECT_EQ(real.code, 2);
  EXPECT_NE(real.err.find("--fault-rate"), std::string::npos) << real.err;
  // The unwritable trace destination fails fast (before the workload).
  EXPECT_EQ(
      run({"stats", "--trace-out", "/nonexistent-dir/trace.json"}).code, 1);
}

TEST(CliExitCodes, TopUsageErrors) {
  EXPECT_EQ(run({"top", "--boards", "0"}).code, 2);
  EXPECT_EQ(run({"top", "--boards", "99"}).code, 2);
  EXPECT_EQ(run({"top", "--rounds", "0"}).code, 2);
  EXPECT_EQ(run({"top", "--interval-calls", "10"}).code, 2);
  EXPECT_EQ(run({"top", "--fault-rate", "1.5"}).code, 2);
  EXPECT_EQ(run({"top", "--level", "turbo"}).code, 2);
  EXPECT_EQ(run({"top", "--rounds", "-1"}).code, 2);
  EXPECT_EQ(run({"top", "--fault-rate", "0.1abc"}).code, 2);
  // Flags a subcommand does not name are refused, not ignored.
  const CliRun unknown = run({"top", "--health"});
  EXPECT_EQ(unknown.code, 2);
  EXPECT_NE(unknown.err.find("--health"), std::string::npos) << unknown.err;
}

// `watch` is folded into `top --boards 1`, the single-board console; the
// Watch* tests hold that console to watch's old exit-code contracts.
TEST(CliExitCodes, WatchUsageErrors) {
  EXPECT_EQ(run({"top", "--boards", "1", "--rounds", "0"}).code, 2);
  EXPECT_EQ(run({"top", "--boards", "1", "--interval-calls", "10"}).code, 2);
  EXPECT_EQ(run({"top", "--boards", "1", "--fault-rate", "2"}).code, 2);
  // There is no separate `watch` subcommand any more.
  const CliRun watch = run({"watch"});
  EXPECT_EQ(watch.code, 2);
  EXPECT_NE(watch.err.find("unknown command"), std::string::npos);
}

TEST(CliExitCodes, WatchUnhealthyVerdictExitsOne) {
  // A near-certain launch-failure rate latches the engine: the lone board
  // is still DOWN in the final frame and the console must say so in its
  // exit code.
  const CliRun sick = run({"top", "--once", "--boards", "1", "--rounds", "2",
                           "--interval-calls", "200", "--fault-rate",
                           "0.95"});
  EXPECT_EQ(sick.code, 1) << sick.out << sick.err;
  EXPECT_NE(sick.out.find("DOWN"), std::string::npos) << sick.out;

  const CliRun healthy = run({"top", "--once", "--boards", "1", "--rounds",
                              "1", "--interval-calls", "200"});
  EXPECT_EQ(healthy.code, 0) << healthy.out << healthy.err;
  EXPECT_EQ(healthy.out.find("DOWN"), std::string::npos) << healthy.out;
}

TEST(CliExitCodes, TopOnceAndJsonSucceed) {
  // --once renders the final frame only: no live-mode clear-screen
  // escapes in the output, exit 0 while conservation holds and nothing
  // critical latched.
  const CliRun text = run({"top", "--once", "--rounds", "2",
                           "--interval-calls", "100", "--boards", "2"});
  EXPECT_EQ(text.code, 0) << text.out;
  EXPECT_NE(text.out.find("time series:"), std::string::npos);
  EXPECT_NE(text.out.find("conservation ok"), std::string::npos);
  EXPECT_EQ(text.out.find("\x1b[2J"), std::string::npos);

  const CliRun json = run({"top", "--json", "--rounds", "2",
                           "--interval-calls", "100", "--boards", "2"});
  EXPECT_EQ(json.code, 0) << json.err;
  EXPECT_NE(json.out.find("\"tool\":\"top\""), std::string::npos);
  EXPECT_NE(json.out.find("\"fleet\":"), std::string::npos);
  EXPECT_NE(json.out.find("\"alerts\":"), std::string::npos);
  EXPECT_NE(json.out.find("\"tsdb\":"), std::string::npos);
  EXPECT_NE(json.out.find("\"conservation_ok\":true"), std::string::npos);
}

TEST(CliExitCodes, ServeUsageErrors) {
  EXPECT_EQ(run({"serve", "--kill-board", "banana"}).code, 2);
  EXPECT_EQ(run({"serve", "--kill-board", "0@100"}).code, 2);  // 1 board
  EXPECT_EQ(run({"serve", "--boards", "99"}).code, 2);
  EXPECT_EQ(run({"serve", "--ingest-threads", "0"}).code, 2);
  // Counts parse whole and unsigned: -1 does not wrap, 200x does not
  // truncate, and a misspelt flag is refused.
  EXPECT_EQ(run({"serve", "--calls", "-1", "--ingest-threads", "1"}).code, 2);
  EXPECT_EQ(run({"serve", "--calls", "200x"}).code, 2);
  EXPECT_EQ(run({"serve", "--boards4", "2"}).code, 2);
  // The coalescer has no batching deadline, so its old flag is unknown.
  const CliRun deadline = run({"serve", "--coalesce-deadline-us", "200"});
  EXPECT_EQ(deadline.code, 2);
  EXPECT_NE(deadline.err.find("--coalesce-deadline-us"), std::string::npos)
      << deadline.err;
}

TEST(CliExitCodes, ServeFailoverCount) {
  // Exit 0 requires exactly one failover per killed board: a healthy
  // fleet under unpaced load drains nothing, and a kill drains once.
  const CliRun lone = run({"serve", "--calls", "200"});
  EXPECT_EQ(lone.code, 0) << lone.out << lone.err;
  EXPECT_NE(lone.out.find("failovers 0 (expected 0) ok"), std::string::npos)
      << lone.out;

  const CliRun calm = run({"serve", "--boards", "2", "--calls", "200"});
  EXPECT_EQ(calm.code, 0) << calm.out << calm.err;
  EXPECT_NE(calm.out.find("failovers 0 (expected 0) ok"), std::string::npos)
      << calm.out;

  const CliRun drill = run(
      {"serve", "--boards", "2", "--calls", "200", "--kill-board", "1@100"});
  EXPECT_EQ(drill.code, 0) << drill.out << drill.err;
  EXPECT_NE(drill.out.find("failovers 1 (expected 1) ok"), std::string::npos)
      << drill.out;
}

}  // namespace
}  // namespace csdml::host
