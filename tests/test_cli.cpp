#include "host/cli.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace csdml::host {
namespace {

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

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(Cli, HelpAndUnknownCommands) {
  EXPECT_EQ(run({"help"}).code, 0);
  EXPECT_NE(run({"help"}).out.find("gen-dataset"), std::string::npos);
  EXPECT_EQ(run({}).code, 2);
  const CliRun unknown = run({"frobnicate"});
  EXPECT_EQ(unknown.code, 2);
  EXPECT_NE(unknown.err.find("unknown command"), std::string::npos);
}

TEST(Cli, UsageErrorsReturnTwo) {
  EXPECT_EQ(run({"gen-dataset"}).code, 2);  // missing --out
  EXPECT_EQ(run({"train", "--dataset"}).code, 2);  // missing value
  EXPECT_EQ(run({"timings", "--level", "quantum"}).code, 2);
  EXPECT_EQ(run({"gen-dataset", "stray"}).code, 2);
  // Non-numeric values for numeric flags are usage errors, not crashes.
  EXPECT_EQ(run({"timings", "--cus", "many"}).code, 2);
  EXPECT_EQ(run({"gen-dataset", "--out", "/tmp/x.csv", "--seed", "abc"}).code, 2);
}

TEST(Cli, TimingsMatchesPaperTotal) {
  const CliRun result = run({"timings", "--level", "fixed-point"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("kernel_gates"), std::string::npos);
  EXPECT_NE(result.out.find("2.153"), std::string::npos);  // ~2.15133 us
}

TEST(Cli, TimingsStreamSwitch) {
  const CliRun axi = run({"timings"});
  const CliRun stream = run({"timings", "--stream"});
  EXPECT_EQ(stream.code, 0);
  EXPECT_NE(axi.out, stream.out);
}

TEST(Cli, ReportsRenderAllLevels) {
  const CliRun result = run({"reports"});
  EXPECT_EQ(result.code, 0);
  EXPECT_NE(result.out.find("lstm_vanilla"), std::string::npos);
  EXPECT_NE(result.out.find("lstm_fixed-point"), std::string::npos);
  EXPECT_NE(result.out.find("Synthesis report: kernel_hidden_state"),
            std::string::npos);
}

TEST(Cli, EndToEndPipeline) {
  const std::string dataset = temp_path("csdml_cli_dataset.csv");
  const std::string weights = temp_path("csdml_cli_weights.txt");

  const CliRun gen = run({"gen-dataset", "--out", dataset, "--ransomware",
                          "120", "--benign", "141", "--seed", "5"});
  ASSERT_EQ(gen.code, 0) << gen.err;
  EXPECT_NE(gen.out.find("261 windows"), std::string::npos);

  const CliRun train = run({"train", "--dataset", dataset, "--weights",
                            weights, "--epochs", "3"});
  ASSERT_EQ(train.code, 0) << train.err;
  EXPECT_NE(train.out.find("best accuracy"), std::string::npos);

  const CliRun classify =
      run({"classify", "--weights", weights, "--dataset", dataset});
  ASSERT_EQ(classify.code, 0) << classify.err;
  EXPECT_NE(classify.out.find("accuracy"), std::string::npos);
  EXPECT_NE(classify.out.find("roc auc"), std::string::npos);
  EXPECT_NE(classify.out.find("us/window"), std::string::npos);

  const CliRun attribute = run({"attribute", "--weights", weights, "--dataset",
                                dataset, "--row", "0", "--top", "3"});
  ASSERT_EQ(attribute.code, 0) << attribute.err;
  EXPECT_NE(attribute.out.find("p(ransomware)"), std::string::npos);
  EXPECT_NE(attribute.out.find("api_call"), std::string::npos);
  EXPECT_EQ(run({"attribute", "--weights", weights, "--dataset", dataset,
                 "--row", "999999"}).code, 2);

  std::remove(dataset.c_str());
  std::remove(weights.c_str());
}

TEST(Cli, GenTracesWritesJsonl) {
  const std::string path = temp_path("csdml_cli_traces.jsonl");
  const CliRun result =
      run({"gen-traces", "--out", path, "--length", "300"});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("112 sample traces"), std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(path));
  std::remove(path.c_str());
}

TEST(Cli, StatsRendersTelemetry) {
  const std::string trace = temp_path("csdml_cli_stats_trace.json");
  const CliRun result =
      run({"stats", "--calls", "300", "--trace-out", trace});
  ASSERT_EQ(result.code, 0) << result.err;
  // The metrics tables carry the percentile columns and the kernel lanes.
  EXPECT_NE(result.out.find("p50"), std::string::npos);
  EXPECT_NE(result.out.find("p95"), std::string::npos);
  EXPECT_NE(result.out.find("p99"), std::string::npos);
  EXPECT_NE(result.out.find("engine.kernel.gates_us"), std::string::npos);
  EXPECT_NE(result.out.find("detector.classifications"), std::string::npos);
  // The chrome trace names all three pipeline kernels.
  ASSERT_TRUE(std::filesystem::exists(trace));
  std::ifstream in(trace);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("kernel_preprocess"), std::string::npos);
  EXPECT_NE(json.find("kernel_gates"), std::string::npos);
  EXPECT_NE(json.find("kernel_hidden_state"), std::string::npos);
  std::remove(trace.c_str());

  const CliRun json_mode = run({"stats", "--calls", "300", "--json"});
  ASSERT_EQ(json_mode.code, 0) << json_mode.err;
  EXPECT_EQ(json_mode.out.front(), '{');
  EXPECT_NE(json_mode.out.find("\"histograms\""), std::string::npos);

  EXPECT_EQ(run({"stats", "--calls", "10"}).code, 2);  // below minimum
  EXPECT_EQ(run({"stats", "--level", "quantum"}).code, 2);
}

TEST(Cli, StatsRendersRequestSpansAndHealth) {
  const CliRun result = run({"stats", "--calls", "300", "--health"});
  ASSERT_EQ(result.code, 0) << result.err;
  // The request-span attribution table sits next to the device trace.
  EXPECT_NE(result.out.find("request spans:"), std::string::npos);
  EXPECT_NE(result.out.find("detector.classify"), std::string::npos);
  EXPECT_NE(result.out.find("engine.infer"), std::string::npos);
  EXPECT_NE(result.out.find("health: ok"), std::string::npos);

  const CliRun json = run({"stats", "--calls", "300", "--json", "--health"});
  ASSERT_EQ(json.code, 0) << json.err;
  EXPECT_NE(json.out.find("\"health\""), std::string::npos);
  EXPECT_NE(json.out.find("\"verdict\":\"ok\""), std::string::npos);
}

TEST(Cli, StatsPrometheusExposition) {
  const CliRun result = run({"stats", "--calls", "300", "--prometheus"});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("# TYPE csdml_detector_classifications_total"),
            std::string::npos);
  EXPECT_NE(result.out.find("csdml_detector_inference_us_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_EQ(result.out.back(), '\n');
}

TEST(Cli, StatsTraceCarriesRequestSpans) {
  const std::string trace = temp_path("csdml_cli_span_trace.json");
  const CliRun result = run({"stats", "--calls", "300", "--fault-rate", "0.2",
                             "--seed", "7", "--trace-out", trace});
  ASSERT_EQ(result.code, 0) << result.err;
  std::ifstream in(trace);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  EXPECT_NE(json.find("detector.classify"), std::string::npos);
  EXPECT_NE(json.find("engine.infer"), std::string::npos);
  EXPECT_NE(json.find("trace_id"), std::string::npos);
  std::remove(trace.c_str());
}

TEST(Cli, UnwritableTraceOutFailsBeforeTheRun) {
  const CliRun stats = run({"stats", "--calls", "300", "--trace-out",
                            "/nonexistent-dir/trace.json"});
  EXPECT_EQ(stats.code, 1);
  EXPECT_NE(stats.err.find("trace"), std::string::npos);
  // The probe runs before the (expensive) sample campaign, so failure is
  // immediate: no metrics tables reach stdout.
  EXPECT_EQ(stats.out.find("request spans:"), std::string::npos);
}

TEST(Cli, WatchPrintsRoundDeltasAndHealthColumn) {
  // `top --boards 1` is the single-board console that replaced `watch`:
  // one live frame per round, a health column, and verdicts that grow
  // round over round.
  const CliRun result = run({"top", "--boards", "1", "--rounds", "2",
                             "--interval-calls", "150"});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("csdml top — 1 boards, 2 rounds x 150 calls"),
            std::string::npos) << result.out;
  EXPECT_NE(result.out.find("frame 1/2"), std::string::npos);
  EXPECT_NE(result.out.find("frame 2/2"), std::string::npos);
  EXPECT_NE(result.out.find("health"), std::string::npos);
  EXPECT_NE(result.out.find("ok"), std::string::npos);
  EXPECT_EQ(result.out.find("DOWN"), std::string::npos);

  EXPECT_EQ(run({"top", "--boards", "1", "--rounds", "0"}).code, 2);
  EXPECT_EQ(run({"top", "--boards", "1", "--interval-calls", "10"}).code, 2);
  EXPECT_EQ(run({"top", "--boards", "1", "--fault-rate", "1.5"}).code, 2);
}

TEST(Cli, StatsFaultRateValidation) {
  EXPECT_EQ(run({"stats", "--calls", "300", "--fault-rate", "1.0"}).code, 2);
  EXPECT_EQ(run({"stats", "--calls", "300", "--fault-rate", "-0.1"}).code, 2);
}

TEST(Cli, MissingFilesReturnOne) {
  EXPECT_EQ(run({"classify", "--weights", "/no/w.txt", "--dataset",
                 "/no/d.csv"}).code, 1);
  EXPECT_EQ(run({"train", "--dataset", "/no/d.csv", "--weights",
                 temp_path("w.txt")}).code, 1);
}

}  // namespace
}  // namespace csdml::host
