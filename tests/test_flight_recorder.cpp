// Black-box flight recorder: ring wraparound, field truncation, JSON
// post-mortems, and the dump-on-unhealthy-latch integration with the
// engine's degraded-mode machinery.
#include "obs/flight_recorder.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "baselines/host_baseline.hpp"
#include "common/rng.hpp"
#include "detect/detector.hpp"
#include "faults/fault_plan.hpp"
#include "json_lint.hpp"
#include "kernels/engine.hpp"
#include "temp_path.hpp"

namespace csdml::obs {
namespace {

using testing::temp_path;

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(FlightRecorder, WraparoundKeepsTheNewestEvents) {
  FlightRecorder recorder(16);
  EXPECT_EQ(recorder.capacity(), 16u);
  for (int i = 1; i <= 40; ++i) {
    recorder.record(FlightEventKind::Fault, "test", "evt",
                    TimePoint{} + Duration::microseconds(i), 0,
                    static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(recorder.recorded(), 40u);
  const std::vector<FlightEvent> events = recorder.snapshot();
  ASSERT_EQ(events.size(), 16u);
  // Oldest first; only the last capacity() events survive the wrap.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 25 + i);
    EXPECT_EQ(events[i].value, 25 + i);
  }
}

TEST(FlightRecorder, CapacityRoundsUpToAPowerOfTwoWithAFloor) {
  EXPECT_EQ(FlightRecorder(17).capacity(), 32u);
  // Tiny requests clamp to the floor: a ring smaller than one fault burst
  // would record nothing useful.
  EXPECT_EQ(FlightRecorder(2).capacity(), 16u);
}

TEST(FlightRecorder, LongFieldsTruncateInsteadOfAllocating) {
  FlightRecorder recorder(4);
  recorder.record(FlightEventKind::Retry,
                  "component-name-far-beyond-sixteen-chars",
                  "a detail string that is certainly longer than the "
                  "forty-eight characters the slot reserves for it",
                  TimePoint{});
  const std::vector<FlightEvent> events = recorder.snapshot();
  ASSERT_EQ(events.size(), 1u);
  const std::string component = events[0].component;
  const std::string detail = events[0].detail;
  EXPECT_LT(component.size(), sizeof(events[0].component));
  EXPECT_LT(detail.size(), sizeof(events[0].detail));
  EXPECT_EQ(component.substr(0, 9), "component");
  EXPECT_EQ(detail.substr(0, 8), "a detail");
}

TEST(FlightRecorder, JsonPostMortemIsValidAndNamesKinds) {
  FlightRecorder recorder(16);
  recorder.record(FlightEventKind::Fault, "xrt", "launch", TimePoint{}, 3, 1);
  recorder.record(FlightEventKind::Fallback, "engine", "host", TimePoint{}, 3);
  recorder.record(FlightEventKind::UnhealthyLatch, "engine", "latched",
                  TimePoint{}, 3);
  const std::string json = recorder.to_json("unit_test");
  EXPECT_TRUE(testing::JsonLint::valid(json)) << json;
  EXPECT_NE(json.find("\"flight_recorder\""), std::string::npos);
  EXPECT_NE(json.find("\"unit_test\""), std::string::npos);
  EXPECT_NE(json.find("\"fault\""), std::string::npos);
  EXPECT_NE(json.find("\"fallback\""), std::string::npos);
  EXPECT_NE(json.find("\"unhealthy_latch\""), std::string::npos);
  EXPECT_NE(json.find("\"trace_id\":3"), std::string::npos);
}

TEST(FlightRecorder, AutoDumpIsGatedOnTheEnvVar) {
  FlightRecorder recorder(8);
  recorder.record(FlightEventKind::Alert, "detector", "fired", TimePoint{});

  ::unsetenv("CSDML_FLIGHT_DUMP");
  EXPECT_FALSE(recorder.auto_dump("no_env"));

  const std::string path = temp_path("csdml_flight_auto.json");
  ::setenv("CSDML_FLIGHT_DUMP", path.c_str(), 1);
  EXPECT_TRUE(recorder.auto_dump("env_set"));
  ::unsetenv("CSDML_FLIGHT_DUMP");

  const std::string json = slurp(path);
  EXPECT_TRUE(testing::JsonLint::valid(json)) << json;
  EXPECT_NE(json.find("\"env_set\""), std::string::npos);
  // The dump records itself, so the post-mortem names its own trigger.
  EXPECT_NE(json.find("\"dump\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(FlightRecorder, UnwritableDumpPathFailsSoftly) {
  FlightRecorder recorder(8);
  ::setenv("CSDML_FLIGHT_DUMP", "/nonexistent-dir/flight.json", 1);
  EXPECT_FALSE(recorder.auto_dump("nowhere"));
  ::unsetenv("CSDML_FLIGHT_DUMP");
}

TEST(FlightRecorder, UnhealthyLatchDumpsThePostMortem) {
  const std::string path = temp_path("csdml_flight_latch.json");
  std::remove(path.c_str());
  ::setenv("CSDML_FLIGHT_DUMP", path.c_str(), 1);

  nn::LstmConfig model_config{.vocab_size = 48, .embed_dim = 4, .hidden_dim = 8};
  Rng rng(33);
  const nn::LstmParams params = nn::LstmParams::glorot(model_config, rng);
  csd::SmartSsd board{csd::SmartSsdConfig{}};
  xrt::Device device{board};
  const baselines::HostBaseline host{"host", model_config, params,
                                     baselines::HostLatencyConfig{}};
  kernels::CsdLstmEngine engine(
      device, model_config, params,
      kernels::EngineConfig{.batch_threads = 1,
                            .retry = {.max_attempts = 1,
                                      .recovery_probe_interval = 0}});
  engine.set_fallback(&host);
  faults::FaultConfig config;
  config.xrt_launch_failure_probability = 1.0;
  faults::FaultPlan plan(config);
  board.set_fault_plan(&plan);

  nn::Sequence seq;
  for (int i = 0; i < 24; ++i) seq.push_back(static_cast<nn::TokenId>(i % 48));
  EXPECT_TRUE(engine.infer(seq).degraded);
  ::unsetenv("CSDML_FLIGHT_DUMP");

  ASSERT_TRUE(std::filesystem::exists(path));
  const std::string json = slurp(path);
  EXPECT_TRUE(testing::JsonLint::valid(json)) << json;
  EXPECT_NE(json.find("\"unhealthy_latch\""), std::string::npos);
  EXPECT_NE(json.find("\"fault\""), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace csdml::obs
