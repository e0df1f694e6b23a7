#include "obs/trace_export.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "json_lint.hpp"
#include "temp_path.hpp"

namespace csdml::obs {
namespace {

std::size_t count_occurrences(const std::string& haystack,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(TraceExport, EmptyTraceIsValidJson) {
  const SpanTrace spans;
  const std::string json = to_chrome_trace_json(spans);
  EXPECT_TRUE(testing::JsonLint::valid(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"X\""), 0u);
}

TEST(TraceExport, RoundTripsSpansAsCompleteEvents) {
  SpanTrace spans;
  const TraceId tid = spans.begin_trace();
  const SpanId root = spans.begin_span("lstm_sequence", TimePoint{0});
  record_span(spans, "kernel_preprocess", TimePoint{0}, TimePoint{2'000'000});
  record_span(spans, "kernel_gates", TimePoint{2'000'000},
              TimePoint{4'500'000});
  spans.end_span(root, TimePoint{6'000'000});
  spans.end_trace();

  const std::string json = to_chrome_trace_json(spans);
  ASSERT_TRUE(testing::JsonLint::valid(json)) << json;
  // One complete event per retained span, each naming its trace.
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"X\""), spans.spans().size());
  EXPECT_EQ(count_occurrences(json, "\"trace_id\":" + std::to_string(tid)),
            spans.spans().size());
  // ts/dur are microseconds: the 2,000,000 ps preprocess span is 2 µs and
  // the gates span starts at 2 µs.
  EXPECT_NE(json.find("\"ts\":0.000000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2.000000"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":2.000000,\"dur\":2.500000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":6.000000"), std::string::npos);
  EXPECT_NE(json.find("\"kernel_preprocess\""), std::string::npos);
  EXPECT_NE(json.find("\"kernel_gates\""), std::string::npos);
}

TEST(TraceExport, EscapesSpanNames) {
  SpanTrace spans;
  spans.begin_trace();
  record_span(spans, "weird\"name\\here", TimePoint{0}, TimePoint{1});
  spans.end_trace();
  const std::string json = to_chrome_trace_json(spans);
  EXPECT_TRUE(testing::JsonLint::valid(json)) << json;
  EXPECT_NE(json.find("weird\\\"name\\\\here"), std::string::npos) << json;
}

TEST(TraceExport, WritesFile) {
  SpanTrace spans;
  spans.begin_trace();
  record_span(spans, "kernel_hidden_state", TimePoint{0}, TimePoint{1'000});
  spans.end_trace();
  const std::string path = testing::temp_path("csdml_trace_export.json");
  write_chrome_trace_file(path, spans);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_TRUE(testing::JsonLint::valid(buffer.str()));
  EXPECT_NE(buffer.str().find("kernel_hidden_state"), std::string::npos);
  std::remove(path.c_str());

  EXPECT_THROW(write_chrome_trace_file("/no/such/dir/trace.json", spans),
               Error);
}

}  // namespace
}  // namespace csdml::obs
