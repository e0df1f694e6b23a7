#include "common/log.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <string>

namespace csdml {
namespace {

/// Counts how often a log line formats it.
struct Counted {
  int* streamed;
};

std::ostream& operator<<(std::ostream& out, const Counted& value) {
  ++*value.streamed;
  return out << "counted";
}

/// Sets the threshold for one test and restores the previous one.
class ScopedLogLevel {
 public:
  explicit ScopedLogLevel(LogLevel level) : saved_(log_level()) {
    set_log_level(level);
  }
  ~ScopedLogLevel() { set_log_level(saved_); }

 private:
  LogLevel saved_;
};

TEST(Log, BelowLevelLineEvaluatesNoOperand) {
  const ScopedLogLevel level(LogLevel::Warn);
  int streamed = 0;
  int evaluated = 0;
  testing::internal::CaptureStderr();
  CSDML_LOG_DEBUG("test") << Counted{&streamed} << (++evaluated, "operand");
  CSDML_LOG_INFO("test") << Counted{&streamed} << kv("calls", ++evaluated);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  EXPECT_EQ(streamed, 0);
  EXPECT_EQ(evaluated, 0);
}

TEST(Log, EnabledLineStillPrints) {
  const ScopedLogLevel level(LogLevel::Warn);
  int streamed = 0;
  testing::internal::CaptureStderr();
  CSDML_LOG_WARN("test") << Counted{&streamed} << kv("pages", 4);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(streamed, 1);
  EXPECT_EQ(err, "[WARN] test: counted pages=4\n");
}

TEST(Log, UnbracedIfElseBindsAsWritten) {
  const ScopedLogLevel level(LogLevel::Off);
  bool else_taken = false;
  const bool log_it = false;
  if (log_it)
    CSDML_LOG_ERROR("test") << "never";
  else
    else_taken = true;
  EXPECT_TRUE(else_taken);
}

}  // namespace
}  // namespace csdml
