// Tiny leveled logger. Off-by-default below Warn so benches stay quiet;
// examples flip the level to Info to narrate what the CSD is doing. The
// CSDML_LOG_LEVEL environment variable (trace|debug|info|warn|error|off)
// sets the startup threshold, so examples/CI can turn on Debug without
// code changes.
#pragma once

#include <sstream>
#include <string>
#include <string_view>

namespace csdml {

enum class LogLevel { Trace = 0, Debug = 1, Info = 2, Warn = 3, Error = 4, Off = 5 };

/// Global threshold; messages below it are discarded.
void set_log_level(LogLevel level);
LogLevel log_level();

/// Parses a CSDML_LOG_LEVEL-style name (case-insensitive); `fallback` on
/// anything unrecognised.
LogLevel parse_log_level(std::string_view name, LogLevel fallback);

/// Structured key=value suffix for log lines:
///   CSDML_LOG_INFO("csd") << "flash read" << kv("pages", pages);
/// renders as `flash read pages=4`.
template <typename T>
std::string kv(std::string_view key, const T& value) {
  std::ostringstream out;
  out << ' ' << key << '=' << value;
  return out.str();
}

/// Emits one formatted line to stderr (thread-safe at line granularity).
void log_message(LogLevel level, const std::string& component,
                 const std::string& message);

namespace detail {
class LogLine {
 public:
  LogLine(LogLevel level, std::string component)
      : level_(level), component_(std::move(component)) {}
  ~LogLine();
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::string component_;
  std::ostringstream stream_;
};
}  // namespace detail

/// Stream-style helpers: CSDML_LOG_INFO("csd") << "flash read " << pages;
/// The level is tested first, so a line below the threshold builds no
/// LogLine and evaluates none of its operands. The empty-if/else form keeps
/// an enclosing unbraced if/else binding as written.
#define CSDML_LOG_AT(level, component)          \
  if ((level) < ::csdml::log_level()) {         \
  } else                                        \
    ::csdml::detail::LogLine(level, component)
#define CSDML_LOG_TRACE(component) CSDML_LOG_AT(::csdml::LogLevel::Trace, component)
#define CSDML_LOG_DEBUG(component) CSDML_LOG_AT(::csdml::LogLevel::Debug, component)
#define CSDML_LOG_INFO(component) CSDML_LOG_AT(::csdml::LogLevel::Info, component)
#define CSDML_LOG_WARN(component) CSDML_LOG_AT(::csdml::LogLevel::Warn, component)
#define CSDML_LOG_ERROR(component) CSDML_LOG_AT(::csdml::LogLevel::Error, component)

}  // namespace csdml
