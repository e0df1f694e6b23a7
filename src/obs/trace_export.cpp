#include "obs/trace_export.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/error.hpp"

namespace csdml::obs {

namespace {

void write_json_string(std::ostream& out, const std::string& value) {
  out << '"';
  for (const char c : value) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default: out << c;
    }
  }
  out << '"';
}

/// Microseconds with picosecond precision, fixed notation (the Trace Event
/// Format wants ts/dur in microseconds).
std::string as_us(std::int64_t picos) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%.6f",
                static_cast<double>(picos) / 1e6);
  return buffer;
}

}  // namespace

std::string to_chrome_trace_json(const SpanTrace& spans) {
  // All spans sit on tid 0 so the viewer stacks them by containment (the
  // simulated clock is sequential, so containment is exactly the
  // parent/child relation).
  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":["
      << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
         "\"args\":{\"name\":\"requests\"}},"
      << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
         "\"args\":{\"name\":\"classification spans\"}}";
  for (const SpanRecord& span : spans.spans()) {
    out << ",{\"name\":";
    write_json_string(out, span.name);
    out << ",\"cat\":\"request\",\"ph\":\"X\",\"ts\":"
        << as_us(span.start.picos) << ",\"dur\":"
        << as_us(span.duration().picos)
        << ",\"pid\":0,\"tid\":0,\"args\":{\"trace_id\":" << span.trace_id
        << ",\"span_id\":" << span.id << ",\"parent_span\":" << span.parent;
    for (const SpanTag& tag : span.tags) {
      out << ',';
      write_json_string(out, tag.key);
      out << ':';
      write_json_string(out, tag.value);
    }
    out << "}}";
  }
  out << "]}";
  return out.str();
}

void write_chrome_trace_file(const std::string& path, const SpanTrace& spans) {
  std::ofstream out(path);
  if (!out) throw Error("cannot open trace output file: " + path);
  out << to_chrome_trace_json(spans) << '\n';
}

}  // namespace csdml::obs
