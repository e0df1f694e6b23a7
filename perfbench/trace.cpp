#include "trace.hpp"

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <utility>

namespace perfbench {

namespace {

struct FileCloser {
  void operator()(std::FILE* file) const { std::fclose(file); }
};

}  // namespace

SpanLog::SpanLog(std::vector<std::string> track_names)
    : names_(std::move(track_names)), tracks_(names_.size()) {
  for (std::vector<Span>& track : tracks_) track.reserve(1 << 16);
}

std::size_t SpanLog::spans() const {
  std::size_t total = 0;
  for (const std::vector<Span>& track : tracks_) total += track.size();
  return total;
}

void SpanLog::write_chrome_trace(const std::string& path,
                                 const std::vector<RequestSpan>& requests) const {
  std::unique_ptr<std::FILE, FileCloser> file(std::fopen(path.c_str(), "w"));
  if (!file) throw std::runtime_error("cannot write trace file " + path);
  std::FILE* out = file.get();
  // Timestamps are microseconds with nanosecond decimals, as the Trace
  // Event Format expects.
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", out);
  std::fputs("{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
             "\"args\":{\"name\":\"perfbench\"}}",
             out);
  for (std::size_t t = 0; t < tracks_.size(); ++t) {
    std::fprintf(out,
                 ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":%zu,\"name\":\"thread_name\","
                 "\"args\":{\"name\":\"%s\"}}",
                 t + 1, names_[t].c_str());
    for (const Span& span : tracks_[t]) {
      std::fprintf(out,
                   ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%zu,\"name\":\"%s\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":\"%016" PRIx64 "\"}}",
                   t + 1, span.name, static_cast<double>(span.start_ns) / 1e3,
                   static_cast<double>(span.end_ns - span.start_ns) / 1e3, span.id);
    }
  }
  for (const RequestSpan& request : requests) {
    std::fprintf(out,
                 ",\n{\"ph\":\"b\",\"pid\":1,\"tid\":0,\"cat\":\"request\","
                 "\"name\":\"verdict\",\"id\":\"0x%016" PRIx64 "\",\"ts\":%.3f}"
                 ",\n{\"ph\":\"e\",\"pid\":1,\"tid\":0,\"cat\":\"request\","
                 "\"name\":\"verdict\",\"id\":\"0x%016" PRIx64 "\",\"ts\":%.3f}",
                 request.id, static_cast<double>(request.scheduled_ns) / 1e3,
                 request.id, static_cast<double>(request.verdict_ns) / 1e3);
  }
  std::fputs("\n]}\n", out);
  if (std::fflush(out) != 0 || std::ferror(out)) {
    throw std::runtime_error("failed writing trace file " + path);
  }
}

}  // namespace perfbench
