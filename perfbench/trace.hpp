// In-memory span log for the traced benchmark run, written out at the end
// as Chrome-trace JSON (chrome://tracing, ui.perfetto.dev).
//
// Spans are recorded by the benchmark around its own calls into the
// program's layers. Each recording thread owns one track, so recording
// takes no lock; the log is read only after every recording thread has
// been joined or flushed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Request id shared by every span of one classification request.
inline std::uint64_t request_id(std::uint32_t pid, std::uint32_t call) {
  return (static_cast<std::uint64_t>(pid) << 32) | call;
}

struct Span {
  const char* name{""};  ///< string literal naming the layer call
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
  std::uint64_t id{0};  ///< request id, 0 when the call serves no request
};

/// A request's whole life, from scheduled send to verdict at the sink.
struct RequestSpan {
  std::uint64_t id{0};
  std::int64_t scheduled_ns{0};
  std::int64_t verdict_ns{0};
};

class SpanLog {
 public:
  explicit SpanLog(std::vector<std::string> track_names);

  /// Appends one span to `track`; call only from that track's thread.
  void record(std::size_t track, const char* name, std::int64_t start_ns,
              std::int64_t end_ns, std::uint64_t id = 0) {
    tracks_[track].push_back(Span{name, start_ns, end_ns, id});
  }

  std::size_t spans() const;

  /// Writes every track plus one async span per request; throws
  /// std::runtime_error when the file cannot be written.
  void write_chrome_trace(const std::string& path,
                          const std::vector<RequestSpan>& requests) const;

 private:
  std::vector<std::string> names_;
  std::vector<std::vector<Span>> tracks_;
};

}  // namespace perfbench
