// Request-scoped causal tracing: the board's one span recorder.
//
// Every device event (kernel launches, DMA transfers, NVMe compute, host
// fallback serves) is recorded here, and only while a request is open.
// Aggregates such as "how long did kernel_gates run" come from summary();
// the tree answers "which classification paid for that retry storm".
// Every classification gets a TraceId at detector ingress, and each stage
// it flows through (engine, NVMe/SmartSSD transfers, XRT kernel launches)
// opens a span that records its parent, so exports show detector → engine
// → transfer → kernel as a true tree with per-stage latency attribution.
// Spans carry tags for retries, injected faults, fallback serves and
// degraded-mode transitions, which is exactly the evidence a latency-tail
// postmortem needs (RanStop: the tail, not the mean, bounds how much data
// ransomware encrypts before mitigation).
//
// Thread-safety: one recording thread per board (the serving thread).
// Timestamps are simulated device time, the quantity the paper measures.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"

namespace csdml::obs {

using TraceId = std::uint64_t;
using SpanId = std::uint64_t;

struct SpanTag {
  std::string key;
  std::string value;
};

struct SpanRecord {
  TraceId trace_id{0};
  SpanId id{0};
  SpanId parent{0};  ///< 0 = root span of its trace
  std::string name;
  TimePoint start;
  TimePoint end;
  std::vector<SpanTag> tags;

  Duration duration() const { return end - start; }
  /// Value of the named tag, nullptr when absent.
  const std::string* tag(const std::string& key) const;
};

/// Per-board span collector. Spans nest by call structure: begin_span makes
/// the new span a child of the innermost open one, end_span pops it. A
/// trace groups every span recorded between begin_trace and end_trace under
/// one TraceId. Disabled tracing turns every call into a cheap no-op so the
/// overhead bench can measure instrumentation cost.
class SpanTrace {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a new trace (request scope) and returns its id; 0 if disabled.
  TraceId begin_trace();
  /// Closes the current trace. Spans left open (exception unwinds) are
  /// closed zero-length at their start so the record stays well-formed.
  /// Retention trimming happens here, never mid-trace.
  void end_trace();
  bool in_trace() const { return current_trace_ != 0; }
  TraceId current_trace() const { return current_trace_; }

  /// Opens a span as a child of the innermost open span; 0 if disabled.
  SpanId begin_span(std::string name, TimePoint start);
  /// Closes `id` (and anything left open inside it) at `end`.
  void end_span(SpanId id, TimePoint end);
  /// Attaches a tag to the open span `id` (no-op when unknown/closed).
  void tag(SpanId id, std::string key, std::string value);
  /// Attaches a tag to the innermost open span.
  void tag_current(std::string key, std::string value);

  const std::vector<SpanRecord>& spans() const { return spans_; }
  std::size_t open_depth() const { return stack_.size(); }
  void clear();

  /// Spans belonging to one trace, in recording order.
  std::vector<const SpanRecord*> trace_spans(TraceId trace_id) const;
  /// Number of distinct traces recorded (and not yet trimmed).
  std::size_t trace_count() const;

  /// Per-stage latency attribution table: for every span name, count,
  /// total/mean µs and share of root-span time, plus tagged-event totals
  /// (retries, fallbacks, faults) — the terminal-friendly causal summary.
  std::string summary() const;

  /// Completed spans retained between traces. When the budget is exceeded
  /// at end_trace, the oldest half is shed in one batch (amortized-O(1)
  /// trimming). Keeps week-long campaigns bounded.
  void set_retention(std::size_t max_spans) { retention_ = max_spans; }
  std::size_t retention() const { return retention_; }

 private:
  SpanRecord* find_open(SpanId id);

  bool enabled_{true};
  TraceId current_trace_{0};
  TraceId next_trace_{1};
  SpanId next_span_{1};
  std::size_t retention_{1u << 17};
  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> stack_;  ///< indexes into spans_ of open spans
};

/// One-liner for instrumentation sites: records a closed span (child of the
/// innermost open span) iff a trace is active, so device events outside any
/// request (init-time staging, weight adopts) are not recorded at all. An
/// inverted span is a caller bug and throws whether or not it is recorded.
inline void record_span(SpanTrace& spans, std::string name, TimePoint start,
                        TimePoint end) {
  CSDML_REQUIRE(end >= start, "span ends before it starts");
  if (!spans.enabled() || !spans.in_trace()) return;
  const SpanId id = spans.begin_span(std::move(name), start);
  spans.end_span(id, end);
}

}  // namespace csdml::obs
