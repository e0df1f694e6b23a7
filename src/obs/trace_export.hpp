// Chrome-trace / Perfetto export of the board's request spans.
//
// The SpanTrace is the board's one span recorder: every device event
// (kernel launches, DMA transfers, NVMe compute, host fallback serves) is
// recorded there under the classification that caused it. This module
// renders that tree as Trace Event Format JSON, which chrome://tracing and
// ui.perfetto.dev open directly. SpanTrace::summary() is the terminal form.
#pragma once

#include <string>

#include "obs/span_trace.hpp"

namespace csdml::obs {

/// Renders every retained span as a complete ("ph":"X") event, ts/dur in
/// microseconds, nested on one "requests" track (pid 0, tid 0), each
/// carrying args.trace_id / args.span_id / args.parent_span plus every span
/// tag, so Perfetto shows one classification as a detector → engine →
/// kernel stack. Valid JSON even when no span is retained.
std::string to_chrome_trace_json(const SpanTrace& spans);

/// Writes the export to `path`; throws Error when the file cannot open.
void write_chrome_trace_file(const std::string& path, const SpanTrace& spans);

}  // namespace csdml::obs
