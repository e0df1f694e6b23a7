#include "obs/health.hpp"

#include <algorithm>
#include <sstream>

namespace csdml::obs {

namespace {

std::uint64_t counter(const MetricsSnapshot& snapshot,
                      const std::string& name) {
  for (const auto& [key, value] : snapshot.counters) {
    if (key == name) return value;
  }
  return 0;
}

const HistogramSnapshot* histogram(const MetricsSnapshot& snapshot,
                                   const std::string& name) {
  for (const HistogramSnapshot& h : snapshot.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

/// Fraction of observations <= `limit`, interpolating inside the bucket
/// that straddles it (the same estimate percentile() inverts).
double fraction_within(const HistogramSnapshot& h, double limit) {
  if (h.count == 0) return 1.0;
  if (limit >= h.max) return 1.0;
  if (limit < h.min) return 0.0;
  std::uint64_t below = 0;
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    const double lower = i == 0 ? h.min : h.bounds[i - 1];
    const double upper = i < h.bounds.size() ? h.bounds[i] : h.max;
    if (upper <= limit) {
      below += h.buckets[i];
      continue;
    }
    if (lower < limit && upper > lower) {
      const double portion = (limit - lower) / (upper - lower);
      below += static_cast<std::uint64_t>(
          static_cast<double>(h.buckets[i]) * std::clamp(portion, 0.0, 1.0));
    }
    break;
  }
  return static_cast<double>(below) / static_cast<double>(h.count);
}

void json_string(std::ostream& out, const std::string& value) {
  out << '"';
  for (const char c : value) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      default: out << c;
    }
  }
  out << '"';
}

}  // namespace

const char* health_verdict_name(HealthVerdict verdict) {
  switch (verdict) {
    case HealthVerdict::Ok: return "ok";
    case HealthVerdict::Degraded: return "degraded";
    case HealthVerdict::Unhealthy: return "unhealthy";
  }
  return "unknown";
}

HealthReport evaluate_health(const MetricsSnapshot& snapshot, bool csd_healthy,
                             const SloConfig& config) {
  HealthReport report;
  report.csd_healthy = csd_healthy;
  report.classifications = counter(snapshot, "detector.classifications");
  report.deferred = counter(snapshot, "detector.degraded_classifications");
  report.fallback_serves = counter(snapshot, "engine.fallback_inferences");
  report.unhealthy_latches = counter(snapshot, "engine.marked_unhealthy");
  report.recoveries = counter(snapshot, "engine.recoveries");

  if (const HistogramSnapshot* h =
          histogram(snapshot, config.latency_histogram)) {
    report.p99_latency_us = h->percentile(0.99);
    if (h->count >= config.min_samples) {
      report.within_slo = fraction_within(*h, config.latency_slo_us);
      const double budget = std::max(1.0 - config.target, 1e-9);
      report.slo_burn = (1.0 - report.within_slo) / budget;
    }
  }

  const double degraded_total =
      static_cast<double>(report.deferred + report.fallback_serves);
  const double served = static_cast<double>(report.classifications) +
                        static_cast<double>(report.deferred);
  const double degraded_ratio = served > 0.0 ? degraded_total / served : 0.0;

  if (!csd_healthy) {
    report.reasons.push_back("csd_unhealthy_latched");
  }
  if (report.slo_burn >= config.unhealthy_burn) {
    report.reasons.push_back("latency_slo_burn_critical");
  } else if (report.slo_burn >= 1.0) {
    report.reasons.push_back("latency_slo_burning");
  }
  if (degraded_ratio > config.degraded_serve_budget) {
    report.reasons.push_back("degraded_serve_budget_exceeded");
  }

  if (!csd_healthy || report.slo_burn >= config.unhealthy_burn) {
    report.verdict = HealthVerdict::Unhealthy;
  } else if (!report.reasons.empty()) {
    report.verdict = HealthVerdict::Degraded;
  } else {
    report.verdict = HealthVerdict::Ok;
  }
  return report;
}

std::string HealthReport::to_text() const {
  std::ostringstream out;
  out << "health: " << health_verdict_name(verdict)
      << "  (csd " << (csd_healthy ? "healthy" : "UNHEALTHY") << ")\n";
  out << "  slo burn " << slo_burn << "  within-slo " << within_slo
      << "  p99 " << p99_latency_us << " us\n";
  out << "  classifications " << classifications << "  deferred " << deferred
      << "  fallback " << fallback_serves << "  latches " << unhealthy_latches
      << "  recoveries " << recoveries << "\n";
  if (!reasons.empty()) {
    out << "  reasons:";
    for (const std::string& reason : reasons) out << ' ' << reason;
    out << "\n";
  }
  return out.str();
}

std::string HealthReport::to_json() const {
  std::ostringstream out;
  out.precision(12);
  out << "{\"health\":{\"verdict\":";
  json_string(out, health_verdict_name(verdict));
  out << ",\"csd_healthy\":" << (csd_healthy ? "true" : "false")
      << ",\"slo_burn\":" << slo_burn << ",\"within_slo\":" << within_slo
      << ",\"p99_latency_us\":" << p99_latency_us
      << ",\"classifications\":" << classifications
      << ",\"deferred\":" << deferred
      << ",\"fallback_serves\":" << fallback_serves
      << ",\"unhealthy_latches\":" << unhealthy_latches
      << ",\"recoveries\":" << recoveries << ",\"reasons\":[";
  for (std::size_t i = 0; i < reasons.size(); ++i) {
    if (i) out << ',';
    json_string(out, reasons[i]);
  }
  out << "]}}";
  return out.str();
}

}  // namespace csdml::obs
