// Fleet telemetry time-series store — the time dimension the point-in-time
// observability stack (metrics snapshots, spans, flight recorder) lacks.
//
// A deployed CSD detector fails slowly as often as it fails loudly: a p99
// creeping up over minutes, a board quietly shedding more each sweep.
// Catching those needs *history*, kept on-device at bounded cost:
//
//   collector thread ──every interval──> registry().snapshot()
//        │                                    │
//        │   SnapshotSampler (counter deltas, rates, histogram tails)
//        ▼                                    ▼
//   TimeSeriesStore: one TsSeries per derived metric, each a
//   fixed-capacity ring of raw (t_us, value) points
//
// Retention is capacity x interval: the default 240 points at 100 ms
// cover the last ~24 s, which is all the alert rules and `csdml top`
// read. Timestamps are injected, never read from a global clock, so every
// test and the alert-latency bench run on a deterministic timeline.
//
// The collector thread is owned by whoever operates the fleet (BoardFleet
// by default); its per-tick cost is one registry snapshot plus a handful
// of ring appends — bench_timeseries gates the duty cycle at <1% of the
// serving hot path.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace csdml::obs {

struct TsdbConfig {
  /// Points retained per series.
  std::size_t capacity{240};
  /// Collector sampling period (wall time, microseconds).
  std::uint64_t interval_us{100'000};
};

/// One raw sample.
struct TsPoint {
  std::int64_t t_us{0};
  double value{0.0};
};

/// Fixed-capacity ring of raw points for one metric; the newest
/// `capacity` survive. Not thread-safe on its own; the store serialises
/// access.
class TsSeries {
 public:
  explicit TsSeries(std::size_t capacity);

  void append(std::int64_t t_us, double value);

  /// Retained points, oldest first.
  std::vector<TsPoint> points() const;
  std::uint64_t samples() const { return samples_; }
  /// Most recent value (0 before the first append).
  double last() const;

 private:
  std::vector<TsPoint> ring_;
  std::uint64_t samples_{0};  ///< points ever appended
};

/// Thread-safe name-keyed series. Creation is implicit on first record,
/// mirroring MetricsRegistry. Feeds `tsdb.*` registry metrics so the store
/// itself is observable (csdml_tsdb_* in the Prometheus exposition).
class TimeSeriesStore {
 public:
  explicit TimeSeriesStore(TsdbConfig config = {});

  void record(const std::string& series, std::int64_t t_us, double value);

  std::vector<std::string> names() const;
  bool has(const std::string& series) const;
  /// Copies of one series' retained points, oldest first (empty for
  /// unknown names — readers render what exists, they don't throw).
  std::vector<TsPoint> points(const std::string& series) const;
  /// Most recent value (0 when the series is unknown).
  double last(const std::string& series) const;
  std::uint64_t samples(const std::string& series) const;

  struct Totals {
    std::size_t series{0};
    std::uint64_t samples{0};
  };
  Totals totals() const;
  /// Publishes the tsdb.series gauge from totals().
  void publish_gauges() const;

  const TsdbConfig& config() const { return config_; }

 private:
  TsdbConfig config_;
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<TsSeries>> series_;
};

/// One derived series a SnapshotSampler computes per tick.
struct SampleSpec {
  enum class Kind {
    CounterDelta,  ///< counter increase since the previous tick
    CounterRate,   ///< increase per second of timeline (0 on first tick)
    HistP95,
    HistP99,
  };
  std::string series;  ///< output series name in the store
  Kind kind{Kind::CounterDelta};
  std::string metric;  ///< source counter or histogram in the snapshot
};

/// Turns consecutive MetricsSnapshots into time-series points: counter
/// deltas and rates between ticks and histogram tail percentiles. Owns the previous-tick state, so one sampler per timeline.
/// Callers (the fleet collector behind `csdml top`, `csdml stats`) share
/// it instead of hand-rolling snapshot-delta loops.
class SnapshotSampler {
 public:
  explicit SnapshotSampler(std::vector<SampleSpec> specs);

  /// Computes every spec against `snapshot` at time `t_us`, records the
  /// values into `store` (when non-null) and returns them keyed by series
  /// name. Ticks must carry non-decreasing timestamps.
  std::map<std::string, double> sample(std::int64_t t_us,
                                       const MetricsSnapshot& snapshot,
                                       TimeSeriesStore* store);

  const std::vector<SampleSpec>& specs() const { return specs_; }

 private:
  std::vector<SampleSpec> specs_;
  std::map<std::string, std::uint64_t> previous_counters_;
  std::int64_t previous_t_us_{0};
  bool first_{true};
};

/// The per-board series a fleet collector derives from one serving
/// pipeline's `<prefix>.*` metrics: `<prefix>.verdicts.delta`,
/// `<prefix>.throughput` (verdicts/s), `<prefix>.shed.delta`,
/// `<prefix>.deferred.delta`, `<prefix>.p95_us`, `<prefix>.p99_us`.
std::vector<SampleSpec> board_sample_specs(const std::string& prefix);

class AlertEngine;  // obs/anomaly.hpp

struct CollectorConfig {
  TsdbConfig tsdb{};
  /// Timeline source, microseconds. Defaults to steady wall clock; tests
  /// and benches inject a deterministic one.
  std::function<std::int64_t()> clock{};
  /// Start the background sampling thread. When false the owner drives
  /// tick() explicitly (deterministic mode).
  bool start_thread{true};
};

/// The single low-overhead collector thread: every `interval_us` it takes
/// one registry snapshot, runs the sampler, lets the alert engine
/// evaluate, and publishes the tsdb gauges. tick() is public so owners can
/// force a deterministic sample (tests, `csdml top` frames).
class TelemetryCollector {
 public:
  /// `alerts` may be null (no alerting) and is not owned; it must outlive
  /// the collector.
  TelemetryCollector(CollectorConfig config, std::vector<SampleSpec> specs,
                     AlertEngine* alerts = nullptr);
  ~TelemetryCollector();  ///< stop()

  TelemetryCollector(const TelemetryCollector&) = delete;
  TelemetryCollector& operator=(const TelemetryCollector&) = delete;

  /// One sample now, from any thread (serialised internally).
  void tick();

  void stop();  ///< joins the thread; idempotent

  TimeSeriesStore& store() { return store_; }
  const TimeSeriesStore& store() const { return store_; }
  std::uint64_t ticks() const { return ticks_.load(std::memory_order_relaxed); }

 private:
  void run();

  CollectorConfig config_;
  TimeSeriesStore store_;
  std::mutex tick_mutex_;
  SnapshotSampler sampler_;
  AlertEngine* alerts_;
  std::atomic<std::uint64_t> ticks_{0};
  std::atomic<bool> stopping_{false};
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  std::thread thread_;  ///< last member: started once everything else exists
};

}  // namespace csdml::obs
