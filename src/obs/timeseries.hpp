// Fleet telemetry time-series store — the time dimension the point-in-time
// observability stack (metrics snapshots, spans, flight recorder) lacks.
//
// A deployed CSD detector fails slowly as often as it fails loudly: a p99
// creeping up over minutes, a board quietly shedding more each sweep, a
// verdict-score distribution drifting off its calibration. Catching those
// needs *history*, kept on-device at bounded cost:
//
//   collector thread ──every interval──> registry().snapshot()
//        │                                    │
//        │   SnapshotSampler (counter deltas, rates, histogram tails)
//        ▼                                    ▼
//   TimeSeriesStore: one TsSeries per derived metric
//        raw tier   ── every `downsample_factor` samples promote ──▶
//        tier 1     ── every `downsample_factor` buckets promote ──▶
//        tier 2 ...
//
// Each tier is a fixed-capacity ring of buckets carrying min/max/sum/count,
// so promotion loses resolution but never mass: the sum and count of a
// tier-1 bucket equal the sums and counts of the raw samples it absorbed,
// and the extremes survive verbatim (the property test_timeseries pins).
// Timestamps are injected, never read from a global clock, so every test
// and the alert-latency bench run on a deterministic timeline.
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
  /// Buckets retained per tier (every tier uses the same ring size).
  std::size_t capacity{240};
  /// Buckets of tier k merged into one bucket of tier k+1.
  std::size_t downsample_factor{8};
  /// Total tiers including raw (1 = raw only, no downsampling).
  std::size_t tiers{3};
  /// Collector sampling period (wall time, microseconds).
  std::uint64_t interval_us{100'000};

  /// Environment overrides with hardened parsing (invalid values warn and
  /// fall back; see common/env.hpp): CSDML_TSDB_CAPACITY [8, 1048576],
  /// CSDML_TSDB_FACTOR [2, 64], CSDML_TSDB_TIERS [1, 6],
  /// CSDML_TSDB_INTERVAL_MS [1, 60000].
  static TsdbConfig from_env();
};

/// One aggregation bucket. A raw sample is a bucket with count == 1.
struct TsBucket {
  std::int64_t start_us{0};  ///< timestamp of the first absorbed sample
  std::int64_t end_us{0};    ///< timestamp of the last absorbed sample
  double min{0.0};
  double max{0.0};
  double sum{0.0};
  std::uint64_t count{0};

  double mean() const { return count ? sum / static_cast<double>(count) : 0.0; }
  /// Folds `other` in: extremes, mass and the covered time range.
  void absorb(const TsBucket& other);
};

/// Multi-resolution ring for one metric. Not thread-safe on its own; the
/// store serialises access.
class TsSeries {
 public:
  explicit TsSeries(const TsdbConfig& config);

  /// Appends one raw sample; cascades tier promotions when a tier's
  /// accumulation window fills.
  void append(std::int64_t t_us, double value);

  std::size_t tier_count() const { return tiers_.size(); }
  /// Retained buckets of one tier, oldest first (partial accumulation
  /// windows are not included — they surface once promoted).
  std::vector<TsBucket> buckets(std::size_t tier) const;
  /// One bucket folding everything a tier retains.
  TsBucket aggregate(std::size_t tier) const;

  std::uint64_t samples() const { return samples_; }
  std::uint64_t promotions() const { return promotions_; }
  double last() const { return last_; }
  std::int64_t last_t_us() const { return last_t_us_; }

 private:
  void push(std::size_t tier, const TsBucket& bucket);

  struct Tier {
    std::vector<TsBucket> ring;
    std::uint64_t appended{0};  ///< buckets ever closed into this tier
    TsBucket pending{};         ///< accumulating toward the next tier
    std::size_t pending_fill{0};
  };

  std::size_t factor_;
  std::vector<Tier> tiers_;
  std::uint64_t samples_{0};
  std::uint64_t promotions_{0};
  double last_{0.0};
  std::int64_t last_t_us_{0};
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
  /// Copies of one series' retained buckets (empty vector for unknown
  /// names or tiers — readers render what exists, they don't throw).
  std::vector<TsBucket> buckets(const std::string& series,
                                std::size_t tier = 0) const;
  /// Most recent raw value (0 when the series is unknown).
  double last(const std::string& series) const;
  std::uint64_t samples(const std::string& series) const;

  struct Totals {
    std::size_t series{0};
    std::uint64_t samples{0};
    std::uint64_t promotions{0};
  };
  Totals totals() const;
  /// Publishes tsdb.series / tsdb.promotions gauges from totals().
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
    Gauge,         ///< gauge value verbatim
    HistP50,
    HistP95,
    HistP99,
    HistCount,
  };
  std::string series;  ///< output series name in the store
  Kind kind{Kind::CounterDelta};
  std::string metric;  ///< source counter/gauge/histogram in the snapshot
};

/// Turns consecutive MetricsSnapshots into time-series points: counter
/// deltas and rates between ticks, gauge levels, histogram tail
/// percentiles. Owns the previous-tick state, so one sampler per timeline.
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
