#include "obs/timeseries.hpp"

#include <algorithm>
#include <chrono>

#include "obs/anomaly.hpp"

namespace csdml::obs {

TsSeries::TsSeries(std::size_t capacity)
    : ring_(std::max<std::size_t>(capacity, 1)) {}

void TsSeries::append(std::int64_t t_us, double value) {
  ring_[samples_ % ring_.size()] = TsPoint{t_us, value};
  ++samples_;
}

std::vector<TsPoint> TsSeries::points() const {
  const std::uint64_t retained =
      std::min<std::uint64_t>(samples_, ring_.size());
  std::vector<TsPoint> out;
  out.reserve(retained);
  for (std::uint64_t i = samples_ - retained; i < samples_; ++i) {
    out.push_back(ring_[i % ring_.size()]);
  }
  return out;
}

double TsSeries::last() const {
  return samples_ == 0 ? 0.0 : ring_[(samples_ - 1) % ring_.size()].value;
}

TimeSeriesStore::TimeSeriesStore(TsdbConfig config)
    : config_(std::move(config)) {}

void TimeSeriesStore::record(const std::string& series, std::int64_t t_us,
                             double value) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = series_.find(series);
    if (it == series_.end()) {
      it = series_
               .emplace(series, std::make_unique<TsSeries>(config_.capacity))
               .first;
    }
    it->second->append(t_us, value);
  }
  registry().add_counter("tsdb.samples");
}

std::vector<std::string> TimeSeriesStore::names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(series_.size());
  for (const auto& [name, _] : series_) out.push_back(name);
  return out;
}

bool TimeSeriesStore::has(const std::string& series) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return series_.count(series) != 0;
}

std::vector<TsPoint> TimeSeriesStore::points(const std::string& series) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = series_.find(series);
  if (it == series_.end()) return {};
  return it->second->points();
}

double TimeSeriesStore::last(const std::string& series) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = series_.find(series);
  return it == series_.end() ? 0.0 : it->second->last();
}

std::uint64_t TimeSeriesStore::samples(const std::string& series) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = series_.find(series);
  return it == series_.end() ? 0 : it->second->samples();
}

TimeSeriesStore::Totals TimeSeriesStore::totals() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Totals totals;
  totals.series = series_.size();
  for (const auto& [_, series] : series_) {
    totals.samples += series->samples();
  }
  return totals;
}

void TimeSeriesStore::publish_gauges() const {
  const Totals totals = this->totals();
  registry().set_gauge("tsdb.series", static_cast<double>(totals.series));
}

SnapshotSampler::SnapshotSampler(std::vector<SampleSpec> specs)
    : specs_(std::move(specs)) {}

namespace {

double histogram_percentile(const MetricsSnapshot& snapshot,
                            const std::string& name, double p) {
  for (const HistogramSnapshot& hist : snapshot.histograms) {
    if (hist.name == name) return hist.percentile(p);
  }
  return 0.0;
}

std::uint64_t counter_value(const MetricsSnapshot& snapshot,
                            const std::string& name) {
  for (const auto& [counter, value] : snapshot.counters) {
    if (counter == name) return value;
  }
  return 0;
}

}  // namespace

std::map<std::string, double> SnapshotSampler::sample(
    std::int64_t t_us, const MetricsSnapshot& snapshot,
    TimeSeriesStore* store) {
  std::map<std::string, double> frame;
  const double elapsed_s =
      first_ ? 0.0
             : static_cast<double>(t_us - previous_t_us_) / 1'000'000.0;
  // Staged, committed after the loop: several specs may derive from one
  // source counter (a board's verdicts feed both its delta and its rate),
  // and each must see the same previous-tick value.
  std::map<std::string, std::uint64_t> next_counters;
  for (const SampleSpec& spec : specs_) {
    double value = 0.0;
    switch (spec.kind) {
      case SampleSpec::Kind::CounterDelta:
      case SampleSpec::Kind::CounterRate: {
        const std::uint64_t now = counter_value(snapshot, spec.metric);
        const auto it = previous_counters_.find(spec.metric);
        const std::uint64_t before =
            it != previous_counters_.end() ? it->second : 0;
        next_counters[spec.metric] = now;
        const double delta =
            now >= before ? static_cast<double>(now - before) : 0.0;
        if (spec.kind == SampleSpec::Kind::CounterDelta) {
          value = delta;
        } else {
          value = elapsed_s > 0.0 ? delta / elapsed_s : 0.0;
        }
        break;
      }
      case SampleSpec::Kind::HistP95:
        value = histogram_percentile(snapshot, spec.metric, 0.95);
        break;
      case SampleSpec::Kind::HistP99:
        value = histogram_percentile(snapshot, spec.metric, 0.99);
        break;
    }
    frame[spec.series] = value;
    if (store != nullptr) store->record(spec.series, t_us, value);
  }
  for (const auto& [metric, now] : next_counters) {
    previous_counters_[metric] = now;
  }
  previous_t_us_ = t_us;
  first_ = false;
  return frame;
}

std::vector<SampleSpec> board_sample_specs(const std::string& prefix) {
  using Kind = SampleSpec::Kind;
  return {
      {prefix + ".verdicts.delta", Kind::CounterDelta, prefix + ".verdicts"},
      {prefix + ".throughput", Kind::CounterRate, prefix + ".verdicts"},
      {prefix + ".shed.delta", Kind::CounterDelta, prefix + ".shed"},
      {prefix + ".deferred.delta", Kind::CounterDelta, prefix + ".deferred"},
      {prefix + ".p95_us", Kind::HistP95, prefix + ".ingest_to_verdict_us"},
      {prefix + ".p99_us", Kind::HistP99, prefix + ".ingest_to_verdict_us"},
  };
}

namespace {

std::int64_t steady_now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

TelemetryCollector::TelemetryCollector(CollectorConfig config,
                                       std::vector<SampleSpec> specs,
                                       AlertEngine* alerts)
    : config_(std::move(config)),
      store_(config_.tsdb),
      sampler_(std::move(specs)),
      alerts_(alerts) {
  if (!config_.clock) config_.clock = steady_now_us;
  if (config_.start_thread) {
    thread_ = std::thread([this] { run(); });
  }
}

TelemetryCollector::~TelemetryCollector() { stop(); }

void TelemetryCollector::tick() {
  std::lock_guard<std::mutex> lock(tick_mutex_);
  const std::int64_t now_us = config_.clock();
  const MetricsSnapshot snapshot = registry().snapshot();
  sampler_.sample(now_us, snapshot, &store_);
  store_.publish_gauges();
  if (alerts_ != nullptr) alerts_->evaluate(store_, now_us);
  ticks_.fetch_add(1, std::memory_order_relaxed);
}

void TelemetryCollector::stop() {
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    stopping_.store(true, std::memory_order_release);
  }
  wake_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void TelemetryCollector::run() {
  const auto interval =
      std::chrono::microseconds(std::max<std::uint64_t>(
          config_.tsdb.interval_us, 1));
  while (!stopping_.load(std::memory_order_acquire)) {
    tick();
    std::unique_lock<std::mutex> lock(wake_mutex_);
    wake_cv_.wait_for(lock, interval, [this] {
      return stopping_.load(std::memory_order_acquire);
    });
  }
}

}  // namespace csdml::obs
