// Time-series store tests: raw-ring wraparound, injected-clock gaps, the
// snapshot sampler's delta/rate/percentile derivations, and the collector
// in deterministic manual-tick mode.
#include "obs/timeseries.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace csdml::obs {
namespace {

TEST(TsSeries, RawRingWrapsOldestOut) {
  TsSeries series(4);
  EXPECT_TRUE(series.points().empty());
  EXPECT_DOUBLE_EQ(series.last(), 0.0);
  for (int i = 0; i < 10; ++i) {
    series.append(i, static_cast<double>(i));
  }
  EXPECT_EQ(series.samples(), 10u);
  const std::vector<TsPoint> raw = series.points();
  ASSERT_EQ(raw.size(), 4u);  // capacity, not sample count
  // Oldest-first and the oldest six evicted.
  EXPECT_EQ(raw[0].t_us, 6);
  EXPECT_DOUBLE_EQ(raw[0].value, 6.0);
  EXPECT_EQ(raw[3].t_us, 9);
  EXPECT_DOUBLE_EQ(raw[3].value, 9.0);
  EXPECT_DOUBLE_EQ(series.last(), 9.0);
}

TEST(TsSeries, ClockGapsStayInBucketTimestamps) {
  // A collector stall (gap in the injected timeline) must not corrupt
  // the timeline: each point keeps the timestamp it was appended with,
  // so the gap stays visible to readers.
  TsSeries series(8);
  series.append(0, 1.0);
  series.append(100, 2.0);
  series.append(60'000'000, 3.0);  // a minute-long stall
  series.append(60'000'100, 4.0);
  const std::vector<TsPoint> raw = series.points();
  ASSERT_EQ(raw.size(), 4u);
  EXPECT_EQ(raw[1].t_us, 100);
  EXPECT_EQ(raw[2].t_us, 60'000'000);
  EXPECT_EQ(raw[3].t_us, 60'000'100);
  EXPECT_DOUBLE_EQ(raw[2].value, 3.0);
}

TEST(TimeSeriesStore, ImplicitCreationAndLookups) {
  registry().reset();
  TimeSeriesStore store(TsdbConfig{.capacity = 16});
  store.record("a.p99", 100, 5.0);
  store.record("a.p99", 200, 7.0);
  store.record("b.shed", 200, 1.0);

  EXPECT_TRUE(store.has("a.p99"));
  EXPECT_FALSE(store.has("missing"));
  EXPECT_EQ(store.names(), (std::vector<std::string>{"a.p99", "b.shed"}));
  EXPECT_EQ(store.samples("a.p99"), 2u);
  EXPECT_DOUBLE_EQ(store.last("a.p99"), 7.0);
  EXPECT_DOUBLE_EQ(store.last("missing"), 0.0);
  EXPECT_TRUE(store.points("missing").empty());
  ASSERT_EQ(store.points("a.p99").size(), 2u);
  EXPECT_DOUBLE_EQ(store.points("a.p99")[0].value, 5.0);

  const TimeSeriesStore::Totals totals = store.totals();
  EXPECT_EQ(totals.series, 2u);
  EXPECT_EQ(totals.samples, 3u);
  // The store is itself observable: every record bumps tsdb.samples.
  EXPECT_EQ(registry().counter_value("tsdb.samples"), 3u);
  store.publish_gauges();
  const MetricsSnapshot snap = registry().snapshot();
  double series_gauge = -1.0;
  for (const auto& [name, value] : snap.gauges) {
    if (name == "tsdb.series") series_gauge = value;
  }
  EXPECT_DOUBLE_EQ(series_gauge, 2.0);
}

TEST(SnapshotSampler, DerivesDeltasRatesAndPercentiles) {
  MetricsRegistry reg;
  reg.add_counter("served", 100);
  for (int i = 1; i <= 100; ++i) reg.observe("lat_us", static_cast<double>(i));

  SnapshotSampler sampler({
      {"served.delta", SampleSpec::Kind::CounterDelta, "served"},
      {"served.rate", SampleSpec::Kind::CounterRate, "served"},
      {"lat.p95", SampleSpec::Kind::HistP95, "lat_us"},
      {"lat.p99", SampleSpec::Kind::HistP99, "lat_us"},
      {"ghost.delta", SampleSpec::Kind::CounterDelta, "ghost"},
      {"ghost.p99", SampleSpec::Kind::HistP99, "ghost_us"},
  });
  TimeSeriesStore store(TsdbConfig{.capacity = 16});

  // First tick: deltas measure against zero, rates have no elapsed time.
  auto frame = sampler.sample(1'000'000, reg.snapshot(), &store);
  EXPECT_DOUBLE_EQ(frame["served.delta"], 100.0);
  EXPECT_DOUBLE_EQ(frame["served.rate"], 0.0);
  EXPECT_GE(frame["lat.p95"], 90.0);
  EXPECT_GE(frame["lat.p99"], frame["lat.p95"]);
  EXPECT_DOUBLE_EQ(frame["ghost.delta"], 0.0);  // absent metrics read 0
  EXPECT_DOUBLE_EQ(frame["ghost.p99"], 0.0);

  // Second tick two seconds later: 50 more served -> delta 50, rate 25/s.
  reg.add_counter("served", 50);
  frame = sampler.sample(3'000'000, reg.snapshot(), &store);
  EXPECT_DOUBLE_EQ(frame["served.delta"], 50.0);
  EXPECT_DOUBLE_EQ(frame["served.rate"], 25.0);

  // Every spec landed in the store, one sample per tick.
  EXPECT_EQ(store.samples("served.delta"), 2u);
  EXPECT_EQ(store.samples("ghost.delta"), 2u);
  EXPECT_DOUBLE_EQ(store.last("served.rate"), 25.0);

  // A registry reset (counter going backwards) must not produce a
  // gigantic unsigned-wrap delta.
  MetricsRegistry fresh;
  fresh.add_counter("served", 10);
  frame = sampler.sample(4'000'000, fresh.snapshot(), nullptr);
  EXPECT_DOUBLE_EQ(frame["served.delta"], 0.0);
}

TEST(BoardSampleSpecs, CoverTheServingSurface) {
  const std::vector<SampleSpec> specs = board_sample_specs("fleet.b0");
  ASSERT_EQ(specs.size(), 6u);
  EXPECT_EQ(specs[0].series, "fleet.b0.verdicts.delta");
  EXPECT_EQ(specs[0].metric, "fleet.b0.verdicts");
  EXPECT_EQ(specs[1].kind, SampleSpec::Kind::CounterRate);
  EXPECT_EQ(specs[5].series, "fleet.b0.p99_us");
  EXPECT_EQ(specs[5].metric, "fleet.b0.ingest_to_verdict_us");
}

TEST(TelemetryCollector, ManualTicksOnInjectedClock) {
  registry().reset();
  registry().add_counter("col.events", 7);

  std::int64_t sim_us = 0;
  CollectorConfig config;
  config.tsdb.capacity = 16;
  config.clock = [&sim_us] { return sim_us; };
  config.start_thread = false;  // deterministic: owner drives every tick
  TelemetryCollector collector(
      config, {{"col.delta", SampleSpec::Kind::CounterDelta, "col.events"}});

  collector.tick();
  sim_us += 1'000'000;
  registry().add_counter("col.events", 3);
  collector.tick();

  EXPECT_EQ(collector.ticks(), 2u);
  EXPECT_EQ(collector.store().samples("col.delta"), 2u);
  EXPECT_DOUBLE_EQ(collector.store().last("col.delta"), 3.0);
  const std::vector<TsPoint> raw = collector.store().points("col.delta");
  ASSERT_EQ(raw.size(), 2u);
  EXPECT_EQ(raw[0].t_us, 0);
  EXPECT_EQ(raw[1].t_us, 1'000'000);
  collector.stop();
  collector.stop();  // idempotent
}

}  // namespace
}  // namespace csdml::obs
