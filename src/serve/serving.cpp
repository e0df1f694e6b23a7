#include "serve/serving.hpp"

#include <string>
#include <utility>

#include "common/error.hpp"
#include "faults/fault_plan.hpp"
#include "obs/metrics.hpp"
#include "obs/span_trace.hpp"

namespace csdml::serve {

namespace {

/// Micro-batch sizes are small powers of two by construction.
const std::vector<double>& coalesce_bounds() {
  static const std::vector<double> bounds{1, 2, 4, 8, 16, 32, 64, 128};
  return bounds;
}

}  // namespace

ServingPipeline::ServingPipeline(kernels::CsdLstmEngine& engine,
                                 ServeConfig config, VerdictSink sink)
    : engine_(engine), config_(std::move(config)), sink_(std::move(sink)) {
  CSDML_REQUIRE(config_.shards > 0, "serve: shard count must be positive");
  CSDML_REQUIRE(config_.coalesce_max > 0,
                "serve: coalesce_max must be positive");
  CSDML_REQUIRE(sink_ != nullptr, "serve: verdict sink required");
  detect::validate(config_.detector);
  CSDML_REQUIRE(!config_.metrics_prefix.empty(),
                "serve: metrics prefix must be non-empty");
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(config_.ring_capacity));
  }
  coalescer_ = std::thread([this] { coalescer_main(); });
}

ServingPipeline::~ServingPipeline() { stop(); }

void ServingPipeline::ingest(detect::ProcessId process, nn::TokenId token) {
  CSDML_REQUIRE(token >= 0 && token < engine_.model_config().vocab_size,
                "API-call token outside model vocabulary");
  ingested_.fetch_add(1, std::memory_order_relaxed);
  Shard& shard = shard_of(process);
  bool pushed = false;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    detect::WindowTracker& tracker =
        shard.processes.try_emplace(process, config_.detector).first->second;
    if (!tracker.on_call(token, config_.detector)) return;

    const nn::TokenSpan view = tracker.window();
    Request request;
    request.process = process;
    request.call_index = tracker.calls_seen();
    request.window.assign(view.begin(), view.end());
    request.enqueued_at = Clock::now();
    // flush() must never observe a completed request it has not yet seen
    // enqueued, so outstanding_ rises before the push and rolls back on a
    // full ring.
    outstanding_.fetch_add(1, std::memory_order_seq_cst);
    if (shard.ring.try_push(std::move(request))) {
      tracker.on_enqueued();
      enqueued_.fetch_add(1, std::memory_order_relaxed);
      pending_.fetch_add(1, std::memory_order_release);
      pushed = true;
    } else {
      // Backpressure: shed to the deferral path, never drop — exactly like
      // the CSD-unavailable deferral.
      outstanding_.fetch_sub(1, std::memory_order_seq_cst);
      tracker.on_deferred(config_.detector);
      shed_.fetch_add(1, std::memory_order_relaxed);
      obs::registry().add_counter(metric("shed"));
    }
  }
  if (pushed) ring_doorbell();
}

void ServingPipeline::forget(detect::ProcessId process) {
  Shard& shard = shard_of(process);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.processes.find(process);
  if (it == shard.processes.end()) {
    obs::registry().add_counter(metric("forget_unknown"));
    return;
  }
  const detect::WindowTracker::Owed owed = it->second.on_forget();
  if (owed.deferral) obs::registry().add_counter(metric("forget_pending"));
  if (owed.migrated) {
    // The migrated-then-resolved leg can no longer close; account for it
    // so the fleet ledger still balances.
    migrated_forgotten_.fetch_add(1, std::memory_order_relaxed);
    obs::registry().add_counter(metric("migrated_forgotten"));
  }
  shard.processes.erase(it);
  obs::registry().add_counter(metric("processes_forgotten"));
}

std::vector<ServingPipeline::ProcessSnapshot>
ServingPipeline::export_processes() {
  std::vector<ProcessSnapshot> snapshots;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (const auto& [process, tracker] : shard->processes) {
      snapshots.emplace_back(process, tracker.snapshot());
    }
    shard->processes.clear();
  }
  obs::registry().add_counter(metric("processes_exported"), snapshots.size());
  return snapshots;
}

void ServingPipeline::import_process(const ProcessSnapshot& snapshot) {
  const auto& [process, state] = snapshot;
  Shard& shard = shard_of(process);
  std::lock_guard<std::mutex> lock(shard.mutex);
  shard.processes.insert_or_assign(
      process, detect::WindowTracker::restore(state, config_.detector));
  migrated_in_.fetch_add(1, std::memory_order_relaxed);
  obs::registry().add_counter(metric("migrated_in"));
}

void ServingPipeline::flush() {
  while (outstanding_.load(std::memory_order_seq_cst) != 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

void ServingPipeline::stop() {
  if (!stopping_.exchange(true)) ring_doorbell();
  if (coalescer_.joinable()) coalescer_.join();
}

void ServingPipeline::ring_doorbell() {
  doorbell_.fetch_add(1);
  doorbell_.notify_one();
}

ServingPipeline::Stats ServingPipeline::stats() const {
  Stats stats;
  stats.ingested = ingested_.load(std::memory_order_relaxed);
  stats.enqueued = enqueued_.load(std::memory_order_relaxed);
  stats.shed = shed_.load(std::memory_order_relaxed);
  stats.deferred = deferred_.load(std::memory_order_relaxed);
  stats.verdicts = verdicts_.load(std::memory_order_relaxed);
  stats.alerts = alerts_.load(std::memory_order_relaxed);
  stats.batches = batches_.load(std::memory_order_relaxed);
  stats.migrated_in = migrated_in_.load(std::memory_order_relaxed);
  stats.migrated_resolved = migrated_resolved_.load(std::memory_order_relaxed);
  stats.migrated_forgotten = migrated_forgotten_.load(std::memory_order_relaxed);
  return stats;
}

void ServingPipeline::coalescer_main() {
  std::vector<Request> batch;
  batch.reserve(config_.coalesce_max);
  while (true) {
    batch.clear();
    gather(batch);
    if (!batch.empty()) {
      process_batch(batch);
      continue;
    }
    if (stopping_.load(std::memory_order_acquire)) {
      // Drained and stopping: nothing can arrive after the rings emptied
      // under `stopping_` (producers may still shed, which needs no us).
      if (pending_.load(std::memory_order_acquire) == 0) return;
      continue;
    }
    // Idle. A push or stop() before this read shows in the re-check; one
    // after it moves the doorbell past `rung`, so the wait returns at once.
    // atomic::wait spins briefly before it parks.
    const std::uint32_t rung = doorbell_.load();
    if (pending_.load(std::memory_order_acquire) == 0 &&
        !stopping_.load(std::memory_order_acquire)) {
      doorbell_.wait(rung);
    }
  }
}

void ServingPipeline::gather(std::vector<Request>& batch) {
  const std::size_t shards = shards_.size();
  for (std::size_t i = 0; i < shards; ++i) {
    Shard& shard = *shards_[(next_shard_ + i) % shards];
    Request request;
    while (batch.size() < config_.coalesce_max &&
           shard.ring.try_pop(request)) {
      pending_.fetch_sub(1, std::memory_order_acq_rel);
      batch.push_back(std::move(request));
    }
  }
  next_shard_ = (next_shard_ + 1) % shards;
}

void ServingPipeline::process_batch(std::vector<Request>& batch) {
  std::vector<nn::Sequence> sequences;
  sequences.reserve(batch.size());
  for (Request& request : batch) sequences.push_back(std::move(request.window));

  // The serving layer frames the whole batch — coalesced count included —
  // as one trace; the engine's own spans nest inside because the device
  // lock is held (recursively) across the infer_batch call.
  kernels::CsdLstmEngine::BatchResult result;
  bool unavailable = false;
  {
    auto device_lock = engine_.lock_device();
    obs::SpanTrace& spans = engine_.span_trace();
    const bool traced = spans.enabled() && !spans.in_trace();
    obs::SpanId root = 0;
    if (traced) {
      spans.begin_trace();
      root = spans.begin_span(metric("batch"), engine_.device_now());
      spans.tag(root, "coalesced", std::to_string(batch.size()));
      if (!config_.board_label.empty()) {
        spans.tag(root, "board", config_.board_label);
      }
    }
    try {
      result = engine_.infer_batch(sequences);
    } catch (const faults::CsdUnavailableError&) {
      unavailable = true;
    }
    if (traced) {
      if (unavailable) spans.tag(root, "deferred", "1");
      spans.end_span(root, engine_.device_now());
      spans.end_trace();
    }
  }

  batches_.fetch_add(1, std::memory_order_relaxed);
  obs::registry().observe(metric("coalesce_batch"),
                          static_cast<double>(batch.size()),
                          coalesce_bounds());
  if (unavailable) {
    defer_failed(batch);
  } else {
    complete(batch, result);
  }
}

void ServingPipeline::complete(
    std::vector<Request>& batch,
    const kernels::CsdLstmEngine::BatchResult& result) {
  obs::MetricsRegistry& metrics = obs::registry();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Request& request = batch[i];
    const double probability = result.probabilities[i];
    bool alert = false;
    {
      Shard& shard = shard_of(request.process);
      std::lock_guard<std::mutex> lock(shard.mutex);
      const auto it = shard.processes.find(request.process);
      // A process forgotten mid-flight still gets its verdict, but there
      // is no streak left to debounce against, so it can never alert.
      if (it != shard.processes.end()) {
        const detect::WindowTracker::VerdictOutcome outcome =
            it->second.on_verdict(probability, config_.detector);
        alert = outcome.alert;
        if (outcome.migrated_resolved) {
          // The deferral this process carried across a board failover has
          // now produced its verdict — the migrated-then-resolved leg of
          // the fleet conservation law.
          migrated_resolved_.fetch_add(1, std::memory_order_relaxed);
          metrics.add_counter(metric("migrated_resolved"));
        }
        if (outcome.debounced) {
          metrics.add_counter(metric("debounce_suppressions"));
        }
      }
    }

    Verdict verdict;
    verdict.process = request.process;
    verdict.call_index = request.call_index;
    verdict.probability = probability;
    verdict.alert = alert;
    verdict.degraded = result.degraded;
    metrics.add_counter(metric("verdicts"));
    if (alert) {
      alerts_.fetch_add(1, std::memory_order_relaxed);
      metrics.add_counter(metric("alerts"));
    }
    metrics.observe(
        metric("ingest_to_verdict_us"),
        std::chrono::duration<double, std::micro>(Clock::now() -
                                                  request.enqueued_at)
            .count());
    // Sink runs outside every shard lock; only after it returns does the
    // request count as completed, so flush() covers sink delivery too.
    sink_(verdict);
    verdicts_.fetch_add(1, std::memory_order_relaxed);
    outstanding_.fetch_sub(1, std::memory_order_seq_cst);
  }
}

void ServingPipeline::defer_failed(std::vector<Request>& batch) {
  obs::MetricsRegistry& metrics = obs::registry();
  for (const Request& request : batch) {
    Shard& shard = shard_of(request.process);
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      const auto it = shard.processes.find(request.process);
      if (it != shard.processes.end()) it->second.on_deferred(config_.detector);
    }
    deferred_.fetch_add(1, std::memory_order_relaxed);
    metrics.add_counter(metric("deferred"));
    outstanding_.fetch_sub(1, std::memory_order_seq_cst);
  }
}

}  // namespace csdml::serve
