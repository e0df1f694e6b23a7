// Sharded asynchronous serving pipeline for the streaming detector.
//
// The paper's deployment story has the CSD absorbing "traffic from millions
// of users": per-call synchronous classification (StreamingDetector) makes
// every ingestion thread wait out a full engine round-trip. This layer
// decouples the two halves:
//
//   ingestion threads ──> shard (mutex + per-process windows)
//                           │ due window (copied)
//                           ▼
//                         SPSC ring (bounded, lock-free)
//                           │ drained round-robin
//                           ▼
//                     coalescer thread ──> micro-batch ──> infer_batch
//                           │ verdicts, in enqueue order per process
//                           ▼
//                        VerdictSink
//
// Process state is sharded by pid so ingestion threads rarely contend;
// each shard hands due windows to the single coalescer thread through a
// bounded SPSC ring (the shard mutex serialises producers, the coalescer
// is the only consumer). The coalescer is work-conserving: it dispatches
// as soon as the engine is free, taking whatever piled up in the rings
// while the previous infer_batch ran (up to `coalesce_max` windows). A
// lone window never waits for company; under load the engine-side cost
// (availability probe, span framing, pool dispatch) amortises across the
// batch. A full ring is backpressure, not loss: the due classification is
// deferred exactly like the CSD-unavailable path (retried on the process's
// next call) and counted in `serve.shed`.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/spsc_ring.hpp"
#include "detect/window_tracker.hpp"
#include "kernels/engine.hpp"

namespace csdml::serve {

struct ServeConfig {
  /// Process-state shards; ingestion threads hash (pid mod shards) so
  /// distinct processes land on distinct locks.
  std::size_t shards{4};
  /// Per-shard request ring capacity (rounded up to a power of two). When
  /// the ring is full the due classification is shed to the deferral path.
  std::size_t ring_capacity{256};
  /// Micro-batch cap: the coalescer never hands the engine more windows
  /// than this in one infer_batch call.
  std::size_t coalesce_max{32};
  /// Window/hop/threshold/debounce semantics, identical to the
  /// synchronous StreamingDetector.
  detect::DetectorConfig detector{};
  /// Name prefix for every obs counter/gauge/histogram/span this pipeline
  /// emits. A fleet gives each board its own prefix (e.g. "fleet.b2") so
  /// per-board series stay separable; the default keeps the original
  /// single-board "serve.*" names.
  std::string metrics_prefix{"serve"};
  /// Human-readable board identity tagged onto batch spans (empty = none).
  std::string board_label{};
};

/// One classification outcome, delivered to the sink in per-process call
/// order (ring FIFO + single coalescer preserve enqueue order).
struct Verdict {
  detect::ProcessId process{0};
  /// Index (per process) of the API call that completed the window.
  std::uint64_t call_index{0};
  double probability{0.0};
  /// Over threshold for `consecutive_alerts` straight classifications.
  bool alert{false};
  /// Served by the host fallback while the CSD was unhealthy.
  bool degraded{false};
  /// Index of the board whose pipeline served this verdict. A standalone
  /// ServingPipeline leaves it 0; BoardFleet stamps it per board, so a
  /// sink can tell which side of a failover produced the classification.
  std::uint32_t board{0};
};

/// Invoked from the coalescer thread, outside any shard lock — a slow sink
/// backpressures the pipeline (rings fill, ingestion sheds) but never
/// deadlocks it.
using VerdictSink = std::function<void(const Verdict&)>;

class ServingPipeline {
 public:
  /// Starts the coalescer thread. The engine must outlive the pipeline;
  /// the sink is retained for the pipeline's lifetime.
  ServingPipeline(kernels::CsdLstmEngine& engine, ServeConfig config,
                  VerdictSink sink);
  ~ServingPipeline();  ///< stop()

  ServingPipeline(const ServingPipeline&) = delete;
  ServingPipeline& operator=(const ServingPipeline&) = delete;

  /// Feeds one API call of one process. Safe to call from any number of
  /// threads concurrently; the caller only ever touches its shard's mutex
  /// and ring — never the engine. Out-of-vocabulary tokens are rejected
  /// with PreconditionError, as in the synchronous detector.
  void ingest(detect::ProcessId process, nn::TokenId token);

  /// Forgets a terminated process (unknown ids are a no-op). A pending
  /// deferral dies with the process and is counted in
  /// `serve.forget_pending` (and, if it was carried in by a migration, in
  /// `migrated_forgotten`); an in-flight window of the process still
  /// yields a verdict, with `alert` forced false (no streak to debounce
  /// against).
  void forget(detect::ProcessId process);

  using ProcessSnapshot =
      std::pair<detect::ProcessId, detect::WindowTracker::Snapshot>;

  /// Drains every process's state out of the pipeline (the shard maps end
  /// up empty) for migration to other boards. Call only when quiescent for
  /// the migrating pids: flush() first, and no concurrent ingest — the
  /// fleet enforces this by holding its routing lock exclusively.
  std::vector<ProcessSnapshot> export_processes();

  /// Installs a migrated process (WindowTracker::restore). A carried
  /// deferral re-arms on the process's next call, and its eventual verdict
  /// is counted in `migrated_resolved` — the never-drop contract extended
  /// across board failover.
  void import_process(const ProcessSnapshot& snapshot);

  /// Blocks until every successfully enqueued window has either produced
  /// a verdict or been deferred. Does not stop the coalescer.
  void flush();

  /// Drains the rings, then joins the coalescer. Idempotent; the
  /// destructor calls it.
  void stop();

  /// Monotonic pipeline totals (relaxed reads; exact once flushed).
  struct Stats {
    std::uint64_t ingested{0};   ///< calls accepted by ingest()
    std::uint64_t enqueued{0};   ///< due windows pushed into a ring
    std::uint64_t shed{0};       ///< due windows deferred on a full ring
    std::uint64_t deferred{0};   ///< enqueued windows deferred (CSD down)
    std::uint64_t verdicts{0};   ///< windows that reached the sink
    std::uint64_t alerts{0};     ///< verdicts with alert set
    std::uint64_t batches{0};    ///< infer_batch calls issued
    std::uint64_t migrated_in{0};        ///< processes imported from other boards
    std::uint64_t migrated_resolved{0};  ///< carried deferrals that verdict'd here
    std::uint64_t migrated_forgotten{0}; ///< carried deferrals whose pid was forgotten
  };
  Stats stats() const;

  const ServeConfig& config() const { return config_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// A due window, snapshotted at enqueue time (the live ring keeps
  /// sliding underneath, so the span cannot be handed over by reference).
  struct Request {
    detect::ProcessId process{0};
    std::uint64_t call_index{0};
    nn::Sequence window;
    Clock::time_point enqueued_at{};
  };

  struct Shard {
    std::mutex mutex;  ///< process map + ring producer side
    std::unordered_map<detect::ProcessId, detect::WindowTracker> processes;
    SpscRing<Request> ring;

    explicit Shard(std::size_t ring_capacity) : ring(ring_capacity) {}
  };

  Shard& shard_of(detect::ProcessId process) {
    return *shards_[process % shards_.size()];
  }

  /// `<metrics_prefix>.<name>` — every obs series this pipeline emits.
  std::string metric(const char* name) const {
    return config_.metrics_prefix + '.' + name;
  }

  void coalescer_main();
  /// One pass over the rings, round-robin from a rotating start shard,
  /// moving what is already queued into `batch` (at most coalesce_max).
  /// Never waits for more: an empty batch means the rings were empty.
  void gather(std::vector<Request>& batch);
  void process_batch(std::vector<Request>& batch);
  /// Successful batch: fold probabilities back into shard state (streaks,
  /// debounce) and deliver verdicts.
  void complete(std::vector<Request>& batch,
                const kernels::CsdLstmEngine::BatchResult& result);
  /// Failed batch (CSD unavailable, no fallback): re-arm every window's
  /// process for retry on its next call — deferred, never dropped.
  void defer_failed(std::vector<Request>& batch);
  /// Bumps `doorbell_` and wakes the coalescer if it is parked on it.
  void ring_doorbell();

  kernels::CsdLstmEngine& engine_;
  ServeConfig config_;
  VerdictSink sink_;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Requests sitting in rings, not yet gathered.
  std::atomic<std::uint64_t> pending_{0};
  /// Requests enqueued but not yet completed (verdict or deferral) —
  /// what flush() waits on.
  std::atomic<std::uint64_t> outstanding_{0};
  std::atomic<bool> stopping_{false};
  /// The wake protocol: ingest() rings it after a push, stop() after
  /// setting `stopping_`. The idle coalescer reads it, re-checks
  /// `pending_`/`stopping_`, then waits for it to move past the value it
  /// read, so a ring between the read and the wait cannot be lost.
  std::atomic<std::uint32_t> doorbell_{0};
  /// Coalescer-only: the shard the next gather() starts from.
  std::size_t next_shard_{0};

  std::atomic<std::uint64_t> ingested_{0};
  std::atomic<std::uint64_t> enqueued_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> deferred_{0};
  std::atomic<std::uint64_t> verdicts_{0};
  std::atomic<std::uint64_t> alerts_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> migrated_in_{0};
  std::atomic<std::uint64_t> migrated_resolved_{0};
  std::atomic<std::uint64_t> migrated_forgotten_{0};

  std::thread coalescer_;  ///< last member: started once everything above exists
};

}  // namespace csdml::serve
