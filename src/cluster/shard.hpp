// One serving shard: a bounded core::OrderedBatchQueue the cluster's
// admission path pushes StreamItems into, drained by a dedicated SUPERVISED
// worker thread the shard owns (start()/stop()). Shards hold NO model state
// of their own: every StreamItem carries a shared_ptr pin of the bundle it
// was admitted under plus its corpus's mapping constants, so any shard can
// evaluate any item — placement, failover, and even a mid-flight
// recalibration swap can never change the bytes a request answers. The
// worker drains coalesced batches — flushed on batch size, on the
// coalescing deadline, on a kick (a closing stream flushing its in-flight
// tail), or on shutdown — in strict-priority/EDF order, through ONE drain
// path: each batch is evaluated by serve::answer_batch, grouped by pinned
// (bundle, constants) pair. Fault injection and live tracing are hooks on
// that path, not a second one: an evaluation that throws becomes an
// in-slot error response (never a dead thread), an injected transient
// failure hands the item to the cluster's failure handler for
// retry/failover, and a (simulated) worker crash parks the undelivered
// batch in an in-flight ledger the heartbeat watchdog re-drives after
// restart() — which is what makes StreamSession::close() un-hangable:
// every admitted item is always delivered by SOMEONE.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "core/arena.hpp"
#include "core/batch_queue.hpp"
#include "core/fault.hpp"
#include "cluster/stream.hpp"
#include "obs/histogram.hpp"
#include "obs/trace.hpp"

namespace isr::cluster {

class ResponseCache;

// Per-shard health as the router/admission path sees it:
//   healthy  — worker alive, heartbeat advancing, no recent failures.
//   degraded — alive but suspect: freshly restarted, stalled mid-drain,
//              or a recent transient failure; still routable.
//   down     — worker crashed and not yet restarted; admission and
//              failover route around it.
enum class ShardHealth : int { kHealthy = 0, kDegraded = 1, kDown = 2 };
const char* shard_health_name(ShardHealth health);

// Items the worker could not answer in place (injected transient
// failures): the cluster's handler retries them against the next shard in
// their key's rendezvous order, or degrades them once the retry budget is
// spent. `from_shard` is the shard that failed them.
using FailureHandler = std::function<void(std::vector<StreamItem>&&, int from_shard)>;

// The per-item fault decision, shared by the shard drain and the cluster's
// inline re-drive so both walk the same ladder: worker crash first, then
// eval throw. A pure function of (stream, seq, attempt), so WHERE an item
// is tried never changes whether it fails.
enum class ItemFault { kNone, kCrash, kThrow };
ItemFault item_fault(core::FaultInjector& faults, const StreamItem& item);

// Per-shard counters, merged into ClusterMetrics by the cluster.
struct ShardStats {
  long queries = 0;  // requests this shard evaluated AND delivered
  long batches = 0;
  long size_flushes = 0;
  long deadline_flushes = 0;
  long kick_flushes = 0;  // partial batches flushed by a closing stream
  long close_flushes = 0;
  long eval_exceptions = 0;  // evaluations that threw (answered in-slot)
};

class Shard {
 public:
  Shard(int index, std::size_t queue_capacity, std::size_t batch_size,
        std::chrono::nanoseconds batch_deadline, double initial_service_us);
  // Joins the worker if the owner forgot stop(); sessions are closed by
  // then per the cluster contract, so nothing can be in flight.
  ~Shard();

  int index() const { return index_; }

  // Starts the dedicated worker thread. `faults` (nullable) injects the
  // deterministic chaos schedule; `on_failed` (required) receives items
  // that failed transiently; `trace` (nullable) records lifecycle spans —
  // the worker emits queue/eval/deliver events only when the recorder is
  // live-clocked (under --replay the cluster emits the whole virtual chain
  // at admission instead). Call once.
  void start(ResponseCache* cache, core::FaultInjector* faults, FailureHandler on_failed,
             obs::TraceRecorder* trace = nullptr);
  // Closes the queue and joins the worker — including a crashed one the
  // watchdog never got to.
  void stop();

  // Admission: blocking bounded push of one admitted run's sub-run for
  // this shard (admitters are client threads; the cluster sheds at
  // admission time, so a full queue means "wait", never "help drain").
  // Returns how many items went in; fewer than `count` only after
  // shutdown — the caller must then answer items[returned..count) itself
  // (deliver an error), or close() would hang.
  // kick() flushes the current partial batch to the worker — a closing
  // stream's in-flight tail must not wait out the coalescing deadline.
  std::size_t enqueue_run(StreamItem* items, std::size_t count) {
    return queue_.push_run(items, count);
  }
  // Non-blocking variant for the failover path: workers and the watchdog
  // re-drive items with this (falling back to inline evaluation on a full
  // queue), because a blocking push from a worker into a sibling's full
  // queue could deadlock two shards against each other.
  bool try_enqueue(StreamItem&& item) { return queue_.try_push(std::move(item)); }
  void kick() { queue_.kick(); }

  // The pure per-item evaluation (serve::answer_batch on a one-item batch
  // against the item's pinned bundle and constants), exceptions converted
  // to in-slot error responses. Public so the cluster's failover path can
  // evaluate inline when every queue route is saturated — the response is
  // a pure function of (request, pinned bundle), so WHO evaluates never
  // changes the bytes.
  serve::AdvisorResponse evaluate(const StreamItem& item);

  // --- Supervision surface (the cluster's heartbeat watchdog) -----------
  // Monotone liveness counter, bumped once per worker loop iteration; a
  // stale heartbeat with work pending means the worker is stalled.
  std::uint64_t heartbeat() const { return heartbeat_.load(std::memory_order_relaxed); }
  // True when the worker thread died mid-batch (injected crash). The
  // watchdog must take_inflight() and restart().
  bool worker_down() const { return crashed_.load(std::memory_order_acquire); }
  // The undelivered batch a crashed worker held. Empty once re-driven.
  std::vector<StreamItem> take_inflight();
  // True while a popped batch awaits delivery (tracked only under an armed
  // injector — the one case a worker can stall or crash mid-batch). Paired
  // with a stale heartbeat it distinguishes "stalled mid-batch" from "idle
  // at an empty queue" (an idle worker blocks in pop and stops beating).
  bool has_inflight() const;
  // Joins the dead thread and spawns a fresh worker over the same queue.
  // Only meaningful after worker_down(); counts are the caller's job.
  void restart();

  // Live shed accounting reads these: EWMAs of measured per-request
  // evaluation cost and of measured enqueue->pop queue wait, both in
  // microseconds. Relaxed atomics — a lost update skews an estimate,
  // never a response.
  double service_estimate_us() const {
    return service_estimate_us_.load(std::memory_order_relaxed);
  }
  double queue_wait_estimate_us() const {
    return queue_wait_estimate_us_.load(std::memory_order_relaxed);
  }

  // Metrics accessors (safe during live streams: stats under a mutex, the
  // queue under its own lock).
  ShardStats stats() const;
  std::size_t max_queue_depth() const { return queue_.max_depth(); }
  std::size_t queue_depth() const { return queue_.depth(); }
  // Adds this shard's cumulative stage histograms (bounded memory, never
  // drained) into the cluster-wide roll-ups.
  void merge_stage_histograms(obs::LatencyHistogram& queue_wait,
                              obs::LatencyHistogram& service,
                              obs::LatencyHistogram& e2e) const;

 private:
  // Why one drain iteration ended: keep going, queue closed-and-empty
  // (normal worker exit), or an injected crash (the thread dies and the
  // watchdog takes over).
  enum class DrainStatus { kContinue, kStop, kCrashed };

  void worker_loop();
  // The one drain path: pop a coalesced batch, run the fault hooks (armed
  // injector only: ledger parking, the head's stall, per-item crash/throw
  // decisions in batch order), evaluate what remains, fill the cache,
  // account, trace (live-clock recorder only), and deliver.
  DrainStatus drain_one_batch(std::vector<StreamItem>& failed);
  // Groups the batch by its pinned (bundle, constants) pair and evaluates
  // each group through one serve::answer_batch call against the per-shard
  // arena scratch. An evaluation that throws falls back to the per-item
  // evaluate() for that group, preserving the in-slot error contract.
  void evaluate_batch(std::vector<StreamItem>& batch,
                      std::vector<serve::AdvisorResponse>& responses);

  int index_;
  std::size_t batch_size_;
  std::chrono::nanoseconds batch_deadline_;
  core::OrderedBatchQueue<StreamItem, StreamBefore> queue_;
  std::atomic<double> service_estimate_us_;
  std::atomic<double> queue_wait_estimate_us_{0.0};

  // Wiring fixed by start() before the worker exists; restart() reuses it.
  ResponseCache* cache_ = nullptr;
  core::FaultInjector* faults_ = nullptr;
  FailureHandler on_failed_;
  obs::TraceRecorder* trace_ = nullptr;
  std::thread worker_;

  std::atomic<std::uint64_t> heartbeat_{0};
  std::atomic<bool> crashed_{false};
  // The batch currently being evaluated, parked here (armed injector only)
  // from pop until the delivery loop finishes so a crash can never lose
  // work. Guarded by its own mutex: the watchdog reads it while the (dead)
  // worker cannot.
  mutable std::mutex inflight_mutex_;
  std::vector<StreamItem> inflight_;

  // Worker-private drain scratch (only the worker thread touches these;
  // restart() joins the dead worker before a new one exists): the popped
  // batch, its response slots, the grouping arena, and the arena behind
  // the batched evaluator's term columns all keep their capacity across
  // batches, so a warmed-up drain loop runs allocation-free.
  std::vector<StreamItem> batch_scratch_;
  std::vector<serve::AdvisorResponse> response_scratch_;
  core::Arena group_arena_;
  serve::EvalScratch eval_scratch_;

  mutable std::mutex stats_mutex_;
  ShardStats stats_;
  // Cumulative per-stage latency histograms (microseconds): fixed ~600
  // bytes each forever, so a stream that never asks for metrics cannot
  // grow state — this replaced the old bounded sample reservoir.
  obs::LatencyHistogram queue_wait_us_;
  obs::LatencyHistogram service_us_;
  obs::LatencyHistogram e2e_us_;
};

}  // namespace isr::cluster
