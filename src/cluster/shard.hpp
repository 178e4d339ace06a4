// One serving shard: a bounded core::OrderedBatchQueue the cluster's
// admission path pushes StreamItems into, drained by a dedicated worker
// thread the shard owns (start()/stop()). Shards hold NO model state
// of their own: every StreamItem carries a shared_ptr pin of the bundle it
// was admitted under plus its corpus's mapping constants, so any shard can
// evaluate any item — placement, failover, and even a mid-flight
// recalibration swap can never change the bytes a request answers. The
// worker pops whatever is queued, up to the batch size, in strict-priority/
// EDF order (the queue is work-conserving: admission already pushes runs),
// through ONE drain path: each batch is evaluated by serve::answer_batch,
// grouped by pinned (bundle, constants) pair. Fault injection and live
// tracing are hooks on that path, not a second one: an evaluation that
// throws becomes an in-slot error response (never a dead thread), and an
// injected transient failure or (simulated) worker crash hands items to
// the cluster's failure handler, which re-drives them through a shard
// queue — this drain is the only place a queued request is ever
// evaluated. A crash abandons the whole popped batch to that handler and
// the same worker loop carries on, which is what makes
// StreamSession::close() un-hangable: every admitted item is always
// delivered by SOMEONE.
#pragma once

#include <atomic>
#include <cstddef>
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

// Items the worker could not answer in place (injected transient
// failures, or a whole batch a simulated crash abandoned): the cluster's
// handler re-drives them into the queue of the first sibling in their
// key's rendezvous order (or back into `from_shard`'s, with no sibling),
// or degrades them once the retry budget is spent. `from_shard` is the
// shard that failed them.
using FailureHandler = std::function<void(std::vector<StreamItem>&&, int from_shard)>;

// Per-shard counters, merged into ClusterMetrics by the cluster.
struct ShardStats {
  long queries = 0;  // requests this shard evaluated AND delivered
  long batches = 0;
  long eval_exceptions = 0;  // evaluations that threw (answered in-slot)
  long worker_restarts = 0;  // injected crashes the worker loop recovered from
};

class Shard {
 public:
  Shard(int index, std::size_t queue_capacity, std::size_t batch_size,
        double initial_service_us);
  // Joins the worker if the owner forgot stop(); sessions are closed by
  // then per the cluster contract, so nothing can be in flight.
  ~Shard();

  int index() const { return index_; }

  // Starts the dedicated worker thread. `faults` (nullable) injects the
  // deterministic chaos schedule; `on_failed` (required) receives items
  // that failed transiently or a crash abandoned; `trace` (nullable)
  // records lifecycle spans — the worker emits queue/eval/deliver events
  // only when the recorder is live-clocked (under --replay the cluster
  // emits the whole virtual chain at admission instead). Call once.
  void start(ResponseCache* cache, core::FaultInjector* faults, FailureHandler on_failed,
             obs::TraceRecorder* trace = nullptr);
  // Closes the queue and joins the worker.
  void stop();

  // Admission: blocking bounded push of one admitted run's sub-run for
  // this shard (admitters are client threads; the cluster sheds at
  // admission time, so a full queue means "wait", never "help drain").
  // Returns how many items went in; fewer than `count` only after
  // shutdown — the caller must then answer items[returned..count) itself
  // (deliver an error), or close() would hang.
  std::size_t enqueue_run(StreamItem* items, std::size_t count) {
    return queue_.push_run(items, count);
  }
  // The failover path's push: workers re-drive failed items with this.
  // It never blocks (a blocking push from a worker into a sibling's full
  // queue could deadlock two shards against each other) and fails only
  // after shutdown, leaving the item untouched.
  bool redrive(StreamItem&& item) { return queue_.push_redrive(std::move(item)); }

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
  // Adds this shard's cumulative stage histograms (bounded memory, never
  // drained) into the cluster-wide roll-ups.
  void merge_stage_histograms(obs::LatencyHistogram& queue_wait,
                              obs::LatencyHistogram& service,
                              obs::LatencyHistogram& e2e) const;

 private:
  void worker_loop();
  // The one drain path: pop a batch, run the fault hooks (armed injector
  // only: the head's stall, then every item's crash decision and, when
  // none fired, every item's throw decision), evaluate what remains, fill the cache, account, trace
  // (live-clock recorder only), and deliver. Items to re-drive land in
  // `failed`. Returns false once the queue is closed and empty.
  bool drain_one_batch(std::vector<StreamItem>& failed);
  // Groups the batch by its pinned (bundle, constants) pair and evaluates
  // each group through one serve::answer_batch call against the per-shard
  // arena scratch. An evaluation that throws falls back to the per-item
  // evaluate() for that group, preserving the in-slot error contract.
  void evaluate_batch(std::vector<StreamItem>& batch,
                      std::vector<serve::AdvisorResponse>& responses);
  // One item through serve::answer_batch on a one-item batch, exceptions
  // converted to in-slot error responses — evaluate_batch's fallback.
  serve::AdvisorResponse evaluate(const StreamItem& item);

  int index_;
  std::size_t batch_size_;
  core::OrderedBatchQueue<StreamItem, StreamBefore> queue_;
  std::atomic<double> service_estimate_us_;
  std::atomic<double> queue_wait_estimate_us_{0.0};

  // Wiring fixed by start() before the worker exists.
  ResponseCache* cache_ = nullptr;
  core::FaultInjector* faults_ = nullptr;
  FailureHandler on_failed_;
  obs::TraceRecorder* trace_ = nullptr;
  std::thread worker_;

  // Worker-private drain scratch (only the worker thread touches these):
  // the popped batch, its per-item fault decisions, its response slots,
  // the grouping arena, and the arena behind the batched evaluator's term
  // columns all keep their capacity across batches, so a warmed-up drain
  // loop runs allocation-free.
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
