#include "cluster/shard.hpp"

#include <utility>

#include "cluster/cache.hpp"

namespace isr::cluster {

namespace {

// A fault decision for one attempt of one item: a pure function of
// (stream, seq, attempt), so WHERE an item is tried never changes whether
// it fails.
bool item_fires(core::FaultInjector& faults, core::FaultSite site, const StreamItem& item) {
  return faults.should_fire(site, item.session->id(), item.slot,
                            static_cast<std::uint64_t>(item.attempt));
}

}  // namespace

Shard::Shard(int index, std::size_t queue_capacity, std::size_t batch_size,
             double initial_service_us)
    : index_(index),
      batch_size_(batch_size > 0 ? batch_size : 1),
      queue_(queue_capacity),
      service_estimate_us_(initial_service_us > 0.0 ? initial_service_us : 1.0) {}

Shard::~Shard() { stop(); }

void Shard::start(ResponseCache* cache, core::FaultInjector* faults,
                  FailureHandler on_failed, obs::TraceRecorder* trace) {
  cache_ = cache;
  faults_ = faults && faults->armed() ? faults : nullptr;
  on_failed_ = std::move(on_failed);
  trace_ = trace;
  worker_ = std::thread([this] { worker_loop(); });
}

void Shard::stop() {
  queue_.close();
  if (worker_.joinable()) worker_.join();
}

void Shard::worker_loop() {
  std::vector<StreamItem> failed;
  for (;;) {
    const bool more = drain_one_batch(failed);
    if (!failed.empty()) {
      on_failed_(std::move(failed), index_);
      failed.clear();  // restore a known state after the move
    }
    if (!more) return;
  }
}

serve::AdvisorResponse Shard::evaluate(const StreamItem& item) {
  serve::AdvisorResponse response;
  // Admission pins the bundle and constants before enqueueing, so the null
  // branch is a defensive invariant, not a code path.
  if (!item.bundle || !item.constants) {
    response.status = serve::AdvisorResponse::Status::kError;
    response.error = "corpus bundle not resident on shard";
    return response;
  }
  // An evaluation that throws becomes an in-slot error response — never a
  // dead worker. The message is a pure function of the exception, which is
  // itself a pure function of (request, models), so the bytes stay
  // deterministic.
  try {
    const serve::AdvisorRequest* request = &item.request;
    serve::AdvisorResponse* slot = &response;
    serve::answer_batch(*item.bundle, *item.constants, &request, 1, &slot, eval_scratch_);
  } catch (const std::exception& e) {
    response = serve::AdvisorResponse{};
    response.status = serve::AdvisorResponse::Status::kError;
    response.error = std::string("evaluation failed: ") + e.what();
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.eval_exceptions += 1;
  } catch (...) {
    response = serve::AdvisorResponse{};
    response.status = serve::AdvisorResponse::Status::kError;
    response.error = "evaluation failed: unknown exception";
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.eval_exceptions += 1;
  }
  return response;
}

void Shard::evaluate_batch(std::vector<StreamItem>& batch,
                           std::vector<serve::AdvisorResponse>& responses) {
  const std::size_t n = batch.size();
  responses.clear();
  responses.resize(n);
  // Group by the pinned (bundle, constants) pair — one batch can mix
  // corpora, and items admitted across a recalibration swap pin different
  // epochs of the same corpus. Same stable selection sweep answer_batch
  // uses for (arch, renderer); group count is bounded by resident corpora
  // (x concurrent epochs), not batch size.
  core::Arena& arena = group_arena_;
  arena.reset();
  const serve::AdvisorRequest** reqs = arena.alloc_array<const serve::AdvisorRequest*>(n);
  serve::AdvisorResponse** resps = arena.alloc_array<serve::AdvisorResponse*>(n);
  std::uint32_t* item_of = arena.alloc_array<std::uint32_t>(n);
  unsigned char* taken = arena.alloc_array<unsigned char>(n);
  for (std::size_t k = 0; k < n; ++k) taken[k] = 0;
  std::size_t done = 0;
  std::size_t first = 0;
  while (done < n) {
    while (taken[first]) ++first;
    const StreamItem& head = batch[first];
    const std::size_t begin = done;
    for (std::size_t k = first; k < n; ++k) {
      if (taken[k]) continue;
      if (batch[k].bundle.get() == head.bundle.get() && batch[k].constants == head.constants) {
        taken[k] = 1;
        reqs[done] = &batch[k].request;
        resps[done] = &responses[k];
        item_of[done] = static_cast<std::uint32_t>(k);
        ++done;
      }
    }
    const std::size_t group_n = done - begin;
    if (!head.bundle || !head.constants) {
      // Defensive invariant, mirroring evaluate(): admission pins both.
      for (std::size_t k = begin; k < done; ++k) {
        resps[k]->status = serve::AdvisorResponse::Status::kError;
        resps[k]->error = "corpus bundle not resident on shard";
      }
      continue;
    }
    try {
      serve::answer_batch(*head.bundle, *head.constants, reqs + begin, group_n,
                          resps + begin, eval_scratch_);
    } catch (...) {
      // The batched evaluator failed (allocation pressure is the only real
      // way): re-run the group item by item through evaluate(), which
      // converts the throw into the in-slot error bytes.
      for (std::size_t k = begin; k < done; ++k)
        responses[item_of[k]] = evaluate(batch[item_of[k]]);
    }
  }
}

bool Shard::drain_one_batch(std::vector<StreamItem>& failed) {
  std::vector<StreamItem>& batch = batch_scratch_;
  if (!queue_.pop_batch(batch_size_, batch)) return false;
  // Queue wait ends here: the pop timestamp closes every item's
  // enqueue->pop interval (fault stalls below count as service, not wait).
  const auto pop_now = std::chrono::steady_clock::now();
  // Worker-side trace emission is live-clock only; under the cluster's
  // replay mode the admission path emits the whole virtual chain instead.
  const bool tracing = trace_ && trace_->enabled() && !trace_->virtual_clock();

  // Fault hooks, all injector-gated: with no armed injector a crash, stall,
  // or transient failure is structurally impossible, so the per-item
  // decisions are skipped entirely.
  if (faults_) {
    // Injected stall, keyed on the batch head's identity: the worker sleeps
    // mid-drain, and every item still evaluates to its normal bytes
    // afterwards — a pure latency fault.
    const StreamItem& head = batch.front();
    if (faults_->should_fire(core::FaultSite::kQueueStall, head.session->id(), head.slot,
                             static_cast<std::uint64_t>(head.attempt)))
      std::this_thread::sleep_for(std::chrono::milliseconds(faults_->config().stall_ms));
    // Per-item decisions, before anything is evaluated or moved. Crash
    // decisions first, for the whole batch: each item whose crash fires
    // advances its attempt and counts one restart, so every crash drawn is
    // acted on exactly once, and any crash abandons the whole batch mid-drain, delivering and
    // counting none of it; the batch goes to the failure handler before the
    // worker carries on. Co-batched items re-run at their unchanged
    // attempts — batch composition is interleaving-dependent, their
    // decisions must not be — and their throw decisions are not drawn
    // here, so a throw too is drawn once per attempt.
    long crashes = 0;
    for (StreamItem& item : batch)
      if (item_fires(*faults_, core::FaultSite::kWorkerCrash, item)) {
        item.attempt += 1;
        ++crashes;
      }
    if (crashes > 0) {
      failed.swap(batch);
      std::lock_guard<std::mutex> lock(stats_mutex_);
      stats_.worker_restarts += crashes;
      return true;
    }
    // Injected transient failures: not evaluated, cached, or counted here
    // — handed (attempt advanced) to the cluster for retry.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (item_fires(*faults_, core::FaultSite::kShardEvalThrow, batch[i])) {
        batch[i].attempt += 1;
        failed.push_back(std::move(batch[i]));
      } else {
        if (kept != i) batch[kept] = std::move(batch[i]);
        ++kept;
      }
    }
    batch.resize(kept);
  }

  evaluate_batch(batch, response_scratch_);
  const auto eval_done = std::chrono::steady_clock::now();
  const std::size_t n = batch.size();
  // One clock pair for the whole batch: stage histograms, the shed
  // estimator, and eval spans get the batch mean per item (they are
  // metrics, not wire bytes); the per-item wait/e2e intervals stay exact —
  // they derive from each item's own admission timestamp.
  const double per_item_us =
      n == 0 ? 0.0
             : std::chrono::duration<double, std::micro>(eval_done - pop_now).count() /
                   static_cast<double>(n);

  // Cache fill before delivery. The canonical key is rebuilt into a
  // worker-local buffer — cheaper than carrying a heap string through the
  // queue — and the cache copies its bytes into pre-allocated node
  // storage, so the whole fill is heap-silent. Everything evaluated here is
  // cache-safe (degraded responses never reach a shard): a pure function of
  // (request, pinned epoch), stamped with the item's ADMISSION epoch — a
  // concurrent refit's sweep clears it if the epoch moved on meanwhile.
  if (cache_ && cache_->enabled()) {
    static thread_local std::string key;
    for (std::size_t i = 0; i < n; ++i) {
      if (!batch[i].bundle) continue;
      canonical_request_key_into(batch[i].request, key);
      cache_->insert(static_cast<std::size_t>(batch[i].corpus_index),
                     batch[i].bundle->epoch, key, response_scratch_[i]);
    }
  }

  if (n > 0) {
    // Feed the live shed estimator: EWMA of measured microseconds per
    // request. Relaxed read-modify-write — a lost update skews an
    // estimate, never a response.
    const double old = service_estimate_us_.load(std::memory_order_relaxed);
    service_estimate_us_.store(0.8 * old + 0.2 * per_item_us, std::memory_order_relaxed);
  }

  const auto item_wait_us = [&pop_now](const StreamItem& item) {
    const double wait =
        std::chrono::duration<double, std::micro>(pop_now - item.enqueued).count();
    return wait < 0.0 ? 0.0 : wait;
  };

  // Account the batch BEFORE delivering: the final delivery may wake a
  // close()d session whose client immediately reads metrics(), and the
  // batch that carried its responses must already be counted. Every popped
  // item waited; only evaluated ones count as queries and service — the
  // transient failures in `failed` are the failover path's to account.
  double wait_us_sum = 0.0;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.queries += static_cast<long>(n);
    stats_.batches += 1;
    for (const std::vector<StreamItem>* items : {&batch, &failed}) {
      for (const StreamItem& item : *items) {
        const double wait_us = item_wait_us(item);
        wait_us_sum += wait_us;
        queue_wait_us_.record(wait_us);
      }
    }
    for (const StreamItem& item : batch) {
      service_us_.record(per_item_us);
      e2e_us_.record(
          std::chrono::duration<double, std::micro>(eval_done - item.enqueued).count());
    }
  }
  {
    // EWMA over measured queue wait: live admission adds this to its
    // backlog estimate so shedding reflects the stage the request is
    // actually about to pay, not an end-to-end guess.
    const double measured_wait_us = wait_us_sum / static_cast<double>(n + failed.size());
    const double old = queue_wait_estimate_us_.load(std::memory_order_relaxed);
    queue_wait_estimate_us_.store(0.8 * old + 0.2 * measured_wait_us,
                                  std::memory_order_relaxed);
  }

  // Trace spans are recorded BEFORE the corresponding session handoff: the
  // final delivery may wake a client that immediately exports the trace,
  // and a ring must never owe events for a request whose future has
  // already resolved. Eval spans slice the batch's one evaluation interval
  // in batch order; truncation keeps each inside [pop, eval_done].
  if (tracing) {
    for (const std::vector<StreamItem>* items : {&batch, &failed}) {
      for (const StreamItem& item : *items) {
        obs::TraceEvent queue_span =
            obs::request_event("queue", 'X', trace_->since_epoch_us(item.enqueued),
                               item.session->id(), item.slot);
        queue_span.dur_us = static_cast<std::int64_t>(item_wait_us(item));
        trace_->record(queue_span);
      }
    }
    const std::int64_t eval_begin_us = trace_->since_epoch_us(pop_now);
    for (std::size_t i = 0; i < n; ++i) {
      obs::TraceEvent eval_span = obs::request_event(
          "eval", 'X',
          eval_begin_us + static_cast<std::int64_t>(static_cast<double>(i) * per_item_us),
          batch[i].session->id(), batch[i].slot);
      eval_span.dur_us = static_cast<std::int64_t>(per_item_us);
      trace_->record(eval_span);
    }
    obs::TraceEvent drain_span{};
    drain_span.name = "batch-drain";
    drain_span.cat = "shard";
    drain_span.phase = 'X';
    drain_span.ts_us = eval_begin_us;
    drain_span.dur_us = trace_->now_us() - eval_begin_us;
    drain_span.values = 2;
    drain_span.v0 = static_cast<std::int64_t>(n + failed.size());
    drain_span.v1 = static_cast<std::int64_t>(n);
    trace_->record(drain_span);
  }

  // Delivery, grouped by session: a run of consecutive items from one
  // stream (the common shape — serve_batch is one stream) lands under a
  // single session lock. Slots address the writes, so grouping cannot
  // reorder anything. The slot arrays ride the group arena, still warm
  // from evaluation.
  for (std::size_t i = 0; i < n;) {
    SessionState* const session = batch[i].session.get();
    std::size_t j = i + 1;
    while (j < n && batch[j].session.get() == session) ++j;
    if (tracing) {
      for (std::size_t k = i; k < j; ++k)
        trace_->record(obs::request_event("deliver", 'i', trace_->now_us(),
                                          batch[k].session->id(), batch[k].slot));
    }
    if (j - i == 1) {
      session->deliver(batch[i].slot, std::move(response_scratch_[i]));
    } else {
      std::size_t* slots = group_arena_.alloc_array<std::size_t>(j - i);
      for (std::size_t k = i; k < j; ++k) slots[k - i] = batch[k].slot;
      session->deliver_run(slots, response_scratch_.data() + i, j - i);
    }
    i = j;
  }
  return true;
}

ShardStats Shard::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

void Shard::merge_stage_histograms(obs::LatencyHistogram& queue_wait,
                                   obs::LatencyHistogram& service,
                                   obs::LatencyHistogram& e2e) const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  queue_wait.merge(queue_wait_us_);
  service.merge(service_us_);
  e2e.merge(e2e_us_);
}

}  // namespace isr::cluster
