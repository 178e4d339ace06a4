#include "cluster/cluster.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <thread>
#include <utility>

#include "math/rng.hpp"

namespace isr::cluster {

namespace {

// The advisor's density->SPR factor for a spr_base left at its 0 sentinel
// (0.93 * vr_samples; 186 for the default 200-sample calibration): the SPR
// mapping must assume the sampling density the corpus was rendered at.
void derive_spr_base(serve::ServiceConfig& service) {
  if (service.constants.spr_base <= 0.0)
    service.constants.spr_base = 0.93 * service.calibration.vr_samples;
}

// The routing key: calibration fingerprint + the exact bit patterns of the
// mapping constants. Two corpora sharing a calibration but differing in
// constants (e.g. an explicit spr_base) predict differently, so they must
// route as distinct keys — while still sharing the calibration's single
// fit.
std::uint64_t corpus_key_for(const serve::ServiceConfig& service,
                             std::uint64_t fingerprint) {
  std::uint64_t key = hash_seed(fingerprint, std::uint64_t{0xC0B905ull});
  const auto mix_double = [&key](double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
    std::memcpy(&bits, &v, sizeof(bits));
    key = hash_combine(key, bits);
  };
  mix_double(service.constants.ap_fill);
  mix_double(service.constants.ppt);
  mix_double(service.constants.spr_base);
  return key;
}

// The shed refusal a client sees. Integer microseconds keep the message —
// and therefore the wire bytes — independent of floating-point formatting
// noise; the values themselves are deterministic in replay mode.
serve::AdvisorResponse shed_response(long estimated_us, long deadline_us) {
  serve::AdvisorResponse r;
  r.status = serve::AdvisorResponse::Status::kShed;
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "shed: estimated completion in %ld us exceeds deadline %ld us",
                estimated_us, deadline_us);
  r.error = buf;
  return r;
}

// An availability failure's explicit wire answer: not shed (the request
// was admitted), not a validation error — the cluster could not evaluate
// it within its fault-tolerance budget. Clients see "degraded":true and a
// "degraded: ..." reason; these responses are never cached (a cache hit
// must stay a pure function of the request, and availability is not).
serve::AdvisorResponse degraded_response(const std::string& why) {
  serve::AdvisorResponse r;
  r.status = serve::AdvisorResponse::Status::kDegraded;
  r.error = "degraded: " + why;
  return r;
}

// Where one request of an admitted run stands: answered in place (unknown
// corpus, failed fit, cache hit — its response is already collected), shed
// by the deadline check, or queued on `shard`. `corpus` is the resolved
// corpus index; the rest is fixed under the admission lock.
struct RunEntry {
  enum State : unsigned char { kAnswered, kResolved, kShed, kQueued };
  State state = kAnswered;
  int corpus = -1;
  std::size_t shard = 0;
  double start_us = 0.0;
  double done_us = 0.0;
  std::uint64_t admit_seq = 0;
};

// Per-thread admission scratch: every vector keeps its capacity across
// runs, so a warmed-up client thread admits without heap traffic beyond
// what the queue slots themselves recycle. Bundles and items are released
// at the end of every run, so the scratch never extends a bundle's or a
// session's lifetime.
struct AdmitScratch {
  std::vector<RunEntry> entries;
  std::vector<serve::BundlePtr> pinned;  // per corpus: the run's pinned bundle
  std::vector<int> residency;            // per corpus: -1 unchecked, 0 failed, 1 resident
  std::vector<long> corpus_counts;       // per corpus: requests this run
  std::string key;                       // the probed request's canonical cache key
  serve::AdvisorResponse hit;            // the probe's response on a hit
  std::vector<std::size_t> answer_slots;  // answered in place, delivered in one run
  std::vector<serve::AdvisorResponse> answers;
  std::vector<std::vector<StreamItem>> by_shard;
};

thread_local AdmitScratch admit_scratch;

}  // namespace

ServingCluster::ServingCluster(ClusterConfig config,
                               std::shared_ptr<serve::ModelRegistry> primary)
    : config_(std::move(config)),
      primary_(primary ? std::move(primary) : std::make_shared<serve::ModelRegistry>()),
      router_(config_.shards > 0 ? config_.shards : 1,
              RouterOptions{/*replicas=*/64, config_.imbalance_ratio,
                            /*decay_window=*/4096, /*min_hot_load=*/32.0}),
      faults_(config_.fault),
      epoch_(std::chrono::steady_clock::now()) {
  // Resolve the configured corpora up front: the default first (selector
  // ""), then each valid named corpus. Empty, "default", and duplicate
  // names are dropped — "" is reserved for the default corpus, "default"
  // is its metrics alias (a named reuse would emit colliding JSON keys),
  // and a duplicate would make resolution ambiguous (first writer wins).
  // Resolution fixes names, fingerprints, and keys only; the model bundles
  // arrive lazily, on first query.
  derive_spr_base(config_.service);
  auto default_corpus = std::make_unique<CorpusState>();
  default_corpus->service = config_.service;
  default_corpus->fingerprint =
      serve::ModelRegistry::fingerprint(config_.service.calibration);
  default_corpus->corpus_key =
      corpus_key_for(default_corpus->service, default_corpus->fingerprint);
  corpora_.push_back(std::move(default_corpus));
  for (const CorpusConfig& named : config_.corpora) {
    if (named.name.empty() || named.name == "default" || resolve_corpus(named.name) >= 0)
      continue;
    auto state = std::make_unique<CorpusState>();
    state->name = named.name;
    state->service = named.service;
    derive_spr_base(state->service);
    state->fingerprint = serve::ModelRegistry::fingerprint(state->service.calibration);
    state->corpus_key = corpus_key_for(state->service, state->fingerprint);
    corpora_.push_back(std::move(state));
  }
  corpus_queries_ = std::make_unique<std::atomic<long>[]>(corpora_.size());
  // The cache is hard-partitioned per configured corpus, so its shape
  // depends on the corpus count resolved above.
  cache_ = std::make_unique<ResponseCache>(config_.cache_entries, corpora_.size());

  const int n_shards = config_.shards > 0 ? config_.shards : 1;
  config_.shards = n_shards;
  if (config_.queue_capacity == 0) config_.queue_capacity = 1;
  if (config_.batch_size == 0) config_.batch_size = 1;
  if (config_.replay_service_us <= 0.0) config_.replay_service_us = 4.0;
  shards_.reserve(static_cast<std::size_t>(n_shards));
  for (int s = 0; s < n_shards; ++s)
    shards_.push_back(std::make_unique<Shard>(s, config_.queue_capacity,
                                              config_.batch_size,
                                              config_.replay_service_us));
  backlog_end_us_.assign(static_cast<std::size_t>(n_shards), 0.0);

  // Fault-tolerance knobs, sanitized to their invariants.
  if (config_.retry_limit < 0) config_.retry_limit = 0;
  if (config_.retry_backoff_us < 0) config_.retry_backoff_us = 0;
  if (config_.retry_backoff_max_us < config_.retry_backoff_us)
    config_.retry_backoff_max_us = config_.retry_backoff_us;
}

ServingCluster::~ServingCluster() {
  // Refit worker first: it touches corpora, the cache, and the primary
  // registry, all of which teardown is about to reclaim. Queued jobs are
  // drained (not dropped) so a shutdown race cannot silently eat a refit
  // a test already scheduled.
  {
    std::lock_guard<std::mutex> lock(refit_mutex_);
    refit_stop_ = true;
  }
  refit_cv_.notify_all();
  if (refit_worker_.joinable()) refit_worker_.join();
  // stop() closes each queue and joins its worker.
  for (const auto& shard : shards_) shard->stop();
}

int ServingCluster::resolve_corpus(const std::string& name) const {
  // Linear scan: resident corpora are few (one per served machine
  // configuration), and the scan avoids a map the metrics would then have
  // to keep ordered anyway.
  if (name.empty()) return corpora_.empty() ? -1 : 0;
  for (std::size_t c = 1; c < corpora_.size(); ++c)
    if (corpora_[c]->name == name) return static_cast<int>(c);
  return -1;
}

std::uint64_t ServingCluster::corpus_fingerprint(const std::string& name) const {
  const int idx = resolve_corpus(name);
  return idx < 0 ? 0 : corpora_[static_cast<std::size_t>(idx)]->fingerprint;
}

void ServingCluster::ensure_serving() {
  std::lock_guard<std::mutex> lock(serving_mutex_);
  if (serving_) return;
  // No fitting happens here anymore: residency is lazy, paid by the first
  // query naming each corpus (ensure_corpus_resident). Workers can start
  // immediately — every admitted item carries its own pinned bundle, so a
  // worker never needs model state the admission path did not resolve.
  // Each shard owns its worker; transient failures and crash-abandoned
  // batches flow back through redeliver() on that worker's thread.
  ResponseCache* cache = cache_->enabled() ? cache_.get() : nullptr;
  core::FaultInjector* faults = faults_.armed() ? &faults_ : nullptr;
  for (const auto& shard : shards_)
    shard->start(
        cache, faults,
        [this](std::vector<StreamItem>&& items, int from) {
          redeliver(std::move(items), from);
        },
        config_.trace);
  refit_stop_ = false;
  refit_worker_ = std::thread([this] { refit_loop(); });
  serving_ = true;
}

bool ServingCluster::ensure_corpus_resident(std::size_t idx) {
  CorpusState& corpus = *corpora_[idx];
  // Fast path: one relaxed-ish load on every admission. acquire pairs with
  // the release store below so a resident corpus's bundle is visible.
  int state = corpus.residency.load(std::memory_order_acquire);
  if (state == CorpusState::kResident) return true;
  if (state == CorpusState::kFitFailed) return false;
  std::lock_guard<std::mutex> lock(fit_mutex_);
  state = corpus.residency.load(std::memory_order_acquire);
  if (state != CorpusState::kEmpty) return state == CorpusState::kResident;
  // First touch: walk the same deterministic fit-failure retry ladder the
  // eager path used, keyed on (fingerprint, attempt) — pure hash
  // decisions, so lazy and eager runs fail the same corpora the same way.
  // The registry dedups by fingerprint, so a corpus sharing an
  // already-fitted calibration becomes resident without a second study.
  bool fitted = false;
  for (int attempt = 0; attempt <= config_.retry_limit && !fitted; ++attempt) {
    if (faults_.should_fire(core::FaultSite::kCorpusFitFail, corpus.fingerprint,
                            static_cast<std::uint64_t>(attempt)))
      continue;
    try {
      serve::BundlePtr bundle = primary_->bundle_for(corpus.service.calibration);
      std::atomic_store(&corpus.bundle, std::move(bundle));
      fitted = true;
    } catch (const std::exception&) {
      // Real fit failure: retry — transient by assumption until the
      // budget says otherwise.
    }
  }
  if (!fitted) {
    corpus.residency.store(CorpusState::kFitFailed, std::memory_order_release);
    return false;
  }
  lazy_fits_.fetch_add(1, std::memory_order_relaxed);
  corpus.residency.store(CorpusState::kResident, std::memory_order_release);
  return true;
}

StreamSession ServingCluster::open_stream() {
  ensure_serving();
  std::lock_guard<std::mutex> lock(admission_mutex_);
  auto state = std::make_shared<SessionState>(next_stream_id_++);
  ++streams_;
  return StreamSession(this, std::move(state));
}

void ServingCluster::admit(const std::shared_ptr<SessionState>& session, std::size_t first_slot,
                           std::vector<serve::AdvisorRequest>& run) {
  const std::size_t n = run.size();
  if (n == 0) return;
  // Record and replay keep one schedule record per submission. run_length()
  // makes their runs one request long, but a session that buffered submits
  // before enable_recording() or begin_replay() brings a longer run: admit
  // it one request at a time, so each submission is recorded (or waits for
  // its own record) as if it had been admitted at its submit.
  const bool replaying = replaying_.load(std::memory_order_relaxed);
  const bool recording = recording_.load(std::memory_order_relaxed);
  if (n > 1 && (replaying || recording)) {
    std::vector<serve::AdvisorRequest> one(1);
    for (std::size_t i = 0; i < n; ++i) {
      one[0] = std::move(run[i]);
      admit(session, first_slot + i, one);
    }
    return;
  }
  // All of the run's slots under one session lock, and one clock read for
  // the whole run: every request's latency clock starts here, and live
  // shed decisions all see this timestamp (a request with a deadline ends
  // its run, so its decision reads a fresh clock).
  session->allocate_run(first_slot, n);
  const auto enqueued = std::chrono::steady_clock::now();
  std::int64_t now_us =
      std::chrono::duration_cast<std::chrono::microseconds>(enqueued - epoch_).count();

  // Record and replay differ from live admission in exactly three ways,
  // marked (a)-(c) below; every run in these modes is one request long.
  // (a) They hold admission_mutex_ from the top, so the schedule captures
  //     (or pins) every submission, cache hits included. Replay blocks each
  //     submission until the schedule reaches its (stream, seq) — what pins
  //     the interleaving — and substitutes the recorded virtual timestamp.
  std::unique_lock<std::mutex> lock(admission_mutex_, std::defer_lock);
  if (replaying || recording) {
    lock.lock();
    if (replaying) {
      // begin_replay checked that each stream's seqs run 0, 1, 2, ... in
      // order, so (stream, seq) is scheduled iff seq < the stream's record
      // count. An unscheduled submission is answered now: waiting would
      // park it on a cursor that never reaches it.
      const auto scheduled = replay_len_.find(session->id());
      if (scheduled == replay_len_.end() || first_slot >= scheduled->second) {
        lock.unlock();
        serve::AdvisorResponse r;
        r.status = serve::AdvisorResponse::Status::kError;
        r.error = "replay: submission not in the recording";
        session->deliver(first_slot, std::move(r));
        return;
      }
      replay_cv_.wait(lock, [&] {
        return replay_[replay_cursor_].stream == session->id() &&
               replay_[replay_cursor_].seq == first_slot;
      });
      now_us = replay_[replay_cursor_++].t_us;
      skip_closed_replay_records();
      replay_cv_.notify_all();
    } else {
      // Re-read under the lock so recorded timestamps run in schedule order.
      now_us = std::chrono::duration_cast<std::chrono::microseconds>(
                   std::chrono::steady_clock::now() - epoch_)
                   .count();
      recorded_.push_back({session->id(), first_slot, now_us});
    }
  }

  // Tracing. A live-clock recorder stamps wall microseconds here and the
  // shard worker traces the queue/eval/deliver stages. Under a
  // virtual-clock recorder (replay) every event of the request's chain is
  // emitted HERE, from the schedule's virtual timestamps and the backlog
  // arithmetic, on a per-stream lane — a pure function of (schedule,
  // requests), so the exported trace is byte-identical across fresh
  // clusters (the workers stay silent). Every event keeps its per-request
  // meaning: a run emits one chain per request.
  obs::TraceRecorder* const tr = config_.trace;
  const bool tracing = tr && tr->enabled();
  const bool virt = tracing && tr->virtual_clock();
  const auto stamp = [&] { return virt ? now_us : tr->now_us(); };
  const auto event = [&](const char* name, const char* note, std::int64_t ts,
                         std::size_t slot) {
    obs::TraceEvent e = obs::request_event(name, 'i', ts, session->id(), slot, note);
    if (virt) e.tid = static_cast<std::uint32_t>(session->id() + 1);
    return e;
  };

  AdmitScratch& s = admit_scratch;
  const std::size_t n_corpora = corpora_.size();
  s.entries.assign(n, RunEntry{});
  s.pinned.resize(n_corpora);
  s.residency.assign(n_corpora, -1);
  s.corpus_counts.assign(n_corpora, 0);
  s.answer_slots.clear();
  s.answers.clear();
  // Answers a request at admission. Its terminal trace event is recorded
  // BEFORE the session handoff (as the shard worker does): once a
  // request's future resolves, its whole chain is in the rings, so an
  // exporter woken by the delivery never reads a half-written chain. The
  // handoff itself is one deliver_run for the whole run, below.
  const auto answer = [&](std::size_t i, serve::AdvisorResponse&& response,
                          const char* note) {
    if (tracing && note) tr->record(event("deliver", note, stamp(), first_slot + i));
    s.answer_slots.push_back(first_slot + i);
    s.answers.push_back(std::move(response));
  };

  // Resolution, lazy residency and pinning. corpora_ is immutable after
  // construction, so resolution needs no lock. The first query naming a
  // corpus pays its fit here (one-time, serialized under fit_mutex_; under
  // record/replay it lands at a deterministic point in the admission
  // order). Each corpus's CURRENT bundle is pinned once per run — from
  // here on the run's requests are bound to that epoch, whatever a
  // concurrent refit does.
  queries_.fetch_add(static_cast<long>(n), std::memory_order_relaxed);
  long unknown = 0;
  long degraded = 0;
  const std::int64_t admit_us = virt ? now_us : tracing ? tr->since_epoch_us(enqueued) : 0;
  for (std::size_t i = 0; i < n; ++i) {
    const serve::AdvisorRequest& request = run[i];
    // The admit instant reuses the run's enqueue timestamp so it can never
    // postdate the queue span the worker will stamp from the same clock.
    if (tracing) tr->record(event("admit", nullptr, admit_us, first_slot + i));
    const int c = resolve_corpus(request.corpus);
    if (c < 0) {
      ++unknown;
      serve::AdvisorResponse r;
      r.status = serve::AdvisorResponse::Status::kError;
      r.error =
          "unknown corpus \"" + request.corpus + "\" (not resident on this cluster)";
      answer(i, std::move(r), "unknown-corpus");
      continue;
    }
    const auto ci = static_cast<std::size_t>(c);
    ++s.corpus_counts[ci];
    if (s.residency[ci] < 0) {
      s.residency[ci] = ensure_corpus_resident(ci) ? 1 : 0;
      if (s.residency[ci] == 1) s.pinned[ci] = std::atomic_load(&corpora_[ci]->bundle);
    }
    if (s.residency[ci] == 0) {
      ++degraded;
      const CorpusState& corpus = *corpora_[ci];
      answer(i,
             degraded_response("corpus \"" +
                               (corpus.name.empty() ? std::string("default") : corpus.name) +
                               "\" unavailable: calibration fit failed"),
             "degraded");
      continue;
    }
    s.entries[i].state = RunEntry::kResolved;
    s.entries[i].corpus = c;
  }
  if (unknown > 0) unknown_corpus_queries_.fetch_add(unknown, std::memory_order_relaxed);
  if (degraded > 0) degraded_queries_.fetch_add(degraded, std::memory_order_relaxed);
  for (std::size_t c = 0; c < n_corpora; ++c)
    if (s.corpus_counts[c] > 0)
      corpus_queries_[c].fetch_add(s.corpus_counts[c], std::memory_order_relaxed);

  // Cache before routing and before the deadline check: a hit costs no
  // queue time, so shedding it would refuse work the cluster can do for
  // free — and the canonical key excludes deadline/priority, so a hurried
  // request hits entries its relaxed twin populated. Each probe is scoped
  // to its corpus's partition and the PINNED epoch, so a hit is exactly the
  // bytes this epoch's evaluation would produce. The cache is internally
  // lock-sharded, and a miss that matches no slot's tag takes no lock;
  // probing it needs no admission lock. The run's probes are counted once,
  // after the loop and before any answer is delivered. The probe spans are
  // wall-clocked, so a virtual trace leaves them out.
  if (cache_->enabled()) {
    const bool probe_span = tracing && !virt;
    long probes = 0;
    long hits = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (s.entries[i].state != RunEntry::kResolved) continue;
      const auto ci = static_cast<std::size_t>(s.entries[i].corpus);
      canonical_request_key_into(run[i], s.key);
      const std::int64_t probe_begin_us = probe_span ? tr->now_us() : 0;
      const bool hit = cache_->probe(ci, s.pinned[ci]->epoch, s.key, s.hit);
      ++probes;
      if (probe_span) {
        obs::TraceEvent probe = event("cache-probe", nullptr, probe_begin_us, first_slot + i);
        probe.phase = 'X';
        probe.dur_us = tr->now_us() - probe_begin_us;
        probe.values = 1;
        probe.v0 = hit ? 1 : 0;
        tr->record(probe);
      }
      if (hit) {
        ++hits;
        s.entries[i].state = RunEntry::kAnswered;
        answer(i, std::move(s.hit), "cache-hit");
      }
    }
    if (probes > 0) cache_->count(probes, hits);
  }

  // The order-dependent section, once per run under admission_mutex_:
  // routing (the router's decaying load counters), shed accounting against
  // the per-shard virtual backlog, and the admission sequence. A run
  // answered entirely in place (all hits, say) never takes the lock.
  long shed = 0;
  bool any_queued = false;
  for (std::size_t i = 0; i < n; ++i) {
    RunEntry& entry = s.entries[i];
    if (entry.state != RunEntry::kResolved) continue;
    if (!lock.owns_lock()) lock.lock();
    const serve::AdvisorRequest& request = run[i];
    const CorpusState& corpus = *corpora_[static_cast<std::size_t>(entry.corpus)];
    const auto shard_idx =
        static_cast<std::size_t>(router_.route(corpus.corpus_key, request.arch));
    // Deadline-aware admission control, the Horvitz & Lengyel budget
    // framing applied to queueing: each shard's backlog_end is the virtual
    // time its queue drains at; if this request would complete past its
    // deadline, refuse it NOW with an explicit shed response instead of
    // letting it rot in the queue. Admitted work advances the backlog.
    // Live admission (and recording) charges the shard's measured service
    // EWMA from an earliest start no sooner than its MEASURED queue wait
    // (the stage histogram's EWMA). (b) Replay charges the fixed
    // replay_service_us with no measured-wait term, so shedding stays a
    // pure function of (schedule, requests).
    const Shard& shard = *shards_[shard_idx];
    const double service_us =
        replaying ? config_.replay_service_us : shard.service_estimate_us();
    const double wait_us = replaying ? 0.0 : shard.queue_wait_estimate_us();
    double& backlog = backlog_end_us_[shard_idx];
    entry.start_us = std::max(backlog, static_cast<double>(now_us) + wait_us);
    entry.done_us = entry.start_us + service_us;
    if (request.deadline_us > 0 && entry.done_us - static_cast<double>(now_us) >
                                       static_cast<double>(request.deadline_us)) {
      entry.state = RunEntry::kShed;
      ++shed;
      continue;
    }
    backlog = entry.done_us;
    entry.state = RunEntry::kQueued;
    entry.shard = shard_idx;
    entry.admit_seq = admit_seq_++;
    any_queued = true;
  }
  if (lock.owns_lock()) lock.unlock();
  if (shed > 0) shed_queries_.fetch_add(shed, std::memory_order_relaxed);

  // Outside the lock: shed answers, the admitted requests' trace
  // annotations, and the queue items, grouped per shard in run order.
  if (s.by_shard.size() < shards_.size()) s.by_shard.resize(shards_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const RunEntry& entry = s.entries[i];
    const std::size_t slot = first_slot + i;
    serve::AdvisorRequest& request = run[i];
    if (entry.state == RunEntry::kShed) {
      const long estimated_us = static_cast<long>(entry.done_us) - now_us;
      if (tracing) {
        obs::TraceEvent shed_event = event("shed", "deadline", stamp(), slot);
        shed_event.values = 2;
        shed_event.v0 = static_cast<std::int64_t>(entry.done_us) - now_us;
        shed_event.v1 = request.deadline_us;
        tr->record(shed_event);
      }
      answer(i, shed_response(estimated_us, request.deadline_us), nullptr);
      continue;
    }
    if (entry.state != RunEntry::kQueued) continue;
    if (virt) {
      // (c) The admitted request's remaining virtual chain: it waits in the
      // queue until the shard's virtual backlog reaches it, evaluates for
      // the fixed replay service cost, and delivers at its virtual
      // completion. Truncation is monotone (floor(a) <= floor(b) for
      // a <= b), so the spans can never disorder.
      const auto e_start = static_cast<std::int64_t>(entry.start_us);
      const auto e_end = static_cast<std::int64_t>(entry.done_us);
      obs::TraceEvent span = event("queue", nullptr, now_us, slot);
      span.phase = 'X';
      span.dur_us = e_start - now_us;
      tr->record(span);
      span.name = "eval";
      span.ts_us = e_start;
      span.dur_us = e_end - e_start;
      tr->record(span);
      tr->record(event("deliver", nullptr, e_end, slot));
    }
    const auto ci = static_cast<std::size_t>(entry.corpus);
    StreamItem& item = s.by_shard[entry.shard].emplace_back();
    item.priority = std::max(0, std::min(7, request.priority));
    if (request.deadline_us > 0) item.deadline_at_us = now_us + request.deadline_us;
    item.request = std::move(request);
    item.corpus_key = corpora_[ci]->corpus_key;
    item.bundle = s.pinned[ci];
    item.constants = &corpora_[ci]->service.constants;
    item.corpus_index = entry.corpus;
    item.session = session;
    item.slot = slot;
    item.admit_seq = entry.admit_seq;
    item.enqueued = enqueued;
  }
  std::fill(s.pinned.begin(), s.pinned.end(), nullptr);
  if (!s.answers.empty())
    session->deliver_run(s.answer_slots.data(), s.answers.data(), s.answers.size());
  if (!any_queued) return;

  // One blocking push_run per shard OUTSIDE the admission lock:
  // backpressure from a full queue stalls this admitter only. Everything
  // order-dependent (shed accounting, admit_seq) is already fixed, and the
  // ordered queue serves by key, so arrival order cannot change results.
  // A short push means shutdown raced this admission — the queue will
  // never drain the rest, so answer them here or close() would hang on the
  // owed slots (a virtual chain already holds its terminal event).
  for (std::size_t sh = 0; sh < shards_.size(); ++sh) {
    std::vector<StreamItem>& items = s.by_shard[sh];
    if (items.empty()) continue;
    const std::size_t pushed = shards_[sh]->enqueue_run(items.data(), items.size());
    for (std::size_t k = pushed; k < items.size(); ++k) {
      degraded_queries_.fetch_add(1, std::memory_order_relaxed);
      if (tracing && !virt) tr->record(event("deliver", "degraded", tr->now_us(), items[k].slot));
      session->deliver(items[k].slot, degraded_response("cluster shut down before evaluation"));
    }
    items.clear();
  }
}

void ServingCluster::end_stream(std::uint64_t stream) {
  if (!replaying_.load(std::memory_order_relaxed)) return;
  std::lock_guard<std::mutex> lock(admission_mutex_);
  replay_len_.erase(stream);
  skip_closed_replay_records();
  replay_cv_.notify_all();
}

void ServingCluster::skip_closed_replay_records() {
  while (replay_cursor_ < replay_.size() &&
         replay_len_.count(replay_[replay_cursor_].stream) == 0)
    ++replay_cursor_;
}

void ServingCluster::redeliver(std::vector<StreamItem>&& items, int from_shard) {
  if (items.empty()) return;
  const bool replaying = replaying_.load(std::memory_order_relaxed);
  // Retry/failover annotations are live-trace only: under a virtual clock
  // the admission path already emitted each request's deterministic chain,
  // and wall-clocked retry instants would break its byte reproducibility.
  obs::TraceRecorder* const tr = config_.trace;
  const bool tracing = tr && tr->enabled() && !tr->virtual_clock();
  const auto trace_instant = [&](const StreamItem& item, const char* name,
                                 const char* note) {
    tr->record(obs::request_event(name, 'i', tr->now_us(), item.session->id(), item.slot, note));
  };
  const auto degrade = [&](StreamItem& item, const char* note, const std::string& why) {
    degraded_queries_.fetch_add(1, std::memory_order_relaxed);
    if (tracing) trace_instant(item, "deliver", note);
    item.session->deliver(item.slot, degraded_response(why));
  };
  // First pass: degrade what cannot be re-driven and find the largest
  // backoff among the rest. The re-driven items then wait it out once,
  // together, so a crash-abandoned batch of k items holds this shard's
  // drain for one backoff, not k in turn.
  std::vector<StreamItem*> redrive;
  redrive.reserve(items.size());
  long backoff_us = 0;
  for (StreamItem& item : items) {
    // Retry budget first: an item that already triggered retry_limit + 1
    // faults degrades with a deterministic message (a pure function of the
    // config, so fixed-seed runs reproduce it byte for byte).
    if (item.attempt > config_.retry_limit) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "retry budget exhausted after %d attempts",
                    config_.retry_limit + 1);
      degrade(item, "degraded", buf);
      continue;
    }
    // Per-request timeout: a re-driven item whose absolute deadline already
    // passed degrades now rather than queueing again. Live mode only — the
    // wall clock is not part of a replayed schedule, and replay's
    // byte-identity contract outranks timeliness.
    if (!replaying &&
        item.deadline_at_us != std::numeric_limits<std::int64_t>::max()) {
      const std::int64_t now_us =
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - epoch_)
              .count();
      if (now_us > item.deadline_at_us) {
        timeouts_.fetch_add(1, std::memory_order_relaxed);
        degrade(item, "timeout", "deadline exceeded during retry");
        continue;
      }
    }
    // Bounded exponential backoff before the re-drive: attempt k waits
    // min(base << (k-1), max). The shift is clamped so a pathological
    // retry_limit cannot overflow.
    if (item.attempt > 0 && config_.retry_backoff_us > 0) {
      const int shift = item.attempt - 1 < 16 ? item.attempt - 1 : 16;
      backoff_us = std::max(backoff_us, std::min(config_.retry_backoff_us << shift,
                                                 config_.retry_backoff_max_us));
    }
    redrive.push_back(&item);
  }
  if (backoff_us > 0) std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));

  for (StreamItem* next : redrive) {
    StreamItem& item = *next;
    retries_.fetch_add(1, std::memory_order_relaxed);
    if (tracing) trace_instant(item, "retry", nullptr);
    // Re-drive target: the first shard other than the one that failed the
    // item, walking the key's deterministic rendezvous order — the same
    // permutation hot-key splitting uses, so a key's retry placement is as
    // stable as its routing — or, with no sibling, the failing shard's own
    // queue. Its drain takes the item's next fault decision like any other:
    // the decision is a pure function of (stream, seq, attempt), so WHO
    // re-tries an item never changes the bytes.
    int target = from_shard;
    for (const int s : router_.rendezvous_order(item.corpus_key, item.request.arch)) {
      if (s != from_shard) {
        target = s;
        break;
      }
    }
    // Counted and traced before the handoff: once the target queue holds
    // the item it may deliver at any moment, and neither a client reading
    // metrics after close() nor the trace's chain may then still owe the
    // failover.
    if (target != from_shard) {
      failovers_.fetch_add(1, std::memory_order_relaxed);
      if (tracing) {
        obs::TraceEvent e =
            obs::request_event("failover", 'i', tr->now_us(), item.session->id(), item.slot);
        e.values = 1;
        e.v0 = target;
        tr->record(e);
      }
    }
    // Only shutdown refuses a re-drive, leaving the item untouched.
    if (!shards_[static_cast<std::size_t>(target)]->redrive(std::move(item)))
      degrade(item, "degraded", "cluster shut down before evaluation");
  }
}

void ServingCluster::refit_loop() {
  for (;;) {
    RefitJob job;
    {
      std::unique_lock<std::mutex> lock(refit_mutex_);
      refit_cv_.wait(lock, [this] { return refit_stop_ || !refit_queue_.empty(); });
      // Stop drains the queue first: a refit a test scheduled before
      // shutdown still completes, making "schedule then destroy"
      // deterministic.
      if (refit_queue_.empty()) return;
      job = refit_queue_.front();
      refit_queue_.pop_front();
      refit_busy_ = true;
    }
    run_refit(job);
    {
      std::lock_guard<std::mutex> lock(refit_mutex_);
      refit_busy_ = false;
    }
    refit_idle_cv_.notify_all();
  }
}

void ServingCluster::run_refit(const RefitJob& job) {
  CorpusState& corpus = *corpora_[job.corpus];
  if (corpus.residency.load(std::memory_order_acquire) != CorpusState::kResident)
    return;  // raced a fit failure; nothing to refit
  const serve::BundlePtr before = std::atomic_load(&corpus.bundle);
  if (!before) return;
  if (job.drift) {
    // The drift study: one reduced calibration pass whose seed is a pure
    // function of (calibration seed, the epoch being superseded) — so a
    // fixed recalibration schedule appends identical observations in every
    // run, and the refit below is bit-reproducible. run_study spreads the
    // renders over the existing core::ThreadPool.
    model::StudyConfig drift = corpus.service.calibration;
    drift.seed = hash_seed(hash_seed(drift.seed, before->epoch),
                           std::uint64_t{0xD21F7ull});
    drift.samples_per_config = 1;
    try {
      primary_->append_observations(corpus.fingerprint, model::run_study(drift));
    } catch (const std::exception&) {
      return;  // a drift study that cannot run leaves the epoch unchanged
    }
  }
  const serve::BundlePtr fresh = primary_->refit(corpus.fingerprint);
  if (!fresh) return;
  // Swap the fresh epoch into EVERY resident corpus sharing the
  // fingerprint (they share the one fit, so they advance together), then
  // sweep exactly those corpora's cache partitions of pre-swap entries.
  // In-flight items keep their pinned `before` bundle; new admissions pin
  // `fresh`.
  for (std::size_t c = 0; c < corpora_.size(); ++c) {
    CorpusState& other = *corpora_[c];
    if (other.fingerprint != corpus.fingerprint) continue;
    if (other.residency.load(std::memory_order_acquire) != CorpusState::kResident)
      continue;
    std::atomic_store(&other.bundle, fresh);
    if (cache_->enabled())
      epoch_invalidations_.fetch_add(
          static_cast<long>(cache_->invalidate_stale(c, fresh->epoch)),
          std::memory_order_relaxed);
  }
  // Scope annotation (live traces only — a wall-clocked swap instant would
  // break a virtual trace's reproducibility): which corpus swapped, to
  // what epoch.
  obs::TraceRecorder* const tr = config_.trace;
  if (tr && tr->enabled() && !tr->virtual_clock()) {
    obs::TraceEvent e{};
    e.name = "refit-swap";
    e.cat = "cluster";
    e.phase = 'i';
    e.ts_us = tr->now_us();
    e.stream = corpus.fingerprint;
    e.values = 1;
    e.v0 = static_cast<std::int64_t>(fresh->epoch);
    tr->record(e);
  }
}

bool ServingCluster::append_observations(const std::string& name,
                                         std::vector<model::Observation> observations) {
  const int idx = resolve_corpus(name);
  if (idx < 0) return false;
  if (!ensure_corpus_resident(static_cast<std::size_t>(idx))) return false;
  return primary_->append_observations(
      corpora_[static_cast<std::size_t>(idx)]->fingerprint, std::move(observations));
}

std::uint64_t ServingCluster::refit(const std::string& name) {
  return schedule_refit(name, /*drift=*/false);
}

std::uint64_t ServingCluster::recalibrate(const std::string& name) {
  return schedule_refit(name, /*drift=*/true);
}

std::uint64_t ServingCluster::schedule_refit(const std::string& name, bool drift) {
  const int idx = resolve_corpus(name);
  if (idx < 0) return 0;
  ensure_serving();  // the refit worker must exist to drain the queue
  if (!ensure_corpus_resident(static_cast<std::size_t>(idx))) return 0;
  const serve::BundlePtr current =
      std::atomic_load(&corpora_[static_cast<std::size_t>(idx)]->bundle);
  {
    std::lock_guard<std::mutex> lock(refit_mutex_);
    refit_queue_.push_back({static_cast<std::size_t>(idx), drift});
  }
  refit_cv_.notify_one();
  return current->epoch + 1;
}

void ServingCluster::wait_refits() {
  std::unique_lock<std::mutex> lock(refit_mutex_);
  refit_idle_cv_.wait(lock, [this] { return refit_queue_.empty() && !refit_busy_; });
}

std::uint64_t ServingCluster::bundle_epoch(const std::string& name) const {
  const int idx = resolve_corpus(name);
  if (idx < 0) return 0;
  const serve::BundlePtr bundle =
      std::atomic_load(&corpora_[static_cast<std::size_t>(idx)]->bundle);
  return bundle ? bundle->epoch : 0;
}

std::uint64_t StreamSession::submit(const serve::AdvisorRequest& request) {
  if (!state_) throw std::logic_error("StreamSession: submit on a closed session");
  const std::uint64_t seq = submitted_++;
  pending_.push_back(request);
  // A deadline ends the run, so its shed decision reads a fresh clock.
  if (pending_.size() >= cluster_->run_length() || request.deadline_us > 0) admit_pending();
  return seq;
}

void StreamSession::admit_pending() {
  if (pending_.empty()) return;
  cluster_->admit(state_, static_cast<std::size_t>(submitted_ - pending_.size()), pending_);
  pending_.clear();
}

std::vector<serve::AdvisorResponse> StreamSession::close() {
  if (!state_) return {};
  admit_pending();
  // Retire the stream (releasing replay siblings parked behind its unused
  // records), then wait out every owed slot: the shard drains are
  // work-conserving, so the in-flight tail is already on its way. The
  // state_ reset is what marks the handle spent; in-flight items (there
  // are none by now) share ownership.
  cluster_->end_stream(state_->id());
  std::vector<serve::AdvisorResponse> responses = state_->wait_drained();
  state_.reset();
  cluster_ = nullptr;
  return responses;
}

std::vector<serve::AdvisorResponse> ServingCluster::serve_batch(
    const std::vector<serve::AdvisorRequest>& requests) {
  // A batch of zero answerable requests (e.g. every line of a JSONL batch
  // failed to parse) must not pay for a calibration fit.
  if (requests.empty()) return {};
  StreamSession session = open_stream();
  for (const serve::AdvisorRequest& request : requests) session.submit(request);
  return session.close();
}

void ServingCluster::enable_recording() {
  std::lock_guard<std::mutex> lock(admission_mutex_);
  recording_ = true;
}

AdmissionSchedule ServingCluster::take_recording() {
  std::lock_guard<std::mutex> lock(admission_mutex_);
  AdmissionSchedule out = std::move(recorded_);
  recorded_.clear();
  return out;
}

void ServingCluster::begin_replay(AdmissionSchedule schedule) {
  std::string error;
  if (!check_schedule(schedule, error)) throw std::invalid_argument("replay: " + error);
  std::lock_guard<std::mutex> lock(admission_mutex_);
  replay_len_.clear();
  for (const AdmissionRecord& record : schedule) ++replay_len_[record.stream];
  replay_ = std::move(schedule);
  replay_cursor_ = 0;
  replaying_ = true;
  // Replay's virtual clock restarts with the schedule; so must the shed
  // accounting that consumes it.
  std::fill(backlog_end_us_.begin(), backlog_end_us_.end(), 0.0);
}

ClusterMetrics ServingCluster::metrics() const {
  ClusterMetrics m;
  m.shards = static_cast<int>(shards_.size());
  m.shard_queries.reserve(shards_.size());
  for (const auto& shard : shards_) {
    const ShardStats s = shard->stats();
    m.shard_queries.push_back(s.queries);
    m.batches += s.batches;
    m.eval_exceptions += s.eval_exceptions;
    m.worker_restarts += s.worker_restarts;
    if (shard->max_queue_depth() > m.max_queue_depth)
      m.max_queue_depth = shard->max_queue_depth();
  }
  m.failovers = failovers_.load(std::memory_order_relaxed);
  m.retries = retries_.load(std::memory_order_relaxed);
  m.timeouts = timeouts_.load(std::memory_order_relaxed);
  m.degraded_queries = degraded_queries_.load(std::memory_order_relaxed);
  m.faults_injected = faults_.total_fired();
  m.rebalanced_queries = router_.rebalanced();
  m.cache_lookups = cache_->lookups();
  m.cache_hits = cache_->hits();
  m.cache_hit_rate =
      m.cache_lookups > 0
          ? static_cast<double>(m.cache_hits) / static_cast<double>(m.cache_lookups)
          : 0.0;
  // The admission counters are atomics (live admission bumps them
  // outside any lock); only the router's hot-key scan needs the admission
  // lock, because route() mutates the load counters under it.
  m.queries = queries_.load(std::memory_order_relaxed);
  m.corpus_queries.reserve(corpora_.size());
  m.bundle_epoch.reserve(corpora_.size());
  for (std::size_t c = 0; c < corpora_.size(); ++c) {
    m.corpus_queries.emplace_back(corpora_[c]->name,
                                  corpus_queries_[c].load(std::memory_order_relaxed));
    const serve::BundlePtr bundle = std::atomic_load(&corpora_[c]->bundle);
    m.bundle_epoch.emplace_back(corpora_[c]->name, bundle ? bundle->epoch : 0);
  }
  m.unknown_corpus_queries = unknown_corpus_queries_.load(std::memory_order_relaxed);
  m.refits = primary_->refits();
  m.lazy_fits = lazy_fits_.load(std::memory_order_relaxed);
  m.epoch_invalidations = epoch_invalidations_.load(std::memory_order_relaxed);
  m.streams = streams_.load(std::memory_order_relaxed);
  m.shed_queries = shed_queries_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(admission_mutex_);
    m.hot_keys = router_.hot_keys();
  }
  // Per-stage histograms: merge each shard's cumulative roll-up (bounded
  // memory, O(1) per merge — this replaced the old sample reservoir). The
  // legacy ms percentiles are views of the e2e histogram.
  for (const auto& shard : shards_)
    shard->merge_stage_histograms(m.queue_wait, m.service, m.e2e);
  m.p50_latency_ms = m.e2e.percentile_us(50.0) / 1000.0;
  m.p99_latency_ms = m.e2e.percentile_us(99.0) / 1000.0;
  return m;
}

int ServingCluster::registry_fits() const {
  // Shards hold no registries anymore; the primary is the only fitter.
  return primary_->fits();
}

}  // namespace isr::cluster
