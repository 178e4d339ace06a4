// The sharded serving cluster (layer 5) and the one serving entry point:
// it drives src/serve/'s evaluator (answer_batch) as a simulated
// multi-shard, multi-corpus cluster on one machine — the ROADMAP's
// "sharding/replication ... on the road to heavy-traffic serving" and
// "continuous async serving front-end" items made concrete. The paper's
// feasibility model is only meaningful per calibration corpus (one
// machine/configuration fit, Tables 12-17); a production advisor serves
// many machines at once, so the cluster holds several corpora resident and
// requests carry a `corpus` selector.
//
// Serving is a continuous admission pipeline, not a one-shot batch call:
// any number of clients hold StreamSession handles and submit concurrently.
// A session buffers its submissions and admits them in RUNS (batch_size
// requests, cut short by a request with a deadline or by close(); one
// request under record/replay), each request of a run flowing
//
//   submit ──corpus selector──> resident corpus (unknown name: in-slot
//                  │             error response, no routing)
//                  ├──canonical key──> ResponseCache ──hit──────────> slot
//                  │ miss
//                  ├─> Router (consistent hash of (corpus fingerprint,
//                  │   arch); hot keys split across rendezvous sub-keys)
//                  ├─> deadline check against the shard's virtual backlog
//                  │   ──would miss──> explicit shed response ──────> slot
//                  └─> the shard's bounded ordered queue (strict priority,
//                      EDF within a class) ─> the shard's dedicated worker
//                      thread pops whatever is queued, up to batch_size ─>
//                      serve::answer_batch against each item's pinned
//                      corpus bundle ─> slot (+ cache insert)
//
// serve_batch is the batch convenience over that pipeline: it opens a
// session, submits the batch, and closes — so a whole-batch caller (the
// one-shot CLI, the benches) rides the same admission path as a streaming
// client, and overlapping serve_batch calls genuinely overlap.
//
// Determinism contract (the cluster's load-bearing promise, enforced by
// test_cluster, test_stream, test_fault, test_recal and test_obs): a response
// is a pure function of (request, fitted models, mapping constants), so
// WHAT a request answers is identical — byte-identical through
// serve::to_jsonl — for any shard count, thread count, stream count,
// cache state, resident-corpus count, and imbalance ratio. Shed
// decisions are the one interleaving-dependent output; they become
// deterministic in REPLAY mode, where a recorded admission schedule
// (stream id, seq, virtual timestamp) pins the interleaving and the
// virtual clock, making shedding a pure function of (schedule, requests).
// Live mode instead reads the wall clock and a measured service-time
// EWMA — fast, but not replayable without a recording.
//
// Replication and residency: the cluster fits each calibration corpus
// LAZILY — on the first query that names it, not at boot — and exactly
// once per distinct fingerprint (on the primary registry, which callers
// may share across clusters); registry_fits() == distinct QUERIED
// fingerprints at any shard count. Shards hold no model state: admission
// pins the resolved corpus's current bundle (a shared_ptr) plus its
// mapping constants into every StreamItem, so any shard can evaluate any
// item and placement never changes bytes.
//
// Live recalibration (PR 8): bundles are epoch-versioned (registry.hpp).
// append_observations() queues drift measurements against a resident
// corpus; recalibrate()/refit() schedule a background refit job on the
// cluster's refit worker (the observation study inside it runs on the
// existing core::ThreadPool), which fits a fresh bundle at epoch + 1 and
// atomically swaps it into every corpus sharing the fingerprint
// (std::atomic_store on the shared_ptr — no torn reads under TSan), then
// sweeps exactly those corpora's response-cache partitions of pre-swap
// entries. In-flight requests finish on the epoch they were admitted
// under (their pinned bundle), so for a FIXED epoch schedule responses
// remain byte-identical at any shard/thread/cache configuration;
// wait_refits() is the barrier that fixes the schedule.
//
// Fault tolerance (PR 7): shard workers are supervised — evaluation
// exceptions become in-slot error responses, a heartbeat watchdog restarts
// crashed workers and re-drives the batch they held, and transient
// failures retry with bounded exponential backoff through the queue of the
// next live shard in the key's rendezvous order (the failing shard's own
// queue when it has no live sibling — the shard drain is the one place a
// queued request is evaluated), degrading explicitly ("degraded":true on the wire) once the retry budget
// or the request deadline is spent. Every fault is deterministic: the
// core::FaultInjector keys each decision on (stream id, per-stream seq,
// attempt), so a fixed ISR_FAULT_SEED reproduces the same failures — and
// the same degraded bytes under --replay — at any thread count, while a
// disarmed injector (the default) leaves every fault branch dead and the
// byte-identity contract above untouched.
//
// Locking, in admission order. Each lock is taken once per admitted run
// (once per probed request, for the cache's ways), and no path holds two
// of these at once except record/replay, which probes the cache under
// admission_mutex_ (admission -> way, never the reverse):
//   the session's mutex — allocate_run reserves the run's response slots;
//     deliver/deliver_run fill them (one deliver_run for everything a run
//     answers in place).
//   the cache's way mutexes — each resolved request's probe locks its
//     way, with no admission lock held.
//   admission_mutex_ — the order-dependent heart: routing (the router's
//     decaying load counters), shed accounting against the per-shard
//     virtual backlog, and the admission sequence, for the whole run in
//     one hold. Request copies, the canonical cache keys, corpus
//     resolution (immutable after construction), bundle pinning, the
//     cache probe, and the admission counters (atomics) all happen
//     outside, which is what lets N concurrent producers outrun one.
//     Under record/replay the same admit() takes it from the top instead,
//     so the schedule captures (or pins) every submission, cache hits
//     included.
//   per-shard queue + stats locks — one bounded blocking push_run per
//     shard happens OUTSIDE admission_mutex_ (a full queue must not stall
//     other admitters or a replay waiter; the admission-order guarantees
//     are already fixed by then). The per-shard stats lock also guards
//     the cumulative stage histograms metrics() merges — bounded memory,
//     no reservoir, no cluster-level metrics lock anymore.
//
// Observability (PR 9): config.trace (nullable) wires an obs::TraceRecorder
// through admission and the shard workers. Live runs stamp wall
// microseconds; under --replay the admission path emits each request's
// whole span chain from the schedule's virtual clock (workers stay silent),
// so a replayed trace is byte-identical across fresh clusters. Tracing
// never changes response bytes — every hook is behind a null/enabled check.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/fault.hpp"

#include "cluster/cache.hpp"
#include "cluster/metrics.hpp"
#include "cluster/router.hpp"
#include "cluster/shard.hpp"
#include "cluster/stream.hpp"
#include "serve/advisor.hpp"
#include "serve/registry.hpp"

namespace isr::cluster {

class StreamSession;

// One additional resident calibration corpus: the selector requests name
// in their `corpus` field, plus the corpus's own calibration + constants.
struct CorpusConfig {
  // Non-empty and not "default": "" always selects the default corpus, and
  // "default" is how the metrics report it (a named corpus reusing it
  // would emit colliding JSON keys). Violating entries are dropped.
  std::string name;
  serve::ServiceConfig service;
};

struct ClusterConfig {
  // The DEFAULT calibration corpus + mapping constants (the cluster's
  // evaluation parallelism is one worker per shard). Requests with an
  // empty `corpus` selector resolve here.
  serve::ServiceConfig service;

  // Additional named corpora resident alongside the default. Entries with
  // an empty, "default", or duplicate name are ignored (first writer
  // wins); corpora may share a calibration fingerprint (they then share
  // the one fit, and may still differ in mapping constants — replicas are
  // keyed by calibration AND constants).
  std::vector<CorpusConfig> corpora;

  int shards = 1;                    // serving shards (>= 1), one worker thread each
  std::size_t cache_entries = 1024;  // total ResponseCache entries; 0 = off

  std::size_t queue_capacity = 1024;  // per-shard admission queue bound
  std::size_t batch_size = 64;        // admission run length and largest drained batch

  // Hot-key rebalancing (see cluster/router.hpp): when one (corpus, arch)
  // key's decaying load exceeds imbalance_ratio times a shard's fair
  // share, it is split across the shards in the key's rendezvous order.
  // imbalance_ratio <= 0 pins every key to its home shard, the
  // pre-rebalancing behavior.
  double imbalance_ratio = 1.25;

  // Shed accounting's per-request service cost in microseconds: the fixed
  // cost replay mode charges (keeping shed decisions a pure function of
  // the schedule), and the live EWMA estimator's starting value.
  double replay_service_us = 4.0;

  // Request-lifecycle tracing (obs/trace.hpp), disabled when null — the
  // zero-cost default. The recorder outlives the cluster by contract; the
  // owner decides when to enable() it and where to export. Enable with
  // virtual_clock = true when (and only when) the cluster replays an
  // admission schedule.
  obs::TraceRecorder* trace = nullptr;

  // --- Fault tolerance ---------------------------------------------------
  // Deterministic fault injection (core/fault.hpp): disarmed by default
  // (seed 0), in which case every fault branch below is dead and responses
  // are byte-identical to a cluster without the subsystem. Populate from
  // the ISR_FAULT_* environment via core::FaultConfig::from_env().
  core::FaultConfig fault;
  // How many times one request may be re-driven after transient failures
  // (injected eval throws, worker crashes) before the cluster answers an
  // explicit degraded response instead. The first attempt is not a retry:
  // a request is tried at most retry_limit + 1 times.
  int retry_limit = 2;
  // Exponential backoff before each re-drive: attempt k sleeps
  // min(retry_backoff_us << (k-1), retry_backoff_max_us) microseconds.
  long retry_backoff_us = 50;
  long retry_backoff_max_us = 2000;
  // Heartbeat watchdog poll period. Each poll checks every shard for a
  // crashed worker (restart + re-drive) or a stalled one (stale heartbeat
  // with work pending -> degraded); four consecutive clean polls promote a
  // degraded shard back to healthy.
  long watchdog_poll_us = 1000;
};

class ServingCluster {
 public:
  // A primary registry may be shared between clusters (e.g. the benchmark's
  // 1-shard serial and N-shard parallel clusters answering from one fit);
  // by default the cluster creates its own.
  explicit ServingCluster(ClusterConfig config = {},
                          std::shared_ptr<serve::ModelRegistry> primary = nullptr);

  // Closes every shard queue and joins the workers. Every StreamSession
  // must be closed (or destroyed) first — sessions hold no cluster
  // ownership, and an in-flight request after destruction is a
  // use-after-free by contract.
  ~ServingCluster();

  // Opens a long-lived submission handle. Stream ids are assigned in open
  // order (the replay matching key), and the first open starts the shard
  // workers, the watchdog, and the refit worker. Corpora are NOT fitted
  // here: residency is lazy, paid by the first query naming each corpus.
  // Thread-safe: any number of sessions may be open and submitting
  // concurrently.
  StreamSession open_stream();

  // Batch convenience: opens a session, submits every request in order,
  // closes. Byte-identical through serve::to_jsonl to answer_batch over
  // the same requests; concurrent callers overlap freely (each is its own
  // stream). An empty batch opens no session and fits nothing.
  std::vector<serve::AdvisorResponse> serve_batch(
      const std::vector<serve::AdvisorRequest>& requests);

  // Admission-schedule recording and replay (see stream.hpp). Recording
  // captures (stream, seq, virtual timestamp) per submission; begin_replay
  // pins the admission interleaving AND the virtual clock to a prior
  // recording, so a replaying cluster — given the same sessions submitting
  // the same requests — reproduces responses and shed decisions
  // byte-identically. begin_replay throws std::invalid_argument unless
  // each stream's seqs run 0, 1, 2, ... in order (check_schedule; every
  // recording has that shape). Replay submissions block until the schedule
  // reaches them; a submission the schedule does not hold (a truncated
  // recording, an extra request) is answered at once with an in-slot
  // kError response, "replay: submission not in the recording", and a
  // stream that closes before submitting all its records retires the rest,
  // so its siblings never wait on them. Both are meant for a fresh cluster
  // whose session-open order mirrors the recorded run.
  void enable_recording();
  AdmissionSchedule take_recording();  // moves out what was captured so far
  void begin_replay(AdmissionSchedule schedule);

  // Cumulative metrics snapshot. Safe to call while streams are live: the
  // admission counters are atomics, shard stats and stage histograms are
  // read under each shard's own lock, and the snapshot merges per-shard
  // histograms into fresh cluster-wide roll-ups (bounded memory; nothing
  // is drained or reset).
  ClusterMetrics metrics() const;

  // Calibration fits performed (refits excluded). Under lazy residency
  // this must equal the number of distinct QUERIED corpus fingerprints —
  // shards hold no registries, and corpora sharing a fingerprint share
  // one fit.
  int registry_fits() const;

  // --- Live recalibration ------------------------------------------------
  // Queues drift observations against the corpus `name` selects for its
  // next refit. Forces residency (the corpus fits now if it never served a
  // query). Returns false when the name is unknown or the corpus's
  // calibration fit failed.
  bool append_observations(const std::string& name,
                           std::vector<model::Observation> observations);

  // Schedules a background refit of `name`'s corpus folding in whatever
  // observations were appended (an empty pending set still re-fits the
  // same corpus at the next epoch). Returns the LOWER BOUND on the epoch
  // the completed refit will publish (current + 1), or 0 when the name is
  // unknown or the corpus's fit failed. The swap happens on the refit
  // worker; wait_refits() is the completion barrier.
  std::uint64_t refit(const std::string& name);

  // refit() plus a deterministic drift study: the job generates one
  // reduced calibration pass whose seed is a pure function of
  // (calibration seed, current epoch), appends it, and refits — so two
  // identically-seeded runs issuing the same recalibrate() schedule
  // produce bit-identical bundles. Same return contract as refit().
  std::uint64_t recalibrate(const std::string& name);

  // Blocks until every scheduled refit job has completed and swapped.
  // After this, the epoch schedule is fixed and responses are pure
  // functions of (request, current epoch) again.
  void wait_refits();

  // The current bundle epoch of the corpus `name` selects: 0 when the
  // name is unknown or the corpus is not yet resident, 1 after the
  // initial (lazy) fit, +1 per completed refit.
  std::uint64_t bundle_epoch(const std::string& name) const;

  int shards() const { return static_cast<int>(shards_.size()); }
  // Resident corpora (the default plus every accepted named corpus).
  int corpora() const { return static_cast<int>(corpora_.size()); }
  const ClusterConfig& config() const { return config_; }

  // Fingerprint of the resident corpus `name` selects ("" = default), or 0
  // when the name is unknown. Fingerprints are never 0 in practice
  // (hash_seed output), so 0 doubles as "not resident" in tests.
  std::uint64_t corpus_fingerprint(const std::string& name) const;

 private:
  friend class StreamSession;

  // One configured corpus, resolved at construction: its selector, its
  // config (spr_base derived), its calibration fingerprint (what the
  // registry fits once), and its corpus key (calibration + constants —
  // what routing selects by, so corpora sharing a calibration but not
  // constants never conflate). Model state arrives lazily: `bundle` is
  // null until the first query (or recalibration) naming this corpus
  // forces residency, and is thereafter swapped atomically by refits.
  struct CorpusState {
    // Residency states. kFitFailed means the calibration fit failed
    // (injected or real) even after retry_limit + 1 attempts: the corpus
    // stays configured but every request for it is answered with an
    // explicit degraded response — a broken corpus must not crash the
    // cluster or hang its clients.
    static constexpr int kEmpty = 0;
    static constexpr int kResident = 1;
    static constexpr int kFitFailed = 2;

    std::string name;
    serve::ServiceConfig service;
    std::uint64_t fingerprint = 0;
    std::uint64_t corpus_key = 0;
    std::atomic<int> residency{kEmpty};
    // The corpus's CURRENT epoch bundle. Read with std::atomic_load and
    // written with std::atomic_store only (C++17 shared_ptr atomics), so
    // admission pinning a bundle can never observe a torn pointer while
    // the refit worker swaps epochs.
    serve::BundlePtr bundle;
  };

  // One scheduled background refit: which corpus, and whether to generate
  // a deterministic drift study before refitting (recalibrate vs refit).
  struct RefitJob {
    std::size_t corpus = 0;
    bool drift = false;
  };

  // Starts the shard workers, the heartbeat watchdog, and the refit
  // worker. Lazy (first open_stream) so constructing a cluster stays
  // cheap; corpora are fitted even later, on first query.
  void ensure_serving();

  // Lazy residency: returns true when the corpus at `idx` holds a bundle,
  // fitting it (once, under fit_mutex_, walking the same deterministic
  // fit-failure retry ladder the eager path used) when this is its first
  // touch. Returns false when the fit failed permanently.
  bool ensure_corpus_resident(std::size_t idx);

  // The refit worker thread: drains refit_queue_, running each job's
  // drift study + registry refit and swapping the fresh bundle into every
  // resident corpus sharing the fingerprint, then sweeping exactly those
  // corpora's cache partitions.
  void refit_loop();
  void run_refit(const RefitJob& job);
  // refit()/recalibrate(): queues one job for `name`'s corpus (forcing
  // residency first) and returns the epoch lower bound, or 0.
  std::uint64_t schedule_refit(const std::string& name, bool drift);

  // The one admission path (StreamSession lands here with each buffered
  // run): allocates the run's slots under one session lock, reads the
  // clock once, pins each corpus's bundle once, answers unknown-corpus and
  // fit-failed requests in their slots, probes the cache, routes/sheds/
  // sequences the rest under one hold of admission_mutex_, and pushes one
  // sub-run per shard. Requests are moved out of `run`; slots run from
  // `first_slot` (the session's seqs). Record and replay differ from live
  // admission only in holding admission_mutex_ from the top (their runs
  // are one request long; a longer run, buffered before the mode began,
  // is admitted one request at a time), in replay's virtual timestamp and
  // fixed service cost, and in replay's virtual-clock trace chain — all
  // marked inside.
  void admit(const std::shared_ptr<SessionState>& session, std::size_t first_slot,
             std::vector<serve::AdvisorRequest>& run);

  // Requests per admitted run (StreamSession::submit's buffer bound): the
  // batch size live, so a run fills about one shard batch, and
  // 1 under record/replay, so every submission is admitted — recorded, or
  // pinned to its schedule record — at its own submit.
  std::size_t run_length() const {
    return recording_.load(std::memory_order_relaxed) ||
                   replaying_.load(std::memory_order_relaxed)
               ? 1
               : config_.batch_size;
  }

  // StreamSession::close support: under replay, retires the stream's
  // unconsumed schedule records (a stream closing before it submitted them
  // must not park its siblings' submissions behind them).
  void end_stream(std::uint64_t stream);

  // Advances the replay cursor past records of streams that closed before
  // submitting them. Caller holds admission_mutex_.
  void skip_closed_replay_records();

  // Index into corpora_ for a request's selector, or -1 when unknown.
  int resolve_corpus(const std::string& name) const;

  // The failover/retry path (shard FailureHandler + watchdog re-drive):
  // each item either re-drives, after a bounded exponential backoff, into
  // the queue of the next live shard in its key's rendezvous order (a
  // failover) or, with no live sibling, back into `from_shard`'s queue —
  // or, once its retry budget is spent, its deadline passed, or the
  // cluster shut down, receives an explicit degraded response. Never
  // blocks on a queue, so it is deadlock-free from worker and watchdog
  // context alike.
  void redeliver(std::vector<StreamItem>&& items, int from_shard);

  // The heartbeat watchdog: polls every shard each watchdog_poll_us,
  // restarts crashed workers (re-driving the batch they held), marks
  // stalled or failing shards degraded, and promotes them back to healthy
  // after kHealthRecoveryPolls clean polls. The only writer of health_.
  void watchdog_loop();

  ShardHealth health(std::size_t shard) const {
    return static_cast<ShardHealth>(health_[shard].load(std::memory_order_relaxed));
  }

  ClusterConfig config_;
  // [0] is the default corpus. unique_ptr entries: CorpusState holds an
  // atomic (not movable), and items pin &service.constants — addresses
  // must be stable for the cluster's lifetime.
  std::vector<std::unique_ptr<CorpusState>> corpora_;
  std::shared_ptr<serve::ModelRegistry> primary_;
  Router router_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Built in the constructor body, once the corpus count (its partition
  // count) is known.
  std::unique_ptr<ResponseCache> cache_;
  bool serving_ = false;
  std::mutex serving_mutex_;
  // Serializes lazy corpus fits (a calibration study must run at most once
  // per corpus no matter how many admitters race the first query).
  std::mutex fit_mutex_;

  // Recalibration state: the dedicated refit worker and its job queue.
  // refit_busy_ distinguishes "queue empty" from "done" for wait_refits().
  std::thread refit_worker_;
  std::mutex refit_mutex_;
  std::condition_variable refit_cv_;       // wakes the worker
  std::condition_variable refit_idle_cv_;  // wakes wait_refits()
  std::deque<RefitJob> refit_queue_;
  bool refit_busy_ = false;
  bool refit_stop_ = false;
  std::atomic<long> lazy_fits_{0};
  std::atomic<long> epoch_invalidations_{0};

  // Fault-tolerance state. health_ is written by the watchdog only and
  // read (relaxed) by admission/failover — a stale read routes to a shard
  // about to be marked down, which the retry path then absorbs; bytes are
  // placement-independent either way. suspect_ counts transient failures
  // per shard (bumped by redeliver) so the watchdog notices failure bursts
  // between polls.
  core::FaultInjector faults_;
  std::thread watchdog_;
  std::atomic<bool> watchdog_stop_{false};
  std::unique_ptr<std::atomic<int>[]> health_;   // ShardHealth per shard
  std::unique_ptr<std::atomic<long>[]> suspect_; // transient failures per shard
  std::atomic<long> worker_restarts_{0};
  std::atomic<long> failovers_{0};
  std::atomic<long> retries_{0};
  std::atomic<long> timeouts_{0};
  std::atomic<long> degraded_queries_{0};

  // Admission state (all under admission_mutex_). backlog_end_us_ is the
  // virtual time each shard's queue drains at: admission advances it by
  // the service estimate, shedding compares a request's deadline against
  // it. Virtual timestamps are microseconds since epoch_ (live) or the
  // recorded t_us (replay).
  mutable std::mutex admission_mutex_;
  std::condition_variable replay_cv_;
  std::chrono::steady_clock::time_point epoch_;
  std::uint64_t next_stream_id_ = 0;
  std::uint64_t admit_seq_ = 0;
  std::vector<double> backlog_end_us_;  // per shard
  // Mode flags are atomic because admit() reads them before deciding
  // whether to lock; both are fixed before streams open (enable_recording /
  // begin_replay precede serving by contract).
  std::atomic<bool> recording_{false};
  AdmissionSchedule recorded_;
  std::atomic<bool> replaying_{false};
  AdmissionSchedule replay_;
  std::size_t replay_cursor_ = 0;
  // Records per stream in replay_: (stream, seq) is scheduled iff
  // seq < replay_len_[stream], because check_schedule holds. A stream that
  // closes is erased, so the cursor skips its unconsumed records.
  std::unordered_map<std::uint64_t, std::uint64_t> replay_len_;
  // Admission counters: atomics so live admission updates them outside
  // the admission lock (metrics() reads are monotone either way).
  std::atomic<long> queries_{0};
  std::unique_ptr<std::atomic<long>[]> corpus_queries_;  // aligned with corpora_
  std::atomic<long> unknown_corpus_queries_{0};
  std::atomic<long> shed_queries_{0};
  std::atomic<long> streams_{0};
};

// A client's submission handle: submit() buffers one request (returning
// its per-stream sequence number), close() admits what is buffered and
// blocks until every submitted request has its response, returning them in
// submission order. Buffered requests are admitted as one run when the
// buffer reaches ClusterConfig::batch_size, when a request carries
// deadline_us > 0 (its shed decision then reads a fresh clock), or at
// close()/destruction; under record/replay every submit is its own run.
// Responses are only observable at close(), so buffering changes no
// result. One session belongs to one client thread (the handle itself is
// not thread-safe; the cluster is, across sessions). Sessions are movable
// (the buffer moves too), not copyable; destroying an open session closes
// it and discards the responses. A session must not outlive its cluster.
class StreamSession {
 public:
  StreamSession() = default;
  StreamSession(StreamSession&& other) noexcept
      : cluster_(other.cluster_),
        state_(std::move(other.state_)),
        pending_(std::move(other.pending_)),
        submitted_(other.submitted_) {
    other.cluster_ = nullptr;
    other.pending_.clear();
  }
  StreamSession& operator=(StreamSession&& other) noexcept {
    if (this != &other) {
      if (state_) close();
      cluster_ = other.cluster_;
      state_ = std::move(other.state_);
      pending_ = std::move(other.pending_);
      submitted_ = other.submitted_;
      other.cluster_ = nullptr;
      other.pending_.clear();
    }
    return *this;
  }
  StreamSession(const StreamSession&) = delete;
  StreamSession& operator=(const StreamSession&) = delete;
  ~StreamSession() {
    if (state_) close();
  }

  bool open() const { return state_ != nullptr; }
  std::uint64_t id() const { return state_ ? state_->id() : 0; }

  // Submits one request; its response will occupy slot `seq` (the return
  // value) of close()'s vector. Blocks only when it admits a run: for
  // queue backpressure — or, in replay mode, until the schedule reaches
  // this (stream, seq). Throws std::logic_error on a closed session.
  std::uint64_t submit(const serve::AdvisorRequest& request);

  // Admits the buffered run, waits for every response, and returns them in
  // submission order. The session is spent afterwards (open() == false).
  std::vector<serve::AdvisorResponse> close();

 private:
  friend class ServingCluster;
  StreamSession(ServingCluster* cluster, std::shared_ptr<SessionState> state)
      : cluster_(cluster), state_(std::move(state)) {}

  // Hands the buffered run to ServingCluster::admit and empties the buffer.
  void admit_pending();

  ServingCluster* cluster_ = nullptr;
  std::shared_ptr<SessionState> state_;
  std::vector<serve::AdvisorRequest> pending_;  // submitted, not yet admitted
  std::uint64_t submitted_ = 0;                 // the next submit's seq
};

}  // namespace isr::cluster
