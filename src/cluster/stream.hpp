// Streaming-admission building blocks for the serving cluster: the
// per-session completion state a StreamSession handle wraps, the unit of
// work shard queues carry, the total order those queues serve in, and the
// recorded admission schedule that makes a concurrent run replayable.
//
// Determinism under concurrency, in two halves:
//   1. Every response is a pure function of (request, fitted models,
//      mapping constants) — interleaving can never change WHAT a request
//      answers, only when, and session slots keep responses in per-stream
//      submission order regardless of service order.
//   2. Shed decisions DO depend on interleaving (they read the admission
//      clock and the virtual backlog), so the cluster can record the
//      admission schedule — (stream id, seq, virtual timestamp) per
//      admitted request — and later replay it, forcing the exact
//      interleaving and timestamps. Replay turns the one nondeterministic
//      input into data, which is how the byte-identity contract of the
//      batch era survives as a test configuration (see test_stream.cpp and
//      test_obs.cpp).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "model/mapping.hpp"
#include "serve/advisor.hpp"
#include "serve/registry.hpp"

namespace isr::cluster {

// One admitted request in a recorded schedule: which stream, its per-stream
// submission sequence number, and the virtual admission timestamp
// (microseconds since the cluster's epoch) the shed accounting saw.
struct AdmissionRecord {
  std::uint64_t stream = 0;
  std::uint64_t seq = 0;
  std::int64_t t_us = 0;
};

using AdmissionSchedule = std::vector<AdmissionRecord>;

// True when each stream's seqs run 0, 1, 2, ... in schedule order — the
// shape every recording has, and the one replay needs (a per-stream gap
// or reorder would park an admitter on a cursor that never reaches it).
// Otherwise false, with a one-line reason in `error`.
bool check_schedule(const AdmissionSchedule& schedule, std::string& error);

// Schedule file IO for the --record/--replay CLI flags: a comment-friendly
// text format, one "STREAM SEQ T_US" triple per line. load returns false
// (with a one-line reason) on any malformed line or a schedule that fails
// check_schedule — the same loud-over-silent stance as the wire-format
// parser.
void save_schedule(const AdmissionSchedule& schedule, std::ostream& out);
bool load_schedule(std::istream& in, AdmissionSchedule& schedule, std::string& error);

// Completion state shared between a StreamSession handle, the cluster's
// admission path, and the shard workers. Responses land in per-stream
// submission order (slot = seq), no matter which shard answered or when.
// Lifetime: in-flight StreamItems hold a shared_ptr, so a session's state
// outlives early handle destruction — but never the cluster itself (close
// every session before destroying the cluster).
class SessionState {
 public:
  explicit SessionState(std::uint64_t id) : id_(id) {}

  std::uint64_t id() const { return id_; }

  // Reserves response slots [first, first + count) for one admitted run —
  // the requests' per-stream seqs, which StreamSession::submit already
  // handed out, so `first` must be the number of slots reserved so far.
  // Throws std::logic_error after close() (submit-after-close is a client
  // bug, not a race to tolerate) or on a run that does not start there.
  void allocate_run(std::size_t first, std::size_t count);

  // Writes one response into its slot and wakes a drain waiter when it was
  // the last one owed. Called by shard workers (evaluated responses), the
  // failover path, and admission's single answers (an unscheduled replay
  // submission, a queue closed under a run).
  void deliver(std::size_t slot, serve::AdvisorResponse&& response);

  // Batched delivery: one lock acquisition for a run of responses all
  // landing in this session (responses[i] moves into slots[i]) — a shard
  // drain's per-session stretch, or the requests an admitted run answers
  // in place (cache hits, unknown-corpus errors, shed refusals). Identical
  // outcome to `count` deliver() calls — slots address the writes, so
  // delivery grouping can never reorder a stream.
  void deliver_run(const std::size_t* slots, serve::AdvisorResponse* responses,
                   std::size_t count);

  // Marks the session closed and blocks until every allocated slot has its
  // response, then moves the responses out (per-stream submission order).
  std::vector<serve::AdvisorResponse> wait_drained();

 private:
  const std::uint64_t id_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<serve::AdvisorResponse> responses_;
  std::size_t completed_ = 0;
  bool closed_ = false;
};

// The unit of work a shard queue carries: the request, its resolved
// replica, where its response goes, and the scheduling key (priority,
// absolute virtual deadline, global admission sequence).
struct StreamItem {
  serve::AdvisorRequest request;
  std::uint64_t corpus_key = 0;  // resident replica the request resolved to
  // The bundle this request was ADMITTED under, pinned here so evaluation —
  // on any shard, after any failover, before or after a recalibration swap —
  // reads exactly the epoch admission saw. Shared ownership keeps a
  // superseded bundle alive until its last in-flight request delivers.
  serve::BundlePtr bundle;
  // The resolved corpus's mapping constants; owned by the cluster's corpus
  // state, which outlives every in-flight item.
  const model::MappingConstants* constants = nullptr;
  // Index of the resolved corpus in the cluster's configuration order —
  // the response-cache partition this item's entry lives in.
  int corpus_index = 0;
  std::shared_ptr<SessionState> session;
  std::size_t slot = 0;
  // Scheduling key. deadline_at_us is the absolute virtual deadline
  // (admission timestamp + deadline_us); no deadline sorts last within its
  // priority class. admit_seq is assigned under the admission lock, so the
  // key is a total order and heap insertion order cannot matter.
  int priority = 1;
  std::int64_t deadline_at_us = std::numeric_limits<std::int64_t>::max();
  std::uint64_t admit_seq = 0;
  // (No cache key rides here: the canonical key is a pure function of
  // `request`, so the drain worker rebuilds it into its own key buffers
  // instead of carrying a per-item heap string through the queue.)
  std::chrono::steady_clock::time_point enqueued;  // latency clock start
  // Fault-tolerance bookkeeping: how many injected faults THIS item has
  // personally triggered (eval throws, worker crashes). Part of the fault
  // injector's decision key — (stream, seq, attempt) — so a re-driven item
  // draws a fresh deterministic decision instead of refiring forever, and
  // an item merely co-batched with a crasher keeps its attempt (and its
  // schedule) unchanged. Exceeding the cluster's retry limit turns the
  // item into an explicit degraded response.
  int attempt = 0;
};

// The serving order: strict across priority classes (0 preempts 7 even
// when 7's deadline is nearer), earliest deadline first within a class,
// admission order as the deterministic tiebreak.
struct StreamBefore {
  bool operator()(const StreamItem& a, const StreamItem& b) const {
    if (a.priority != b.priority) return a.priority < b.priority;
    if (a.deadline_at_us != b.deadline_at_us) return a.deadline_at_us < b.deadline_at_us;
    return a.admit_seq < b.admit_seq;
  }
};

}  // namespace isr::cluster
