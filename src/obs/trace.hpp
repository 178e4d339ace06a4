// Request-lifecycle tracing: per-thread bounded ring buffers of fixed-size
// span/instant events, exported as Chrome trace_event JSON (loadable in
// chrome://tracing or Perfetto, ui.perfetto.dev).
//
// Design points, in the order they matter:
//   - Zero cost when off. Call sites hold a nullable TraceRecorder* and
//     guard every hook with `tr && tr->enabled()` — a null check (recorder
//     absent) or one relaxed atomic load (recorder disabled). Nothing else
//     runs; bench_ratios gates that the disabled path keeps pace
//     with the recorder-absent path.
//   - Per-thread rings, drop-oldest. Each recording thread owns one ring;
//     producers never contend with each other (the per-ring lock has a
//     single writer and only serializes against the rare exporter drain).
//     A thread's exit hands its ring to the next thread that records, so
//     restarted workers reuse rings instead of adding one per thread.
//     A full ring overwrites its oldest event and bumps a drop counter the
//     export publishes (otherData.dropped) — tracing sheds history, never
//     blocks serving.
//   - Events are fixed-size PODs. Names and notes are static-storage
//     strings (the span taxonomy in docs/ARCHITECTURE.md), identities are
//     (stream, seq), and up to two numeric annotations ride along — no
//     allocation on the hot path.
//   - Two clocks. Live recording stamps wall microseconds since enable()
//     (steady clock). Under the cluster's --replay mode the recorder is
//     enabled with virtual_clock = true: call sites stamp the admission
//     schedule's virtual timestamps (and preset deterministic lanes)
//     instead, and suppress wall-clock-only spans — so a replayed run's
//     exported trace is byte-identical across processes, which is what
//     test_obs and the CI trace smoke verify. The export sorts events by
//     (ts, lane, identity, name) rather than arrival ring, so ring
//     assignment never shows in the bytes.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

namespace isr::obs {

// One trace event. `phase` follows the Chrome trace_event convention:
// 'X' = complete span (ts + dur), 'i' = instant. `tid` 0 means "assign the
// recording thread's lane at export"; virtual-clock sites preset a
// deterministic lane instead. `values` says how many of v0/v1 carry data.
struct TraceEvent {
  const char* name = nullptr;  // static-storage string, never owned
  const char* cat = nullptr;   // category ("req" = request lifecycle)
  const char* note = nullptr;  // optional static annotation (shed cause...)
  char phase = 'i';
  std::uint8_t values = 0;
  std::uint32_t tid = 0;
  std::int64_t ts_us = 0;
  std::int64_t dur_us = 0;
  std::uint64_t stream = 0;
  std::uint64_t seq = 0;
  std::int64_t v0 = 0;
  std::int64_t v1 = 0;
};

// A request-lifecycle event (category "req") for request `seq` of stream
// `stream`: phase 'i' is an instant, 'X' a span whose dur_us the caller
// sets. Every lifecycle site builds its events here, so they agree.
inline TraceEvent request_event(const char* name, char phase, std::int64_t ts_us,
                                std::uint64_t stream, std::uint64_t seq,
                                const char* note = nullptr) {
  TraceEvent e{};
  e.name = name;
  e.cat = "req";
  e.note = note;
  e.phase = phase;
  e.ts_us = ts_us;
  e.stream = stream;
  e.seq = seq;
  return e;
}

class TraceRecorder {
 public:
  // `ring_capacity` bounds EACH recording thread's buffer (drop-oldest
  // past it); the default holds ~64Ki events per thread at 80 bytes each.
  explicit TraceRecorder(std::size_t ring_capacity = std::size_t{1} << 16);
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  // Starts accepting events; resets the wall epoch to now. virtual_clock
  // declares that call sites will stamp deterministic virtual timestamps
  // (the cluster's replay mode) — the recorder itself only reports the
  // flag back so sites can pick their clock.
  void enable(bool virtual_clock = false);
  void disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  bool virtual_clock() const { return virtual_clock_; }

  // Wall microseconds since enable(); the live-mode event clock.
  std::int64_t now_us() const;
  std::int64_t since_epoch_us(std::chrono::steady_clock::time_point tp) const;

  // Appends one event to the calling thread's ring. No-op when disabled.
  void record(const TraceEvent& event);

  std::uint64_t dropped() const;   // events overwritten across all rings
  std::uint64_t buffered() const;  // events currently held across all rings

  // The Chrome trace_event export: {"traceEvents":[...],"displayTimeUnit":
  // "ms","otherData":{"dropped":N,"events":M}}, events sorted by
  // (ts, tid, stream, seq, name, ...) for ring-independent bytes.
  // Non-destructive; rings keep their contents.
  void export_chrome_trace(std::ostream& out) const;
  std::string chrome_trace_json() const;

  // Drops every buffered event and the drop counters (rings stay
  // registered with their lanes).
  void clear();

  // One thread's event ring (defined in trace.cpp). A ring outlives the
  // thread recording into it: when that thread exits, the next thread
  // that records takes the ring over, lane and events included.
  struct Ring;

 private:
  Ring* ring_for_this_thread();

  std::atomic<bool> enabled_{false};
  bool virtual_clock_ = false;
  std::size_t capacity_;
  std::chrono::steady_clock::time_point epoch_;
  const std::uint64_t uid_;  // process-unique; guards stale thread caches
  mutable std::mutex registry_mutex_;
  std::vector<std::shared_ptr<Ring>> rings_;
};

}  // namespace isr::obs
