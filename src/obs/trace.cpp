#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace isr::obs {

namespace {

// Process-wide recorder id source. A thread's cached (recorder, uid) pair
// can dangle after a recorder is destroyed and a new one allocated at the
// same address (two benches, two test fixtures); the uid disambiguates.
std::atomic<std::uint64_t> g_next_uid{1};

struct ThreadCache {
  const void* owner = nullptr;
  std::uint64_t uid = 0;
  void* ring = nullptr;
};
thread_local ThreadCache t_cache;

}  // namespace

struct TraceRecorder::Ring {
  Ring(std::size_t capacity_in, std::uint32_t lane_in)
      : capacity(capacity_in), lane(lane_in) {}
  // Single-writer ring: only the owning thread appends, so this lock is
  // uncontended on the hot path — it exists to serialize against the
  // exporter's drain (and clear()), not against other producers.
  std::mutex mutex;
  // Grows on demand up to capacity, then wraps: a thread that records a
  // handful of events never pays for (or zero-fills) a full ring.
  std::vector<TraceEvent> slots;
  std::size_t capacity;
  std::size_t head = 0;  // next write position (<= slots.size())
  std::size_t size = 0;  // valid events (<= capacity)
  std::uint64_t dropped = 0;
  std::uint32_t lane;
  // The recording thread; std::thread::id{} once it has exited (or before
  // the first claim), when the next thread without a ring takes this one
  // over. Guarded by `mutex`.
  std::thread::id owner;
};

namespace {

// The thread-exit hook: every ring a thread claimed is handed back when it
// exits, so a later thread (a new cluster's worker) records into its
// predecessor's ring (and lane) instead of growing the recorder by one
// ring per thread ever seen.
// The hook holds shared ownership, so a ring outlives its recorder until
// the last thread that claimed it has exited.
struct ClaimedRings {
  std::vector<std::shared_ptr<TraceRecorder::Ring>> rings;
  ~ClaimedRings() {
    for (const auto& ring : rings) {
      std::lock_guard<std::mutex> lock(ring->mutex);
      ring->owner = std::thread::id{};
    }
  }
};
thread_local ClaimedRings t_claimed;

}  // namespace

TraceRecorder::TraceRecorder(std::size_t ring_capacity)
    : capacity_(ring_capacity > 0 ? ring_capacity : 1),
      epoch_(std::chrono::steady_clock::now()),
      uid_(g_next_uid.fetch_add(1, std::memory_order_relaxed)) {}

TraceRecorder::~TraceRecorder() = default;

void TraceRecorder::enable(bool virtual_clock) {
  virtual_clock_ = virtual_clock;
  epoch_ = std::chrono::steady_clock::now();
  enabled_.store(true, std::memory_order_release);
}

void TraceRecorder::disable() { enabled_.store(false, std::memory_order_release); }

std::int64_t TraceRecorder::now_us() const {
  return since_epoch_us(std::chrono::steady_clock::now());
}

std::int64_t TraceRecorder::since_epoch_us(
    std::chrono::steady_clock::time_point tp) const {
  return std::chrono::duration_cast<std::chrono::microseconds>(tp - epoch_).count();
}

TraceRecorder::Ring* TraceRecorder::ring_for_this_thread() {
  if (t_cache.owner == this && t_cache.uid == uid_)
    return static_cast<Ring*>(t_cache.ring);
  std::lock_guard<std::mutex> lock(registry_mutex_);
  const std::thread::id self = std::this_thread::get_id();
  // This thread's own ring (it cached another recorder's since), else the
  // first ring an exited thread handed back, else a new one. A claimed
  // ring is registered with the thread-exit hook.
  Ring* ring = nullptr;
  for (const auto& r : rings_) {
    std::lock_guard<std::mutex> ring_lock(r->mutex);
    if (r->owner == self) {
      ring = r.get();
      break;
    }
  }
  for (std::size_t i = 0; !ring && i <= rings_.size(); ++i) {
    if (i == rings_.size())
      rings_.push_back(
          std::make_shared<Ring>(capacity_, static_cast<std::uint32_t>(rings_.size() + 1)));
    std::lock_guard<std::mutex> ring_lock(rings_[i]->mutex);
    if (rings_[i]->owner != std::thread::id{}) continue;
    rings_[i]->owner = self;
    ring = rings_[i].get();
    // Rings only this thread still holds belong to destroyed recorders.
    std::vector<std::shared_ptr<Ring>>& claimed = t_claimed.rings;
    claimed.erase(std::remove_if(claimed.begin(), claimed.end(),
                                 [](const auto& r) { return r.use_count() == 1; }),
                  claimed.end());
    claimed.push_back(rings_[i]);
  }
  t_cache.owner = this;
  t_cache.uid = uid_;
  t_cache.ring = ring;
  return ring;
}

void TraceRecorder::record(const TraceEvent& event) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  Ring* ring = ring_for_this_thread();
  std::lock_guard<std::mutex> lock(ring->mutex);
  if (ring->head == ring->slots.size()) ring->slots.push_back(event);
  else ring->slots[ring->head] = event;
  ring->head = (ring->head + 1) % ring->capacity;
  if (ring->size < ring->capacity) ring->size += 1;
  else ring->dropped += 1;  // head just overwrote the oldest event
}

std::uint64_t TraceRecorder::dropped() const {
  std::lock_guard<std::mutex> registry(registry_mutex_);
  std::uint64_t total = 0;
  for (const auto& ring : rings_) {
    std::lock_guard<std::mutex> lock(ring->mutex);
    total += ring->dropped;
  }
  return total;
}

std::uint64_t TraceRecorder::buffered() const {
  std::lock_guard<std::mutex> registry(registry_mutex_);
  std::uint64_t total = 0;
  for (const auto& ring : rings_) {
    std::lock_guard<std::mutex> lock(ring->mutex);
    total += ring->size;
  }
  return total;
}

void TraceRecorder::clear() {
  std::lock_guard<std::mutex> registry(registry_mutex_);
  for (const auto& ring : rings_) {
    std::lock_guard<std::mutex> lock(ring->mutex);
    ring->head = 0;
    ring->size = 0;
    ring->dropped = 0;
  }
}

namespace {

// Total order over events for a ring-independent (and, under the virtual
// clock, byte-reproducible) export. Name/cat/note compare by CONTENT —
// pointer identity of static strings varies across processes.
int cstr_cmp(const char* a, const char* b) {
  return std::strcmp(a ? a : "", b ? b : "");
}

bool event_before(const TraceEvent& a, const TraceEvent& b) {
  if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
  if (a.tid != b.tid) return a.tid < b.tid;
  if (a.stream != b.stream) return a.stream < b.stream;
  if (a.seq != b.seq) return a.seq < b.seq;
  const int name = cstr_cmp(a.name, b.name);
  if (name != 0) return name < 0;
  if (a.phase != b.phase) return a.phase < b.phase;
  if (a.dur_us != b.dur_us) return a.dur_us < b.dur_us;
  const int note = cstr_cmp(a.note, b.note);
  if (note != 0) return note < 0;
  if (a.v0 != b.v0) return a.v0 < b.v0;
  return a.v1 < b.v1;
}

void append_event_json(std::string& out, const TraceEvent& e) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\"",
                e.name ? e.name : "?", e.cat ? e.cat : "isr", e.phase);
  out += buf;
  if (e.phase == 'i') out += ",\"s\":\"t\"";
  std::snprintf(buf, sizeof(buf), ",\"ts\":%lld", static_cast<long long>(e.ts_us));
  out += buf;
  if (e.phase == 'X') {
    std::snprintf(buf, sizeof(buf), ",\"dur\":%lld", static_cast<long long>(e.dur_us));
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                ",\"pid\":1,\"tid\":%lu,\"args\":{\"stream\":%llu,\"seq\":%llu",
                static_cast<unsigned long>(e.tid),
                static_cast<unsigned long long>(e.stream),
                static_cast<unsigned long long>(e.seq));
  out += buf;
  if (e.note) {
    out += ",\"note\":\"";
    out += e.note;  // static taxonomy strings; nothing to escape
    out += "\"";
  }
  if (e.values >= 1) {
    std::snprintf(buf, sizeof(buf), ",\"v0\":%lld", static_cast<long long>(e.v0));
    out += buf;
  }
  if (e.values >= 2) {
    std::snprintf(buf, sizeof(buf), ",\"v1\":%lld", static_cast<long long>(e.v1));
    out += buf;
  }
  out += "}}";
}

}  // namespace

std::string TraceRecorder::chrome_trace_json() const {
  // Snapshot every ring oldest-first, stamping unassigned events with
  // their ring's lane, then sort into the ring-independent total order.
  std::vector<TraceEvent> events;
  std::uint64_t total_dropped = 0;
  {
    std::lock_guard<std::mutex> registry(registry_mutex_);
    for (const auto& ring : rings_) {
      std::lock_guard<std::mutex> lock(ring->mutex);
      total_dropped += ring->dropped;
      const std::size_t cap = ring->capacity;
      const std::size_t start = (ring->head + cap - ring->size) % cap;
      for (std::size_t i = 0; i < ring->size; ++i) {
        TraceEvent e = ring->slots[(start + i) % cap];
        if (e.tid == 0) e.tid = ring->lane;
        events.push_back(e);
      }
    }
  }
  std::sort(events.begin(), events.end(), event_before);

  std::string out = "{\"traceEvents\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    append_event_json(out, events[i]);
  }
  char tail[96];
  std::snprintf(tail, sizeof(tail),
                "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":%llu,"
                "\"events\":%llu}}\n",
                static_cast<unsigned long long>(total_dropped),
                static_cast<unsigned long long>(events.size()));
  out += tail;
  return out;
}

void TraceRecorder::export_chrome_trace(std::ostream& out) const {
  out << chrome_trace_json();
}

}  // namespace isr::obs
