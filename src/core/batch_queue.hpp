// A bounded multi-producer/multi-consumer queue whose consumers pop
// *coalesced batches* in a caller-supplied priority order: pop_batch blocks
// until a full batch accumulates, the coalescing deadline passes with at
// least one item waiting, a kick() flushes a partial batch (how a closing
// stream gets its in-flight requests answered without waiting out the
// deadline), or the queue is closed. This is the serving cluster's
// admission primitive (src/cluster/ feeds each shard's worker through
// one), but it is deliberately generic — batching-with-a-deadline is the
// standard latency/throughput dial for any streaming consumer.
//
// Backpressure contract: the queue is bounded; push() and push_run() BLOCK
// for room (admitters are client threads with nothing better to do, and
// shedding — not helping — is the overload policy), while try_push()
// returns false when the queue is full (or closed) and leaves the decision
// to the producer.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

namespace isr::core {

// Why pop_batch returned: a full batch, the coalescing deadline, a kick
// (explicit partial-batch flush), the close drain, or nothing left (closed
// and empty — the consumer's stop signal).
enum class BatchFlush { kSize, kDeadline, kKicked, kClosed, kEmpty };

// A bounded MPMC batch queue that pops in a caller-supplied order rather
// than FIFO: `Before(a, b)` returns true when `a` must be served before
// `b` (the cluster uses strict priority class, then earliest deadline,
// then admission sequence). Internally a binary heap, so push and pop are
// O(log n) and a batch pop is O(k log n) — insertion order never matters,
// which is what makes concurrent admitters deterministic once each item
// carries a total-order key.
//
// kick() flushes whatever is queued to the next pop_batch as a partial
// batch (kKicked); a kick on an empty queue is remembered until items
// arrive or the queue drains.
//
// Storage is a slot pool: items live in fixed slots reused across their
// lifetime (a moved-out slot keeps its strings' heap capacity for the next
// occupant), and the heap orders slot INDICES — sift operations move
// 8-byte integers, never the queued objects themselves. Both structures
// are bounded by the queue capacity and reserved up front, so a warmed-up
// queue pushes and pops with zero heap traffic — part of the serving
// path's steady-state zero-allocation contract.
template <class T, class Before>
class OrderedBatchQueue {
 public:
  explicit OrderedBatchQueue(std::size_t capacity, Before before = Before{})
      : capacity_(capacity > 0 ? capacity : 1), before_(before) {
    slots_.reserve(capacity_);
    heap_.reserve(capacity_);
    free_.reserve(capacity_);
  }

  // Blocking bounded push: waits for room, returns false only when the
  // queue is (or becomes) closed — the item is untouched in that case.
  bool push(T&& item) { return push_run(&item, 1) == 1; }

  // Run form of push: moves items[0..count) in, in order, blocking for room
  // like push(). Each stretch of free room is filled under one lock
  // acquisition (and at most one consumer wake), so an admitted run costs
  // one lock per stretch instead of one per item. Returns how many items
  // went in: fewer than `count` only when the queue is (or becomes)
  // closed, in which case items[returned..count) are untouched.
  std::size_t push_run(T* items, std::size_t count) {
    std::size_t pushed = 0;
    while (pushed < count) {
      bool wake;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        push_cv_.wait(lock, [&] { return closed_ || heap_.size() < capacity_; });
        if (closed_) return pushed;
        while (pushed < count && heap_.size() < capacity_)
          heap_push(std::move(items[pushed++]));
        wake = heap_.size() >= wanted_;
      }
      if (wake) pop_cv_.notify_one();
    }
    return pushed;
  }

  // Non-blocking variant: returns false when the queue is full or closed.
  // The item is genuinely untouched then (rvalue-reference parameter:
  // nothing is moved until the push is known to succeed), so the caller
  // can retry the same object after making room.
  bool try_push(T&& item) {
    bool wake;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_ || heap_.size() >= capacity_) return false;
      heap_push(std::move(item));
      wake = heap_.size() >= wanted_;
    }
    if (wake) pop_cv_.notify_one();
    return true;
  }

  // Flush whatever is queued as a partial batch now (kKicked). Sticky: a
  // kick with nothing queued arms the next pop instead of vanishing, so a
  // close() racing ahead of the last push cannot strand an item.
  void kick() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      kicked_ = true;
    }
    pop_cv_.notify_all();
  }

  // No more pushes; consumers drain what remains and then see kEmpty.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    pop_cv_.notify_all();
    push_cv_.notify_all();
  }

  // Pops up to `max_items` into `out` (cleared first), best-first per
  // `Before`. Blocks until one of:
  //   - `max_items` are waiting                      -> kSize
  //   - `deadline` passed with >= 1 item waiting     -> kDeadline
  //   - a kick with >= 1 item waiting                -> kKicked
  //   - the queue is closed (drains what remains)    -> kClosed, or kEmpty
  //     when nothing remained — the consumer's signal to stop.
  // The deadline clock starts when the first item becomes available, not
  // at the call, so an idle consumer parked on an empty open queue waits
  // indefinitely without spinning.
  BatchFlush pop_batch(std::size_t max_items, std::chrono::nanoseconds deadline,
                       std::vector<T>& out) {
    out.clear();
    if (max_items == 0) max_items = 1;
    std::unique_lock<std::mutex> lock(mutex_);
    // Tell producers how many items this consumer is waiting on, so a push
    // below the threshold skips its notify: without this, every push while
    // the consumer waits out the coalescing window is a futex wake (and on
    // a loaded box, a context switch) just to re-check a false predicate.
    // kick()/close() still notify unconditionally, and the timed wait's
    // deadline needs no producer signal at all.
    wanted_ = 1;
    pop_cv_.wait(lock, [&] { return closed_ || !heap_.empty(); });
    BatchFlush reason;
    if (heap_.size() >= max_items) {
      reason = BatchFlush::kSize;
    } else if (closed_) {
      reason = heap_.empty() ? BatchFlush::kEmpty : BatchFlush::kClosed;
    } else if (kicked_) {
      reason = BatchFlush::kKicked;
    } else {
      wanted_ = max_items;
      const auto flush_at = std::chrono::steady_clock::now() + deadline;
      pop_cv_.wait_until(lock, flush_at,
                         [&] { return closed_ || kicked_ || heap_.size() >= max_items; });
      if (heap_.size() >= max_items) reason = BatchFlush::kSize;
      else if (closed_) reason = heap_.empty() ? BatchFlush::kEmpty : BatchFlush::kClosed;
      else if (kicked_) reason = BatchFlush::kKicked;
      else reason = BatchFlush::kDeadline;
    }
    wanted_ = kNoConsumer;  // not waiting anymore; pushes can stay silent
    const std::size_t take = heap_.size() < max_items ? heap_.size() : max_items;
    out.reserve(take);
    for (std::size_t i = 0; i < take; ++i) out.push_back(heap_pop());
    // A kick's obligation is met once the queue is drained; a fresh kick
    // after new pushes re-arms it.
    if (heap_.empty()) kicked_ = false;
    if (take > 0) push_cv_.notify_all();
    return reason;
  }

  std::size_t depth() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return heap_.size();
  }

  std::size_t max_depth() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return max_depth_;
  }

 private:
  // std::push_heap keeps the *greatest* element (per the comparator) at the
  // front; serving best-first therefore heapifies on the inverted order.
  // The heap holds slot indices, so every swap a sift performs moves one
  // integer; the comparator reads the slots through the indirection.
  bool heap_less(std::size_t a, std::size_t b) const {
    return before_(slots_[b], slots_[a]);
  }

  void heap_push(T&& item) {
    std::size_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
      slots_[slot] = std::move(item);  // reuses the old occupant's buffers
    } else {
      slot = slots_.size();
      slots_.push_back(std::move(item));
    }
    heap_.push_back(slot);
    std::push_heap(heap_.begin(), heap_.end(),
                   [this](std::size_t a, std::size_t b) { return heap_less(a, b); });
    if (heap_.size() > max_depth_) max_depth_ = heap_.size();
  }

  T heap_pop() {
    std::pop_heap(heap_.begin(), heap_.end(),
                  [this](std::size_t a, std::size_t b) { return heap_less(a, b); });
    const std::size_t slot = heap_.back();
    heap_.pop_back();
    free_.push_back(slot);
    return std::move(slots_[slot]);
  }

  const std::size_t capacity_;
  Before before_;
  mutable std::mutex mutex_;
  std::condition_variable pop_cv_;
  std::condition_variable push_cv_;
  // Slot pool (fixed homes for queued items; a freed slot keeps its
  // buffers), the index heap ordered by heap_less, and the free list.
  std::vector<T> slots_;
  std::vector<std::size_t> heap_;
  std::vector<std::size_t> free_;
  // Pop-side wake threshold (see pop_batch): the queue depth at which a
  // push must notify. kNoConsumer while no pop_batch is waiting.
  static constexpr std::size_t kNoConsumer = static_cast<std::size_t>(-1);
  std::size_t wanted_ = kNoConsumer;
  std::size_t max_depth_ = 0;
  bool closed_ = false;
  bool kicked_ = false;
};

}  // namespace isr::core
