// A bounded multi-producer/multi-consumer queue whose consumers pop
// batches in a caller-supplied priority order. It is work-conserving: a
// consumer waits only while the queue is empty, and then takes whatever is
// queued, up to its batch size — producers that push runs (the serving
// cluster admits requests in runs of its batch size) already did the
// batching. This is the serving cluster's shard-hop primitive (src/cluster/
// feeds each shard's worker through one), but it is deliberately generic.
//
// Backpressure contract: the queue is bounded; push_run() BLOCKS for room
// (admitters are client threads with nothing better to do, and shedding —
// not helping — is the overload policy). push_redrive() is the one way past
// the bound: it never blocks, fails only on a closed queue, and is meant
// for items a consumer already popped and hands back for another attempt,
// so what it adds is bounded by what was drained.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

namespace isr::core {

// A bounded MPMC batch queue that pops in a caller-supplied order rather
// than FIFO: `Before(a, b)` returns true when `a` must be served before
// `b` (the cluster uses strict priority class, then earliest deadline,
// then admission sequence). Internally a binary heap, so push and pop are
// O(log n) and a batch pop is O(k log n) — insertion order never matters,
// which is what makes concurrent admitters deterministic once each item
// carries a total-order key.
//
// Storage is a slot pool: items live in fixed slots reused across their
// lifetime (a moved-out slot keeps its strings' heap capacity for the next
// occupant), and the heap orders slot INDICES — sift operations move
// 8-byte integers, never the queued objects themselves. Both structures
// are reserved to the queue capacity up front, so a warmed-up queue pushes
// and pops with zero heap traffic — part of the serving path's
// steady-state zero-allocation contract (only re-drives past the bound
// can grow them).
template <class T, class Before>
class OrderedBatchQueue {
 public:
  explicit OrderedBatchQueue(std::size_t capacity, Before before = Before{})
      : capacity_(capacity > 0 ? capacity : 1), before_(before) {
    slots_.reserve(capacity_);
    heap_.reserve(capacity_);
    free_.reserve(capacity_);
  }

  // Moves items[0..count) in, in order, blocking for room. Each stretch of
  // free room is filled under one lock acquisition (and at most one
  // consumer wake), so an admitted run costs one lock per stretch instead
  // of one per item. Returns how many items went in: fewer than `count`
  // only when the queue is (or becomes) closed, in which case
  // items[returned..count) are untouched.
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
        wake = parked_ > 0;
      }
      if (wake) pop_cv_.notify_one();
    }
    return pushed;
  }

  // Hands a popped item back for another attempt. Never blocks and ignores
  // the capacity bound (a consumer re-driving into a full queue must not
  // wait on itself or on a sibling waiting on it); returns false only when
  // the queue is closed. The item is untouched then (rvalue-reference
  // parameter: nothing is moved until the push is known to succeed).
  bool push_redrive(T&& item) {
    bool wake;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return false;
      heap_push(std::move(item));
      wake = parked_ > 0;
    }
    if (wake) pop_cv_.notify_one();
    return true;
  }

  // No more pushes; consumers drain what remains, then pop_batch returns
  // false.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    pop_cv_.notify_all();
    push_cv_.notify_all();
  }

  // Pops up to `max_items` into `out` (cleared first), best-first per
  // `Before`. Blocks only while the queue is empty and open; returns false
  // once it is closed and empty — the consumer's signal to stop.
  bool pop_batch(std::size_t max_items, std::vector<T>& out) {
    out.clear();
    if (max_items == 0) max_items = 1;
    std::unique_lock<std::mutex> lock(mutex_);
    // Producers notify only while a consumer is parked here, so a busy
    // consumer costs them no futex wake.
    ++parked_;
    pop_cv_.wait(lock, [&] { return closed_ || !heap_.empty(); });
    --parked_;
    if (heap_.empty()) return false;
    const std::size_t take = std::min(heap_.size(), max_items);
    out.reserve(take);
    for (std::size_t i = 0; i < take; ++i) out.push_back(heap_pop());
    // A run's one wake reaches one consumer; pass on what it left behind.
    const bool chain = !heap_.empty() && parked_ > 0;
    lock.unlock();
    if (chain) pop_cv_.notify_one();
    push_cv_.notify_all();
    return true;
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
  std::size_t parked_ = 0;  // consumers waiting in pop_batch
  std::size_t max_depth_ = 0;
  bool closed_ = false;
};

}  // namespace isr::core
