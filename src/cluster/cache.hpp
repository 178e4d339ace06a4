// Response cache for the serving cluster: an LRU keyed by the canonical
// byte serialization of a request, split into independently locked ways
// of at most 64 slots, so concurrent shard workers do not serialize on one
// mutex. A hit returns the stored AdvisorResponse verbatim — and because a
// response is a pure function of (request, fitted models), a cached
// response is bitwise the response evaluation would have produced, so
// cache state can never change the bytes a client sees (the cluster's
// determinism contract).
//
// Lifecycle:
//   - PARTITIONS: the cache is hard-partitioned per resident corpus, each
//     partition owning entries/partitions slots. One corpus's traffic can
//     therefore never evict another corpus's entries — the quota is
//     structural, not an accounting policy.
//   - EPOCHS: every entry carries the bundle epoch its response was
//     computed under. A lookup pinned to epoch E only hits entries stamped
//     E (an older entry is lazily emptied in passing); a refit calls
//     invalidate_stale() to sweep exactly the refitted corpus's stale
//     entries, leaving every other partition untouched.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/advisor.hpp"

namespace isr::cluster {

// The canonical request bytes, binary and fixed-layout: the budget's exact
// IEEE-754 bit pattern (so 0.1 + 0.2 and 0.3 are different keys, as they
// must be — they produce different predictions, and +0.0/-0.0 or two NaN
// payloads stay distinct too), then the renderer and n_per_task, tasks,
// image_edge, frames as raw 32-bit ints, then the arch and the corpus
// strings, each prefixed with its 64-bit length so no crafted string —
// embedded NULs or bytes that mimic a length prefix included — can collide
// with another request's encoding. Host byte order: the key never leaves
// the process. The corpus selector is part of the key, so responses cached
// for one resident corpus can never be served for another.
std::string canonical_request_key(const serve::AdvisorRequest& request);

// Allocation-free form for the serving path: rebuilds the key in `out`,
// reusing its capacity. The key is a pure function of the request, so
// admission and the drain worker can each rebuild it into a scratch buffer
// instead of threading a heap string through the queue. The allocating
// form above delegates here.
void canonical_request_key_into(const serve::AdvisorRequest& request, std::string& out);

class ResponseCache {
 public:
  // `entries` caps the TOTAL cached responses; 0 disables the cache
  // (lookup always misses, insert is a no-op). `partitions` splits that
  // total evenly — each partition holds max(1, entries/partitions) entries
  // (the per-corpus quota). A partition is set-associative: ceil(quota/64)
  // independently locked ways of ceil(quota/ways) slots each, so a way
  // never holds more than 64 entries and the quota is rounded up by at
  // most ways-1.
  explicit ResponseCache(std::size_t entries, std::size_t partitions = 1);

  bool enabled() const { return partitions_ > 0; }

  // On hit — same partition, same epoch, same key — copies the stored
  // response into `out`, refreshes recency, and returns true. An entry
  // stamped with an OLDER epoch is a miss and is emptied in passing (it can
  // never hit again); a NEWER entry is just a miss (the looker pinned an
  // old bundle mid-swap). Both outcomes count toward the hit-rate metrics.
  bool lookup(std::size_t partition, std::uint64_t epoch, const std::string& key,
              serve::AdvisorResponse& out);

  // Inserts (or refreshes) `key` under `epoch` in `partition`: the slot
  // already holding the key, else an empty slot, else the way's
  // least-recently-used slot. Allocation-free at steady state: every slot
  // and its key buffer exist from construction, and key bytes are copied
  // into the slot's buffer.
  void insert(std::size_t partition, std::uint64_t epoch, const std::string& key,
              const serve::AdvisorResponse& response);

  // Sweeps `partition`, emptying every entry older than `keep_epoch` and
  // returning how many were evicted. A refit calls this with the new
  // bundle's epoch: exactly the refitted corpus's stale entries go, every
  // other partition keeps its working set.
  std::size_t invalidate_stale(std::size_t partition, std::uint64_t keep_epoch);

  long lookups() const { return lookups_.load(std::memory_order_relaxed); }
  long hits() const { return hits_.load(std::memory_order_relaxed); }
  std::size_t size() const;  // responses currently held, all partitions
  std::size_t partitions() const { return partitions_; }
  std::size_t capacity() const { return partitions_ * partition_capacity(0); }
  // One partition's quota (the sum of its ways' slots).
  std::size_t partition_capacity(std::size_t partition) const {
    return partition < partitions_ ? ways_per_partition_ * slots_per_way_ : 0;
  }

 private:
  struct Entry {
    std::string key;  // full key bytes, the collision-proof identity
    std::uint64_t epoch = 0;
    serve::AdvisorResponse response;
  };
  // One way: exact LRU over a fixed slot array. Every touch stamps the
  // slot with the way's next recency tick, so the lowest tick is the
  // least recently used and tick 0 marks an empty slot. The key's 64-bit
  // hash (8-byte words mixed one at a time, splitmix64-finalized) is
  // computed once per operation — it also picks the way — and the hashes
  // and ticks sit in their own arrays, so a probe or a victim search
  // scans contiguous words. A hash match is trusted only after the full
  // key bytes compare equal, so a 64-bit collision is a miss, never a
  // wrong response (the determinism contract does not rest on hashes).
  // Cache-line aligned, so neighbouring ways' locks never share a line.
  struct alignas(64) Way {
    std::mutex mutex;
    std::uint64_t clock = 0;
    std::vector<std::uint64_t> hashes;
    std::vector<std::uint64_t> ticks;
    std::vector<Entry> entries;
    bool holds(std::size_t slot, std::uint64_t h, const std::string& key) const {
      return hashes[slot] == h && ticks[slot] != 0 && entries[slot].key == key;
    }
  };

  // The key's hash picks the way within its partition.
  Way& way_for(std::size_t partition, std::uint64_t hash) const {
    return ways_[partition * ways_per_partition_ + hash % ways_per_partition_];
  }

  std::size_t partitions_ = 0;  // 0 when disabled
  std::size_t ways_per_partition_ = 0;
  std::size_t slots_per_way_ = 0;
  std::unique_ptr<Way[]> ways_;  // partition-major
  std::atomic<long> lookups_{0};
  std::atomic<long> hits_{0};
};

}  // namespace isr::cluster
