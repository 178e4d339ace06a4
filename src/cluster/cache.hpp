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
  // old bundle mid-swap). Counts one lookup (and the hit) toward the
  // hit-rate metrics. A disabled cache, or a partition outside
  // [0, partitions()), simply misses and counts nothing.
  bool lookup(std::size_t partition, std::uint64_t epoch, const std::string& key,
              serve::AdvisorResponse& out) {
    if (partition >= partitions_) return false;
    const bool hit = probe(partition, epoch, key, out);
    count(1, hit ? 1 : 0);
    return hit;
  }

  // lookup() without the counting: a caller probing many keys at once
  // reports them through one count() call, so the probes share no
  // counter. A miss that matches no slot's tag takes no lock and writes
  // nothing.
  bool probe(std::size_t partition, std::uint64_t epoch, const std::string& key,
             serve::AdvisorResponse& out);
  void count(long lookups, long hits) {
    lookups_.fetch_add(lookups, std::memory_order_relaxed);
    if (hits > 0) hits_.fetch_add(hits, std::memory_order_relaxed);
  }

  // Inserts (or refreshes) `key` under `epoch` in `partition`: the slot
  // already holding the key, else an empty slot, else the way's
  // least-recently-used slot. Allocation-free at steady state: every slot
  // and its key buffer exist from construction, and key bytes are copied
  // into the slot's buffer. A partition outside [0, partitions()) is a
  // no-op.
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

  // The key's 64-bit hash (8-byte words mixed one at a time,
  // splitmix64-finalized) and the nonzero 16-bit slot tag taken from its
  // low bits; the way is picked by its high bits. Public so tests can
  // build keys whose tags collide.
  static std::uint64_t key_hash(const std::string& key);
  static std::uint16_t key_tag(std::uint64_t hash) {
    const auto tag = static_cast<std::uint16_t>(hash);
    return tag != 0 ? tag : 1;
  }

 private:
  struct Entry {
    std::string key;  // full key bytes, the collision-proof identity
    std::uint64_t epoch = 0;
    serve::AdvisorResponse response;
  };
  // One way: exact LRU over at most 64 slots, in two small lines.
  //   - The TAG LINE holds each slot's 16-bit key tag, four to a relaxed
  //     64-bit atomic word; 0 marks an empty slot. Tags are written only
  //     under the mutex, so a probe compares the key's tag against every
  //     slot (SWAR, four slots per word) WITHOUT the lock: a miss that matches no
  //     tag — the cold path's common case — neither locks nor writes.
  //     On a match it locks, re-reads the matched slots' tags, and trusts
  //     a slot only after its full key bytes compare equal, so a tag or
  //     hash collision is a miss, never a wrong response (the determinism
  //     contract does not rest on hashes).
  //   - The ORDER LINE is a permutation of the slot indices, most recent
  //     first, with the `live` held slots ahead of the empty ones. A fill's
  //     victim is order[live - 1] (or the first empty slot, order[live]),
  //     and a touch is a memchr plus a memmove of at most 63 bytes: no
  //     recency tick, no slot scan. It and the entries are guarded by the
  //     mutex.
  // Cache-line aligned, so neighbouring ways' locks never share a line.
  struct alignas(64) Way {
    std::atomic<std::uint64_t> tags[16];
    std::mutex mutex;
    std::uint8_t live = 0;
    std::uint8_t order[64];
    std::vector<Entry> entries;
  };

  // Bit s is set where slot s's tag equals `tag`.
  std::uint64_t tag_matches(const Way& way, std::uint16_t tag) const;
  // The slot among `candidates` that holds `key`, or -1; under the mutex.
  int find(const Way& way, std::uint64_t candidates, std::uint16_t tag,
           const std::string& key) const;

  // The hash's high 32 bits pick the way within its partition, by a
  // multiply-shift rather than a 64-bit division.
  Way& way_for(std::size_t partition, std::uint64_t hash) const {
    return ways_[partition * ways_per_partition_ +
                 static_cast<std::size_t>(((hash >> 32) * ways_per_partition_) >> 32)];
  }

  std::size_t partitions_ = 0;  // 0 when disabled
  std::size_t ways_per_partition_ = 0;
  std::size_t slots_per_way_ = 0;
  std::size_t tag_words_ = 0;  // ceil(slots_per_way_ / 4)
  std::unique_ptr<Way[]> ways_;  // partition-major
  // Own line: a batch's one count() never invalidates the line every probe
  // and fill reads `ways_` from.
  alignas(64) std::atomic<long> lookups_{0};
  std::atomic<long> hits_{0};
};

}  // namespace isr::cluster
