// Response cache for the serving cluster: an LRU keyed by the canonical
// byte serialization of a request, sharded into independently locked ways
// so concurrent shard workers do not serialize on one mutex. A hit returns
// the stored AdvisorResponse verbatim — and because a response is a pure
// function of (request, fitted models), a cached response is bitwise the
// response evaluation would have produced, so cache state can never change
// the bytes a client sees (the cluster's determinism contract).
//
// Lifecycle (the recalibration PR):
//   - PARTITIONS: the cache is hard-partitioned per resident corpus, each
//     partition owning entries/partitions slots. One corpus's traffic can
//     therefore never evict another corpus's entries — the quota is
//     structural, not an accounting policy.
//   - EPOCHS: every entry carries the bundle epoch its response was
//     computed under. A lookup pinned to epoch E only hits entries stamped
//     E (an older entry is lazily erased in passing); a refit calls
//     invalidate_stale() to sweep exactly the refitted corpus's stale
//     entries, leaving every other partition untouched.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
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
  // (the per-corpus quota). `ways` is the per-partition lock-sharding
  // factor; each way holds an independent LRU of ceil(quota/ways) entries,
  // so a partition's effective quota can exceed its share by at most
  // ways-1.
  explicit ResponseCache(std::size_t entries, int ways = 8, std::size_t partitions = 1);

  bool enabled() const { return !partitions_.empty(); }

  // On hit — same partition, same epoch, same key — copies the stored
  // response into `out`, refreshes recency, and returns true. An entry
  // stamped with an OLDER epoch is a miss and is erased in passing (it can
  // never hit again); a NEWER entry is just a miss (the looker pinned an
  // old bundle mid-swap). Both outcomes count toward the hit-rate metrics.
  bool lookup(std::size_t partition, std::uint64_t epoch, const std::string& key,
              serve::AdvisorResponse& out);

  // Inserts (or refreshes) `key` under `epoch` in `partition`, evicting the
  // way's least-recently-used entry when the quota is full. Allocation-free
  // at steady state: list nodes, index nodes, and key storage are
  // pre-allocated per way at construction, a cold fill consumes them, and
  // a full way recycles its LRU victim's node in place — key bytes are
  // copied into recycled buffers, never freshly heap-allocated.
  void insert(std::size_t partition, std::uint64_t epoch, const std::string& key,
              const serve::AdvisorResponse& response);

  // Sweeps `partition`, erasing every entry older than `keep_epoch` and
  // returning how many were evicted. A refit calls this with the new
  // bundle's epoch: exactly the refitted corpus's stale entries go, every
  // other partition keeps its working set.
  std::size_t invalidate_stale(std::size_t partition, std::uint64_t keep_epoch);

  long lookups() const { return lookups_.load(std::memory_order_relaxed); }
  long hits() const { return hits_.load(std::memory_order_relaxed); }
  std::size_t size() const;      // responses currently held, all partitions
  std::size_t partitions() const { return partitions_.size(); }
  std::size_t capacity() const;  // sum of every way's capacity
  // One partition's quota (the sum of its ways' capacities).
  std::size_t partition_capacity(std::size_t partition) const;

 private:
  struct Entry {
    std::string key;          // full key bytes, the collision-proof identity
    std::uint64_t hash = 0;   // the key's 64-bit mixed hash (the index key)
    std::uint64_t epoch = 0;
    serve::AdvisorResponse response;
  };
  // The index is keyed on the key's 64-bit hash (8-byte words mixed one at
  // a time, splitmix64-finalized), NOT the key string: the hash is
  // computed once per operation (it also picks the way), already mixed
  // (the identity hasher is safe), and 8 bytes to hash-and-compare
  // instead of ~50. A probe that lands on an entry verifies the full key
  // bytes before trusting it, so a 64-bit collision degrades to a cache
  // miss / entry replacement — never a wrong response (the determinism
  // contract does not rest on hashes).
  struct IdentityHash {
    std::size_t operator()(std::uint64_t h) const noexcept {
      return static_cast<std::size_t>(h);
    }
  };
  using Index = std::unordered_map<std::uint64_t, std::list<Entry>::iterator, IdentityHash>;
  struct Way {
    std::mutex mutex;
    std::size_t capacity = 0;
    // Front = most recently used. The map indexes into the list.
    std::list<Entry> lru;
    Index index;
    // Pre-allocated storage a cold fill draws from instead of the heap:
    // `spare` holds capacity list nodes (spliced into lru one per insert)
    // and `node_pool` holds capacity detached index nodes (re-keyed and
    // re-inserted). Both are built at construction and both are empty once
    // the way is full — from then on inserts recycle the LRU victim.
    std::list<Entry> spare;
    std::vector<Index::node_type> node_pool;
  };
  struct Partition {
    std::vector<std::unique_ptr<Way>> ways;
  };

  Way& way_for(std::size_t partition, std::uint64_t hash);

  std::vector<Partition> partitions_;  // empty when disabled
  std::atomic<long> lookups_{0};
  std::atomic<long> hits_{0};
};

}  // namespace isr::cluster
