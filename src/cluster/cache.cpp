#include "cluster/cache.hpp"

#include <cstring>
#include <iterator>
#include <utility>

#include "math/rng.hpp"

namespace isr::cluster {

namespace {

template <class T>
inline char* put_raw(char* p, T v) {
  std::memcpy(p, &v, sizeof(v));
  return p + sizeof(v);
}

inline char* put_string(char* p, const std::string& s) {
  p = put_raw(p, static_cast<std::uint64_t>(s.size()));
  if (!s.empty()) std::memcpy(p, s.data(), s.size());
  return p + s.size();
}

// The key's 64-bit hash, one 8-byte word at a time: each word is folded in
// with a multiply-xorshift step, a short tail is zero-padded into one last
// word, the length seeds the state (so a padded tail cannot alias a longer
// key), and splitmix64 finalizes. A collision is only ever a cache miss —
// lookups compare the full key bytes.
std::uint64_t key_hash(const std::string& key) {
  const char* p = key.data();
  std::size_t n = key.size();
  std::uint64_t h = 0x57A9E5ull ^ (static_cast<std::uint64_t>(n) * 0x9E3779B97F4A7C15ull);
  const auto fold = [&h](std::uint64_t word) {
    h = (h ^ word) * 0xBF58476D1CE4E5B9ull;
    h ^= h >> 31;
  };
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, 8);
    fold(word);
  }
  if (n > 0) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, n);
    fold(word);
  }
  return splitmix64(h);
}

}  // namespace

void canonical_request_key_into(const serve::AdvisorRequest& r, std::string& key) {
  static_assert(sizeof(double) == sizeof(std::uint64_t), "double must be 64-bit");
  constexpr std::size_t kFixed = sizeof(std::uint64_t) + 5 * sizeof(std::int32_t);
  key.resize(kFixed + 2 * sizeof(std::uint64_t) + r.arch.size() + r.corpus.size());
  char* p = key.data();
  std::uint64_t budget_bits = 0;
  std::memcpy(&budget_bits, &r.budget_seconds, sizeof(budget_bits));
  p = put_raw(p, budget_bits);
  p = put_raw(p, static_cast<std::int32_t>(r.renderer));
  p = put_raw(p, static_cast<std::int32_t>(r.n_per_task));
  p = put_raw(p, static_cast<std::int32_t>(r.tasks));
  p = put_raw(p, static_cast<std::int32_t>(r.image_edge));
  p = put_raw(p, static_cast<std::int32_t>(r.frames));
  p = put_string(p, r.arch);
  put_string(p, r.corpus);
}

std::string canonical_request_key(const serve::AdvisorRequest& r) {
  std::string key;
  canonical_request_key_into(r, key);
  return key;
}

ResponseCache::ResponseCache(std::size_t entries, int ways, std::size_t partitions) {
  if (entries == 0) return;  // disabled
  if (partitions < 1) partitions = 1;
  // Every partition gets an equal, nonzero quota: a resident corpus with a
  // cache at all must be able to hold at least one entry, even when the
  // operator configures fewer total entries than corpora.
  const std::size_t quota = entries / partitions > 0 ? entries / partitions : 1;
  if (ways < 1) ways = 1;
  if (static_cast<std::size_t>(ways) > quota) ways = static_cast<int>(quota);
  const std::size_t per_way =
      (quota + static_cast<std::size_t>(ways) - 1) / static_cast<std::size_t>(ways);
  partitions_.resize(partitions);
  for (Partition& partition : partitions_) {
    partition.ways.reserve(static_cast<std::size_t>(ways));
    for (int w = 0; w < ways; ++w) {
      auto way = std::make_unique<Way>();
      way->capacity = per_way;
      // The way can never hold more than its capacity, so ALL of its
      // storage is paid for here: the index's buckets (no rehash during
      // fill), a spare list node per slot, and a detached index node per
      // slot (materialized through a scratch map, then extracted — a
      // node handle keeps its allocation and its key's buffer). A cold
      // fill then consumes pre-built nodes instead of calling malloc
      // per insert, which is most of what made a cache-filling run slower
      // than an uncached one.
      way->index.reserve(per_way);
      for (std::size_t i = 0; i < per_way; ++i) {
        way->spare.emplace_back();
        way->spare.back().key.reserve(96);  // a typical key is ~50 bytes
      }
      Index scratch;
      scratch.reserve(per_way);
      for (std::size_t i = 0; i < per_way; ++i)
        scratch.emplace(static_cast<std::uint64_t>(i), way->spare.begin());
      way->node_pool.reserve(per_way);
      while (!scratch.empty())
        way->node_pool.push_back(scratch.extract(scratch.begin()));
      partition.ways.push_back(std::move(way));
    }
  }
}

ResponseCache::Way& ResponseCache::way_for(std::size_t partition, std::uint64_t hash) {
  // The key bytes are hashed exactly once per cache operation (key_hash);
  // way selection uses the low bits, the index uses the full value through
  // IdentityHash.
  Partition& p = partitions_[partition];
  return *p.ways[static_cast<std::size_t>(hash % p.ways.size())];
}

bool ResponseCache::lookup(std::size_t partition, std::uint64_t epoch,
                           const std::string& key, serve::AdvisorResponse& out) {
  if (!enabled()) return false;
  lookups_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t h = key_hash(key);
  Way& way = way_for(partition, h);
  std::lock_guard<std::mutex> lock(way.mutex);
  const auto it = way.index.find(h);
  if (it == way.index.end()) return false;
  // A 64-bit hash collision between distinct keys is a plain miss — the
  // stored bytes are the identity, the hash is only the lookup shortcut.
  if (it->second->key != key) return false;
  if (it->second->epoch != epoch) {
    // Stale entry from a superseded epoch: evict in passing — no future
    // lookup can want it. A NEWER entry (the looker pinned an old bundle
    // mid-swap) is left alone; the post-swap traffic wants it. Both nodes
    // go back to the way's pre-allocated pools, not to the heap.
    if (it->second->epoch < epoch) {
      const auto entry = it->second;
      way.node_pool.push_back(way.index.extract(it));
      way.spare.splice(way.spare.begin(), way.lru, entry);
    }
    return false;
  }
  way.lru.splice(way.lru.begin(), way.lru, it->second);  // refresh recency
  out = it->second->response;
  hits_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void ResponseCache::insert(std::size_t partition, std::uint64_t epoch,
                           const std::string& key,
                           const serve::AdvisorResponse& response) {
  if (!enabled()) return;
  const std::uint64_t h = key_hash(key);
  Way& way = way_for(partition, h);
  std::lock_guard<std::mutex> lock(way.mutex);
  const auto it = way.index.find(h);
  if (it != way.index.end()) {
    // Refresh — or, on a 64-bit collision with a different key, replace
    // the colliding entry (an eviction the LRU was allowed anyway).
    Entry& entry = *it->second;
    if (entry.key != key) entry.key.assign(key);
    entry.epoch = epoch;
    entry.response = response;
    way.lru.splice(way.lru.begin(), way.lru, it->second);
    return;
  }
  if (way.lru.size() >= way.capacity) {
    // Evict-by-recycling: splice the LRU node to the front and overwrite
    // it, re-homing its index slot through a node handle — a full way
    // turns over entries with zero list/map allocations (assign() copies
    // the key bytes into the victim's existing buffer).
    const auto victim = std::prev(way.lru.end());
    auto node = way.index.extract(victim->hash);
    way.lru.splice(way.lru.begin(), way.lru, victim);
    victim->key.assign(key);
    victim->hash = h;
    victim->epoch = epoch;
    victim->response = response;
    node.key() = h;
    node.mapped() = victim;
    way.index.insert(std::move(node));
    return;
  }
  // Filling: consume one pre-built list node and one pre-built index node
  // (see the constructor). The fallbacks only matter for entries displaced
  // into a way beyond its nominal share by invalidate_stale churn.
  if (!way.spare.empty()) {
    way.lru.splice(way.lru.begin(), way.spare, way.spare.begin());
  } else {
    way.lru.emplace_front();
  }
  Entry& entry = way.lru.front();
  entry.key.assign(key);
  entry.hash = h;
  entry.epoch = epoch;
  entry.response = response;
  if (!way.node_pool.empty()) {
    auto node = std::move(way.node_pool.back());
    way.node_pool.pop_back();
    node.key() = h;
    node.mapped() = way.lru.begin();
    way.index.insert(std::move(node));
  } else {
    way.index.emplace(h, way.lru.begin());
  }
}

std::size_t ResponseCache::invalidate_stale(std::size_t partition,
                                            std::uint64_t keep_epoch) {
  if (!enabled() || partition >= partitions_.size()) return 0;
  std::size_t evicted = 0;
  for (const auto& way : partitions_[partition].ways) {
    std::lock_guard<std::mutex> lock(way->mutex);
    for (auto it = way->lru.begin(); it != way->lru.end();) {
      if (it->epoch < keep_epoch) {
        // Recycle both nodes into the way's pools (see insert): a refit
        // sweep frees capacity without surrendering it to the heap.
        way->node_pool.push_back(way->index.extract(it->hash));
        const auto stale = it++;
        way->spare.splice(way->spare.begin(), way->lru, stale);
        ++evicted;
      } else {
        ++it;
      }
    }
  }
  return evicted;
}

std::size_t ResponseCache::size() const {
  std::size_t total = 0;
  for (const Partition& partition : partitions_)
    for (const auto& way : partition.ways) {
      std::lock_guard<std::mutex> lock(way->mutex);
      total += way->lru.size();
    }
  return total;
}

std::size_t ResponseCache::capacity() const {
  std::size_t total = 0;
  for (const Partition& partition : partitions_)
    for (const auto& way : partition.ways) total += way->capacity;
  return total;
}

std::size_t ResponseCache::partition_capacity(std::size_t partition) const {
  if (partition >= partitions_.size()) return 0;
  std::size_t total = 0;
  for (const auto& way : partitions_[partition].ways) total += way->capacity;
  return total;
}

}  // namespace isr::cluster
