#include "cluster/cache.hpp"

#include <algorithm>
#include <cstring>

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

ResponseCache::ResponseCache(std::size_t entries, std::size_t partitions) {
  if (entries == 0) return;  // disabled
  partitions_ = partitions > 0 ? partitions : 1;
  // Every partition gets an equal, nonzero quota: a resident corpus with a
  // cache at all must be able to hold at least one entry, even when the
  // operator configures fewer total entries than corpora.
  const std::size_t quota = std::max<std::size_t>(1, entries / partitions_);
  ways_per_partition_ = (quota + 63) / 64;
  slots_per_way_ = (quota + ways_per_partition_ - 1) / ways_per_partition_;
  // A way never holds more than its slots, so all of its storage — key
  // buffers included — is paid for here and a fill never calls malloc.
  ways_ = std::make_unique<Way[]>(partitions_ * ways_per_partition_);
  for (std::size_t w = 0; w < partitions_ * ways_per_partition_; ++w) {
    ways_[w].hashes.assign(slots_per_way_, 0);
    ways_[w].ticks.assign(slots_per_way_, 0);
    ways_[w].entries.resize(slots_per_way_);
    for (Entry& entry : ways_[w].entries) entry.key.reserve(96);  // a key is ~60 bytes
  }
}

bool ResponseCache::lookup(std::size_t partition, std::uint64_t epoch,
                           const std::string& key, serve::AdvisorResponse& out) {
  if (!enabled()) return false;
  lookups_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t h = key_hash(key);
  Way& way = way_for(partition, h);
  std::lock_guard<std::mutex> lock(way.mutex);
  std::size_t i = 0;
  while (i < slots_per_way_ && !way.holds(i, h, key)) ++i;
  if (i == slots_per_way_) return false;
  const Entry& entry = way.entries[i];
  if (entry.epoch != epoch) {
    // Stale entry from a superseded epoch: empty it in passing — no future
    // lookup can want it. A NEWER entry (the looker pinned an old bundle
    // mid-swap) is left alone; the post-swap traffic wants it.
    if (entry.epoch < epoch) way.ticks[i] = 0;
    return false;
  }
  way.ticks[i] = ++way.clock;  // refresh recency
  out = entry.response;
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
  // The slot already holding the key, else the lowest tick: an empty slot
  // (tick 0) if there is one, otherwise the least recently used entry.
  // One pass does both. Ticks stay far below 2^58, so (tick << 6 | slot)
  // orders slots by tick and carries the winner's index, and the min over
  // it is branch-free.
  std::size_t slot = slots_per_way_;
  std::uint64_t least = ~std::uint64_t{0};
  for (std::size_t i = 0; i < slots_per_way_; ++i) {
    if (way.holds(i, h, key)) {
      slot = i;
      break;
    }
    least = std::min(least, way.ticks[i] << 6 | i);
  }
  if (slot == slots_per_way_) slot = static_cast<std::size_t>(least & 63);
  Entry& entry = way.entries[slot];
  entry.key.assign(key);
  entry.epoch = epoch;
  entry.response = response;
  way.hashes[slot] = h;
  way.ticks[slot] = ++way.clock;
}

std::size_t ResponseCache::invalidate_stale(std::size_t partition,
                                            std::uint64_t keep_epoch) {
  if (partition >= partitions_) return 0;
  std::size_t evicted = 0;
  for (std::size_t w = 0; w < ways_per_partition_; ++w) {
    Way& way = ways_[partition * ways_per_partition_ + w];
    std::lock_guard<std::mutex> lock(way.mutex);
    for (std::size_t i = 0; i < slots_per_way_; ++i) {
      if (way.ticks[i] != 0 && way.entries[i].epoch < keep_epoch) {
        way.ticks[i] = 0;
        ++evicted;
      }
    }
  }
  return evicted;
}

std::size_t ResponseCache::size() const {
  std::size_t total = 0;
  for (std::size_t w = 0; w < partitions_ * ways_per_partition_; ++w) {
    std::lock_guard<std::mutex> lock(ways_[w].mutex);
    total += slots_per_way_ - static_cast<std::size_t>(std::count(
                                  ways_[w].ticks.begin(), ways_[w].ticks.end(), 0u));
  }
  return total;
}

}  // namespace isr::cluster
