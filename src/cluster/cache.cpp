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

}  // namespace

// The key's 64-bit hash, one 8-byte word at a time: each word is folded in
// with a multiply-xorshift step, a short tail is zero-padded into one last
// word, the length seeds the state (so a padded tail cannot alias a longer
// key), and splitmix64 finalizes. A collision is only ever a cache miss —
// lookups compare the full key bytes.
std::uint64_t ResponseCache::key_hash(const std::string& key) {
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

namespace {

// Slot `slot`'s tag lane. Writers hold the way's mutex, so the word's
// load-modify-store cannot lose a concurrent writer's lane.
void set_tag(std::atomic<std::uint64_t>* tags, std::size_t slot, std::uint16_t tag) {
  std::atomic<std::uint64_t>& word = tags[slot / 4];
  const unsigned shift = 16 * static_cast<unsigned>(slot % 4);
  const std::uint64_t old = word.load(std::memory_order_relaxed);
  word.store((old & ~(std::uint64_t{0xFFFF} << shift)) |
                 static_cast<std::uint64_t>(tag) << shift,
             std::memory_order_relaxed);
}

// Where a held slot sits in the order line's live prefix.
std::size_t position(const std::uint8_t* order, std::size_t live, int slot) {
  return static_cast<std::size_t>(
      static_cast<const std::uint8_t*>(std::memchr(order, slot, live)) - order);
}

// Moves order[pos] to the front, shifting the more recent slots back one.
void touch(std::uint8_t* order, std::size_t pos) {
  const std::uint8_t slot = order[pos];
  std::memmove(order + 1, order, pos);
  order[0] = slot;
}

}  // namespace

ResponseCache::ResponseCache(std::size_t entries, std::size_t partitions) {
  if (entries == 0) return;  // disabled
  partitions_ = partitions > 0 ? partitions : 1;
  // Every partition gets an equal, nonzero quota: a resident corpus with a
  // cache at all must be able to hold at least one entry, even when the
  // operator configures fewer total entries than corpora.
  const std::size_t quota = std::max<std::size_t>(1, entries / partitions_);
  ways_per_partition_ = (quota + 63) / 64;
  slots_per_way_ = (quota + ways_per_partition_ - 1) / ways_per_partition_;
  tag_words_ = (slots_per_way_ + 3) / 4;
  // A way never holds more than its slots, so all of its storage — key
  // buffers included — is paid for here and a fill never calls malloc.
  ways_ = std::make_unique<Way[]>(partitions_ * ways_per_partition_);
  for (std::size_t w = 0; w < partitions_ * ways_per_partition_; ++w) {
    Way& way = ways_[w];
    for (std::atomic<std::uint64_t>& word : way.tags) word.store(0, std::memory_order_relaxed);
    for (std::size_t i = 0; i < 64; ++i) way.order[i] = static_cast<std::uint8_t>(i);
    way.entries.resize(slots_per_way_);
    for (Entry& entry : way.entries) entry.key.reserve(96);  // a key is ~60 bytes
  }
}

std::uint64_t ResponseCache::tag_matches(const Way& way, std::uint16_t tag) const {
  // SWAR, one word (four slots) a step.
  constexpr std::uint64_t kLaneLow = 0x7FFF7FFF7FFF7FFFull;
  const std::uint64_t pattern = 0x0001000100010001ull * tag;
  std::uint64_t matches = 0;
  for (std::size_t w = 0; w < tag_words_; ++w) {
    const std::uint64_t x = way.tags[w].load(std::memory_order_relaxed) ^ pattern;
    // The top bit of each 16-bit lane is set iff the lane is zero, i.e.
    // the slot's tag equals `tag`; masking the top bit first keeps a lane's
    // carry out of its neighbour, so no lane reads a false match.
    const std::uint64_t zero = ~(((x & kLaneLow) + kLaneLow) | x | kLaneLow);
    if (zero == 0) continue;
    // Gather the four lane flags (bits 15, 31, 47, 63) into bits 45-48 of
    // one product: every partial product lands on its own bit, so there
    // are no carries.
    const std::uint64_t lanes = (zero >> 15) * 0x0000200040008001ull;
    matches |= ((lanes >> 45) & 0xF) << (4 * w);
  }
  return matches;
}

int ResponseCache::find(const Way& way, std::uint64_t candidates, std::uint16_t tag,
                        const std::string& key) const {
  for (; candidates != 0; candidates &= candidates - 1) {
    const auto slot = static_cast<std::size_t>(__builtin_ctzll(candidates));
    // The lock-free scan may have read a tag since rewritten: re-read it
    // under the mutex before trusting the slot's key bytes.
    const std::uint64_t word = way.tags[slot / 4].load(std::memory_order_relaxed);
    if (static_cast<std::uint16_t>(word >> (16 * (slot % 4))) == tag &&
        way.entries[slot].key == key)
      return static_cast<int>(slot);
  }
  return -1;
}

bool ResponseCache::probe(std::size_t partition, std::uint64_t epoch, const std::string& key,
                          serve::AdvisorResponse& out) {
  if (partition >= partitions_) return false;  // also the disabled cache
  const std::uint64_t h = key_hash(key);
  const std::uint16_t tag = key_tag(h);
  Way& way = way_for(partition, h);
  const std::uint64_t candidates = tag_matches(way, tag);
  if (candidates == 0) return false;
  std::lock_guard<std::mutex> lock(way.mutex);
  const int slot = find(way, candidates, tag, key);
  if (slot < 0) return false;
  const std::size_t pos = position(way.order, way.live, slot);
  const Entry& entry = way.entries[static_cast<std::size_t>(slot)];
  if (entry.epoch != epoch) {
    // Stale entry from a superseded epoch: empty it in passing — no future
    // lookup can want it. A NEWER entry (the looker pinned an old bundle
    // mid-swap) is left alone; the post-swap traffic wants it.
    if (entry.epoch < epoch) {
      set_tag(way.tags, static_cast<std::size_t>(slot), 0);
      std::memmove(way.order + pos, way.order + pos + 1, way.live - 1 - pos);
      way.order[--way.live] = static_cast<std::uint8_t>(slot);
    }
    return false;
  }
  touch(way.order, pos);  // refresh recency
  out = entry.response;
  return true;
}

void ResponseCache::insert(std::size_t partition, std::uint64_t epoch,
                           const std::string& key,
                           const serve::AdvisorResponse& response) {
  if (partition >= partitions_) return;  // also the disabled cache
  const std::uint64_t h = key_hash(key);
  const std::uint16_t tag = key_tag(h);
  Way& way = way_for(partition, h);
  std::lock_guard<std::mutex> lock(way.mutex);
  // The slot already holding the key, else the first empty slot, else the
  // least recently used one; each then moves to the front of the order.
  const int held = find(way, tag_matches(way, tag), tag, key);
  std::size_t slot = 0;
  if (held >= 0) {
    slot = static_cast<std::size_t>(held);
    touch(way.order, position(way.order, way.live, held));
  } else {
    if (way.live < slots_per_way_) ++way.live;
    touch(way.order, way.live - 1u);
    slot = way.order[0];
    way.entries[slot].key.assign(key);
    set_tag(way.tags, slot, tag);
  }
  Entry& entry = way.entries[slot];
  entry.epoch = epoch;
  entry.response = response;
}

std::size_t ResponseCache::invalidate_stale(std::size_t partition,
                                            std::uint64_t keep_epoch) {
  if (partition >= partitions_) return 0;
  std::size_t evicted = 0;
  for (std::size_t w = 0; w < ways_per_partition_; ++w) {
    Way& way = ways_[partition * ways_per_partition_ + w];
    std::lock_guard<std::mutex> lock(way.mutex);
    // Stable partition of the live prefix: kept slots keep their recency
    // order, stale ones join the empty tail.
    std::uint8_t stale[64];
    std::size_t kept = 0;
    std::size_t n_stale = 0;
    for (std::size_t pos = 0; pos < way.live; ++pos) {
      const std::uint8_t slot = way.order[pos];
      if (way.entries[slot].epoch < keep_epoch) {
        set_tag(way.tags, slot, 0);
        stale[n_stale++] = slot;
      } else {
        way.order[kept++] = slot;
      }
    }
    std::memcpy(way.order + kept, stale, n_stale);
    way.live = static_cast<std::uint8_t>(kept);
    evicted += n_stale;
  }
  return evicted;
}

std::size_t ResponseCache::size() const {
  std::size_t total = 0;
  for (std::size_t w = 0; w < partitions_ * ways_per_partition_; ++w) {
    std::lock_guard<std::mutex> lock(ways_[w].mutex);
    total += ways_[w].live;
  }
  return total;
}

}  // namespace isr::cluster
