#include "cluster/router.hpp"

#include <algorithm>
#include <numeric>

#include "math/rng.hpp"

namespace isr::cluster {

namespace {
// Domain-separation salts so ring points, request keys, and rendezvous
// scores draw from unrelated hash streams.
constexpr std::uint64_t kRingSalt = 0xC105732Bull;
constexpr std::uint64_t kRendezvousSalt = 0x5D12EBAAull;
}  // namespace

Router::Router(int shards, RouterOptions options)
    : shards_(shards > 0 ? shards : 1), options_(options) {
  if (options_.replicas < 1) options_.replicas = 1;
  if (options_.decay_window == 0) options_.decay_window = 1;
  ring_.reserve(static_cast<std::size_t>(shards_) *
                static_cast<std::size_t>(options_.replicas));
  for (int s = 0; s < shards_; ++s)
    for (int v = 0; v < options_.replicas; ++v)
      ring_.emplace_back(hash_seed(kRingSalt, static_cast<std::uint64_t>(s),
                                   static_cast<std::uint64_t>(v)),
                         s);
  std::sort(ring_.begin(), ring_.end());
}

int Router::ring_successor(std::uint64_t point) const {
  const auto it = std::lower_bound(ring_.begin(), ring_.end(),
                                   std::make_pair(point, 0));
  return it == ring_.end() ? ring_.front().second : it->second;
}

int Router::shard_for(std::uint64_t corpus_fingerprint, const std::string& arch) const {
  if (shards_ == 1) return 0;
  return ring_successor(hash_seed(corpus_fingerprint, arch));
}

namespace {

// The shared rendezvous computation: shards sorted by their per-key hash
// score, a deterministic per-key permutation of [0, shards).
std::vector<int> rendezvous_for(std::uint64_t key, int shards) {
  std::vector<int> order(static_cast<std::size_t>(shards));
  std::iota(order.begin(), order.end(), 0);
  std::vector<std::uint64_t> score(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s)
    score[static_cast<std::size_t>(s)] =
        hash_seed(kRendezvousSalt, key, static_cast<std::uint64_t>(s));
  std::sort(order.begin(), order.end(), [&score](int a, int b) {
    return score[static_cast<std::size_t>(a)] > score[static_cast<std::size_t>(b)];
  });
  return order;
}

}  // namespace

std::vector<int> Router::rendezvous_order(std::uint64_t corpus_fingerprint,
                                          const std::string& arch) const {
  return rendezvous_for(hash_seed(corpus_fingerprint, arch), shards_);
}

bool Router::is_hot(double load) const {
  return load >= options_.min_hot_load &&
         load > options_.imbalance_ratio * (total_load_ / static_cast<double>(shards_));
}

int Router::route(std::uint64_t corpus_fingerprint, const std::string& arch) {
  if (shards_ == 1) return 0;
  const std::uint64_t key = hash_seed(corpus_fingerprint, arch);
  if (options_.imbalance_ratio <= 0.0) return ring_successor(key);

  // Decay first, so one long-lived router converges on recent traffic: the
  // window halves every counter (and the total), and entries that decayed
  // to noise are dropped to bound the map.
  if (++routes_since_decay_ >= options_.decay_window) {
    routes_since_decay_ = 0;
    total_load_ = 0.0;
    for (auto it = load_.begin(); it != load_.end();) {
      it->second.load *= 0.5;
      if (it->second.load < 0.5) {
        it = load_.erase(it);
      } else {
        total_load_ += it->second.load;
        ++it;
      }
    }
  }

  KeyLoad& entry = load_[key];
  entry.load += 1.0;
  total_load_ += 1.0;
  // The home shard is a pure function of the key; cache it so neither the
  // cold path nor the hot path's off-home classification re-searches the
  // ring per request.
  if (entry.home < 0) entry.home = ring_successor(key);
  if (!is_hot(entry.load)) return entry.home;

  // Hot: split the key across its rendezvous shard order (a deterministic
  // per-key permutation of all shards), round-robin per request. The
  // cursor — not a random draw — keeps a fixed request sequence's shard
  // loads reproducible, which test_cluster's skewed-stream case measures.
  if (entry.rendezvous.empty()) entry.rendezvous = rendezvous_for(key, shards_);
  const std::size_t pick = entry.rr++ % static_cast<std::size_t>(shards_);
  const int shard = entry.rendezvous[pick];
  // ~1/shards of the round-robin picks are the home shard itself; only the
  // genuinely moved requests count as rebalanced (metrics.hpp's meaning).
  if (shard != entry.home) rebalanced_.fetch_add(1, std::memory_order_relaxed);
  return shard;
}

int Router::hot_keys() const {
  if (options_.imbalance_ratio <= 0.0 || shards_ == 1) return 0;
  int hot = 0;
  for (const auto& kv : load_)
    if (is_hot(kv.second.load)) ++hot;
  return hot;
}

}  // namespace isr::cluster
