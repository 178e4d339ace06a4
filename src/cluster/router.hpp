// Request routing for the serving cluster: a consistent-hash ring over the
// shards, keyed by (calibration-corpus fingerprint, request architecture).
// Every request for one (corpus, architecture) pair lands on the same
// shard — shard affinity keeps that pair's models hot in one replica's
// cache lines — and the home assignment is a pure function of the key and
// the shard count, so routing is stable across runs, processes, and
// machines. A multi-corpus cluster routes every resident corpus through
// one ring: the fingerprint is part of the key, not of the router.
//
// Consistent hashing (virtual nodes on a sorted ring) rather than
// `hash % shards` so that resizing the cluster moves only ~1/N of the key
// space: a shard added to a warm cluster leaves most keys pinned to their
// old replica.
//
// Skew handling: shard affinity has a failure mode — one hot (corpus,
// arch) key can pin a whole shard while its siblings idle. route() tracks
// per-key load in a decaying counter; when one key's load exceeds
// `imbalance_ratio` times a shard's fair share of the traffic, the key is
// split across sub-keys: request r for hot key K goes to the
// (rr mod shards)-th shard of K's rendezvous order (shards sorted by
// hash_seed(K, shard), a per-key deterministic permutation), rr a per-key
// round-robin counter. Correctness never depends on placement — every
// shard holds every resident bundle, and responses are pure functions of
// (request, fitted models) — so rebalancing changes which replica
// evaluates, never the bytes a client sees.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace isr::cluster {

struct RouterOptions {
  // Virtual-node count per shard; more replicas smooth the key-space split
  // at the cost of a larger (still tiny) ring.
  int replicas = 64;
  // A key is hot when its decayed load exceeds this multiple of a shard's
  // fair share (total decayed load / shards). <= 0 disables hot-key
  // splitting: route() is then exactly shard_for().
  double imbalance_ratio = 1.25;
  // Every `decay_window` routed requests, all load counters halve — recent
  // traffic dominates, and a key that cooled off returns to its home shard.
  std::size_t decay_window = 4096;
  // A key can only turn hot once its own decayed load reaches this floor,
  // so the first few requests of a batch never scatter off-home just
  // because the totals are still tiny.
  double min_hot_load = 32.0;
};

class Router {
 public:
  explicit Router(int shards, RouterOptions options = {});

  // The home shard for (corpus fingerprint, arch), in [0, shards()).
  // Pure lookup: no load accounting, stable across runs.
  int shard_for(std::uint64_t corpus_fingerprint, const std::string& arch) const;

  // Stateful routing of the next request for the key: records its load in
  // the decaying counter and, when the key is hot, spreads it round-robin
  // across the key's rendezvous shard order. NOT thread-safe — the cluster
  // calls it from its serialized admission path (under the admission
  // lock); rebalanced() alone may be read concurrently.
  int route(std::uint64_t corpus_fingerprint, const std::string& arch);

  int shards() const { return shards_; }

  // Requests a hot key actually moved OFF its home shard (round-robin
  // picks that land home are not counted). Cumulative; atomic so metrics
  // snapshots may read it while a batch routes.
  long rebalanced() const { return rebalanced_.load(std::memory_order_relaxed); }

  // Keys currently above the imbalance threshold. Same thread-safety
  // caveat as route(): the cluster snapshots it under the admission lock.
  int hot_keys() const;

  // The key's deterministic rendezvous permutation of ALL shards — entry 0
  // is the preferred sub-shard a hot key splits onto first, and the order
  // failover walks for a sibling when a failed attempt is re-driven. A
  // pure function of (key, shard count): stable across runs and safe to
  // call from any thread (it touches no load state, unlike route()).
  std::vector<int> rendezvous_order(std::uint64_t corpus_fingerprint,
                                    const std::string& arch) const;

 private:
  struct KeyLoad {
    double load = 0.0;
    std::uint32_t rr = 0;           // round-robin cursor over the sub-keys
    int home = -1;                  // cached ring_successor of the key
    std::vector<int> rendezvous;    // lazily computed shard permutation
  };

  int ring_successor(std::uint64_t point) const;
  bool is_hot(double load) const;

  int shards_;
  RouterOptions options_;
  // Sorted (ring position, shard) points; lookups take the successor of
  // the key's hash (wrapping to the first point).
  std::vector<std::pair<std::uint64_t, int>> ring_;

  std::unordered_map<std::uint64_t, KeyLoad> load_;
  double total_load_ = 0.0;
  std::size_t routes_since_decay_ = 0;
  std::atomic<long> rebalanced_{0};
};

}  // namespace isr::cluster
