// Tests for the sharded serving cluster: router partition stability,
// LRU response-cache behavior, and — the load-bearing contract — response
// byte-identity across shard counts and cache states, with exactly one
// registry fit per distinct calibration corpus. (The shard queue's flush
// and ordering tests live in test_stream.)
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <list>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cache.hpp"
#include "cluster/cluster.hpp"
#include "cluster/metrics.hpp"
#include "cluster/router.hpp"
#include "core/env.hpp"
#include "serve/jsonl.hpp"
#include "serve/registry.hpp"

namespace isr::cluster {
namespace {

using serve::AdvisorRequest;
using serve::AdvisorResponse;

// The same fast calibration corpus test_serve uses: 36 observations, fits
// well under a second.
model::StudyConfig tiny_calibration() {
  model::StudyConfig cfg;
  cfg.archs = {"CPU1", "GPU1"};
  cfg.sims = {"cloverleaf"};
  cfg.tasks = {1, 2};
  cfg.samples_per_config = 3;
  cfg.min_image = 96;
  cfg.max_image = 192;
  cfg.min_n = 16;
  cfg.max_n = 28;
  cfg.vr_samples = 120;
  cfg.sim_steps = 1;
  cfg.seed = 123;
  return cfg;
}

ClusterConfig tiny_cluster_config(int shards, std::size_t cache_entries) {
  ClusterConfig cfg;
  cfg.service.calibration = tiny_calibration();
  cfg.shards = shards;
  cfg.cache_entries = cache_entries;
  cfg.batch_size = 4;  // small, so multi-batch coalescing is exercised
  return cfg;
}

// A mixed batch: every arch x renderer x two sizes, plus an error slot —
// the same shape test_serve's identity test uses.
std::vector<AdvisorRequest> mixed_requests() {
  std::vector<AdvisorRequest> requests;
  for (const std::string arch : {"CPU1", "GPU1"}) {
    for (const model::RendererKind kind :
         {model::RendererKind::kRayTrace, model::RendererKind::kRasterize,
          model::RendererKind::kVolume}) {
      for (const int edge : {256, 1024}) {
        AdvisorRequest req;
        req.arch = arch;
        req.renderer = kind;
        req.image_edge = edge;
        requests.push_back(req);
      }
    }
  }
  AdvisorRequest bad;
  bad.arch = "nope";
  requests.push_back(bad);
  return requests;
}

AdvisorResponse ok_response(double frame_seconds) {
  AdvisorResponse r;
  r.status = AdvisorResponse::Status::kOk;
  r.frame_seconds = frame_seconds;
  return r;
}

// --- Router -----------------------------------------------------------------

TEST(RouterTest, SameKeySameShardAcrossInstances) {
  const std::uint64_t fp = serve::ModelRegistry::fingerprint(tiny_calibration());
  const Router a(4), b(4);
  for (int i = 0; i < 200; ++i) {
    const std::string arch = "arch" + std::to_string(i);
    EXPECT_EQ(a.shard_for(fp, arch), b.shard_for(fp, arch)) << arch;
    EXPECT_GE(a.shard_for(fp, arch), 0);
    EXPECT_LT(a.shard_for(fp, arch), 4);
  }
}

TEST(RouterTest, SpreadsKeysAcrossShards) {
  const Router router(4);
  std::set<int> used;
  for (int i = 0; i < 200; ++i)
    used.insert(router.shard_for(42, "arch" + std::to_string(i)));
  EXPECT_EQ(used.size(), 4u);  // 200 keys must reach every one of 4 shards
}

TEST(RouterTest, ConsistentHashMovesFewKeysOnResize) {
  // Adding a fifth shard should move roughly 1/5 of the key space; a
  // modulo router would move ~4/5. Assert we are on the consistent side.
  const Router four(4), five(5);
  int moved = 0;
  const int keys = 500;
  for (int i = 0; i < keys; ++i) {
    const std::string arch = "arch" + std::to_string(i);
    if (four.shard_for(42, arch) != five.shard_for(42, arch)) ++moved;
  }
  EXPECT_GT(moved, 0);                // resize must hand the new shard work
  EXPECT_LT(moved, keys / 2);         // ...but far less than a modulo remap
}

TEST(RouterTest, RoutingDependsOnCorpusFingerprint) {
  // One ring serves every resident corpus: the fingerprint is part of the
  // key, so the same arch under two corpora spreads across shards.
  const Router router(8);
  int differ = 0;
  for (int i = 0; i < 100; ++i) {
    const std::string arch = "arch" + std::to_string(i);
    if (router.shard_for(1, arch) != router.shard_for(2, arch)) ++differ;
  }
  EXPECT_GT(differ, 0);
}

// --- Hot-key rebalancing ----------------------------------------------------

TEST(RouterTest, ColdKeysRouteToTheirHomeShard) {
  // Balanced traffic over many keys: nothing crosses the imbalance
  // threshold, so route() is exactly the pure lookup.
  Router router(4);
  for (int pass = 0; pass < 5; ++pass)
    for (int i = 0; i < 40; ++i) {
      const std::string arch = "arch" + std::to_string(i);
      EXPECT_EQ(router.route(7, arch), router.shard_for(7, arch)) << arch;
    }
  EXPECT_EQ(router.rebalanced(), 0);
  EXPECT_EQ(router.hot_keys(), 0);
}

TEST(RouterTest, HotKeySpreadsAcrossAllShards) {
  Router router(4);
  std::set<int> used;
  std::vector<int> per_shard(4, 0);
  for (int i = 0; i < 400; ++i) {
    const int shard = router.route(7, "hot");
    used.insert(shard);
    per_shard[static_cast<std::size_t>(shard)] += 1;
  }
  // The key turns hot once its load clears the floor, then round-robins
  // over the rendezvous order — every shard shares the load about equally.
  // rebalanced() counts only the picks that moved OFF the home shard
  // (~3/4 of the ~368 post-floor routes here).
  EXPECT_EQ(used.size(), 4u);
  EXPECT_GT(router.rebalanced(), 200);
  EXPECT_LT(router.rebalanced(), 350);
  EXPECT_EQ(router.hot_keys(), 1);
  for (const int count : per_shard) EXPECT_GT(count, 50);
  // The pure lookup is untouched by load: shard_for stays the home shard.
  const Router fresh(4);
  EXPECT_EQ(router.shard_for(7, "hot"), fresh.shard_for(7, "hot"));
}

TEST(RouterTest, RebalanceOffPinsEveryKey) {
  RouterOptions options;
  options.imbalance_ratio = 0.0;  // <= 0 turns hot-key splitting off
  Router router(4, options);
  for (int i = 0; i < 400; ++i)
    EXPECT_EQ(router.route(7, "hot"), router.shard_for(7, "hot"));
  EXPECT_EQ(router.rebalanced(), 0);
}

TEST(RouterTest, DecayReturnsACooledKeyHome) {
  RouterOptions options;
  options.decay_window = 64;
  options.min_hot_load = 8.0;
  Router router(4, options);
  for (int i = 0; i < 64; ++i) router.route(7, "hot");  // hot by now
  EXPECT_GT(router.rebalanced(), 0);
  const long rebalanced_at_peak = router.rebalanced();
  // A long stretch of balanced traffic decays the old hot key to noise...
  for (int pass = 0; pass < 10; ++pass)
    for (int i = 0; i < 64; ++i) router.route(7, "arch" + std::to_string(i));
  // ...so its next request routes home again.
  EXPECT_EQ(router.route(7, "hot"), router.shard_for(7, "hot"));
  EXPECT_EQ(router.rebalanced(), rebalanced_at_peak);
}

// --- Canonical request key --------------------------------------------------

TEST(CanonicalKeyTest, DistinguishesEveryField) {
  const AdvisorRequest base;
  const std::string key = canonical_request_key(base);
  AdvisorRequest r = base;
  r.arch = "GPU1";
  EXPECT_NE(canonical_request_key(r), key);
  r = base;
  r.renderer = model::RendererKind::kVolume;
  EXPECT_NE(canonical_request_key(r), key);
  r = base;
  r.n_per_task += 1;
  EXPECT_NE(canonical_request_key(r), key);
  r = base;
  r.tasks += 1;
  EXPECT_NE(canonical_request_key(r), key);
  r = base;
  r.image_edge += 1;
  EXPECT_NE(canonical_request_key(r), key);
  r = base;
  r.budget_seconds += 1e-9;  // exact bit pattern, not a rounded print
  EXPECT_NE(canonical_request_key(r), key);
  r = base;
  r.frames += 1;
  EXPECT_NE(canonical_request_key(r), key);
  // Identical requests share a key.
  EXPECT_EQ(canonical_request_key(base), canonical_request_key(AdvisorRequest{}));
}

TEST(CanonicalKeyTest, IgnoresDeadlineAndPriority) {
  // The QoS fields change WHEN a request is served, never WHAT it answers:
  // a hurried request must hit the cache entry its relaxed twin populated.
  const AdvisorRequest base;
  const std::string key = canonical_request_key(base);
  AdvisorRequest r = base;
  r.deadline_us = 12345;
  EXPECT_EQ(canonical_request_key(r), key);
  r = base;
  r.priority = 0;
  EXPECT_EQ(canonical_request_key(r), key);
  r = base;
  r.deadline_us = 999999;
  r.priority = 7;
  EXPECT_EQ(canonical_request_key(r), key);
}

TEST(CanonicalKeyTest, BinaryKeyKeepsTrickyRequestsDistinct) {
  const auto bits_to_double = [](std::uint64_t bits) {
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  };
  std::vector<AdvisorRequest> tricky(8);
  tricky[0].budget_seconds = 0.0;
  tricky[1].budget_seconds = -0.0;  // == +0.0, but a different bit pattern
  tricky[2].budget_seconds = bits_to_double(0x7FF8000000000001ull);  // two NaN payloads
  tricky[3].budget_seconds = bits_to_double(0x7FF8000000000002ull);
  // Bytes that mimic a length prefix: "x" + le64(2) + "yz" as the arch
  // must not collide with arch "x" and corpus "yz".
  const std::uint64_t two = 2;
  tricky[4].arch = "x";
  tricky[4].corpus = "yz";
  tricky[5].arch = std::string("x") + std::string(reinterpret_cast<const char*>(&two), 8) + "yz";
  tricky[5].corpus = "";
  // Embedded NULs, in the arch and in the corpus.
  tricky[6].arch = std::string("CPU1\0", 5);
  tricky[7].corpus = std::string("a\0b", 3);
  std::vector<std::string> keys;
  for (const AdvisorRequest& r : tricky) keys.push_back(canonical_request_key(r));
  keys.push_back(canonical_request_key(AdvisorRequest{}));  // arch "CPU1", corpus ""
  AdvisorRequest nul_c = tricky[7];
  nul_c.corpus = std::string("a\0c", 3);
  keys.push_back(canonical_request_key(nul_c));
  for (std::size_t a = 0; a < keys.size(); ++a)
    for (std::size_t b = a + 1; b < keys.size(); ++b)
      EXPECT_NE(keys[a], keys[b]) << "keys " << a << " and " << b;

  // The cache keeps every one of them apart.
  ResponseCache cache(64);
  for (std::size_t k = 0; k < keys.size(); ++k)
    cache.insert(0, 1, keys[k], ok_response(static_cast<double>(k)));
  for (std::size_t k = 0; k < keys.size(); ++k) {
    AdvisorResponse out;
    ASSERT_TRUE(cache.lookup(0, 1, keys[k], out)) << "key " << k;
    EXPECT_EQ(out.frame_seconds, static_cast<double>(k)) << "key " << k;
  }
}

// --- Response cache ---------------------------------------------------------

TEST(ResponseCacheTest, EvictsLeastRecentlyUsedInOrder) {
  ResponseCache cache(2);  // one way: exact global LRU order
  cache.insert(0, 1, "a", ok_response(1.0));
  cache.insert(0, 1, "b", ok_response(2.0));
  AdvisorResponse out;
  ASSERT_TRUE(cache.lookup(0, 1, "a", out));  // refreshes a: LRU order is now b, a
  EXPECT_DOUBLE_EQ(out.frame_seconds, 1.0);

  cache.insert(0, 1, "c", ok_response(3.0));  // evicts b (least recently used)
  EXPECT_FALSE(cache.lookup(0, 1, "b", out));
  EXPECT_TRUE(cache.lookup(0, 1, "a", out));
  EXPECT_TRUE(cache.lookup(0, 1, "c", out));
  EXPECT_EQ(cache.size(), 2u);

  cache.insert(0, 1, "d", ok_response(4.0));  // now a is LRU (c, a after lookups)
  EXPECT_FALSE(cache.lookup(0, 1, "a", out));
  EXPECT_TRUE(cache.lookup(0, 1, "c", out));
  EXPECT_TRUE(cache.lookup(0, 1, "d", out));
}

TEST(ResponseCacheTest, DisabledCacheNeverHits) {
  ResponseCache cache(0);
  EXPECT_FALSE(cache.enabled());
  cache.insert(0, 1, "a", ok_response(1.0));
  AdvisorResponse out;
  EXPECT_FALSE(cache.lookup(0, 1, "a", out));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ResponseCacheTest, CountsLookupsAndHits) {
  ResponseCache cache(8);
  AdvisorResponse out;
  EXPECT_FALSE(cache.lookup(0, 1, "a", out));
  cache.insert(0, 1, "a", ok_response(1.0));
  EXPECT_TRUE(cache.lookup(0, 1, "a", out));
  EXPECT_EQ(cache.lookups(), 2);
  EXPECT_EQ(cache.hits(), 1);
}

TEST(ResponseCacheTest, PartitionQuotasAreStructural) {
  // 8 entries over 2 partitions: each partition owns 4 slots, and
  // flooding partition 0 with far more keys than the whole cache holds
  // cannot evict a single partition-1 entry — the quota is hard, not an
  // accounting policy (the cross-corpus eviction regression).
  ResponseCache cache(8, /*partitions=*/2);
  EXPECT_EQ(cache.partitions(), 2u);
  EXPECT_EQ(cache.partition_capacity(0), 4u);
  EXPECT_EQ(cache.partition_capacity(1), 4u);
  cache.insert(1, 1, "keep-a", ok_response(1.0));
  cache.insert(1, 1, "keep-b", ok_response(2.0));
  for (int i = 0; i < 64; ++i)
    cache.insert(0, 1, "flood-" + std::to_string(i), ok_response(3.0));
  AdvisorResponse out;
  EXPECT_TRUE(cache.lookup(1, 1, "keep-a", out));
  EXPECT_TRUE(cache.lookup(1, 1, "keep-b", out));
  // The flood stayed inside its own quota.
  EXPECT_LE(cache.size(), cache.partition_capacity(0) + 2);
  // The same key bytes live independently per partition (corpus is part of
  // the canonical key anyway, but the partition alone already isolates).
  EXPECT_FALSE(cache.lookup(0, 1, "keep-a", out));
}

TEST(ResponseCacheTest, EveryPartitionHoldsAtLeastOneEntry) {
  // Fewer entries than partitions: each partition still gets one slot, so
  // a resident corpus is never structurally uncacheable.
  ResponseCache cache(2, /*partitions=*/4);
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_GE(cache.partition_capacity(p), 1u) << "partition " << p;
    cache.insert(p, 1, "k", ok_response(1.0));
    AdvisorResponse out;
    EXPECT_TRUE(cache.lookup(p, 1, "k", out)) << "partition " << p;
  }
}

TEST(ResponseCacheTest, EpochScopesHitsAndInvalidation) {
  ResponseCache cache(16, /*partitions=*/2);
  cache.insert(0, 1, "a", ok_response(1.0));
  cache.insert(0, 2, "b", ok_response(2.0));
  cache.insert(1, 1, "c", ok_response(3.0));
  AdvisorResponse out;
  // A lookup pinned to a NEWER epoch misses an older entry and erases it
  // in passing; pinned to an OLDER epoch it misses a newer entry but
  // leaves it (post-swap traffic wants it).
  EXPECT_FALSE(cache.lookup(0, 2, "a", out));  // older entry: erased
  EXPECT_FALSE(cache.lookup(0, 1, "b", out));  // newer entry: left alone
  EXPECT_TRUE(cache.lookup(0, 2, "b", out));
  EXPECT_EQ(cache.size(), 2u);  // a gone, b and c alive

  // invalidate_stale sweeps ONE partition of entries older than the new
  // epoch; the other partition is untouched.
  cache.insert(0, 2, "d", ok_response(4.0));
  EXPECT_EQ(cache.invalidate_stale(0, 3), 2u);  // b and d (epoch 2 < 3)
  EXPECT_EQ(cache.invalidate_stale(0, 3), 0u);  // idempotent
  EXPECT_TRUE(cache.lookup(1, 1, "c", out));    // partition 1 untouched
}

// The reference the one-way cache is checked against: exact LRU over a
// std::list (front = most recent) with the cache's epoch rules.
struct ReferenceLru {
  struct Entry {
    std::string key;
    std::uint64_t epoch;
    double payload;
  };
  std::size_t capacity;
  std::list<Entry> lru;
  long evictions = 0;

  std::list<Entry>::iterator find(const std::string& key) {
    return std::find_if(lru.begin(), lru.end(), [&](const Entry& e) { return e.key == key; });
  }
  bool lookup(std::uint64_t epoch, const std::string& key, double& payload) {
    const auto it = find(key);
    if (it == lru.end()) return false;
    if (it->epoch != epoch) {
      if (it->epoch < epoch) lru.erase(it);
      return false;
    }
    lru.splice(lru.begin(), lru, it);
    payload = it->payload;
    return true;
  }
  void insert(std::uint64_t epoch, const std::string& key, double payload) {
    const auto it = find(key);
    if (it != lru.end()) {
      lru.erase(it);
    } else if (lru.size() == capacity) {
      lru.pop_back();
      ++evictions;
    }
    lru.push_front({key, epoch, payload});
  }
  std::size_t invalidate_stale(std::uint64_t keep_epoch) {
    const std::size_t before = lru.size();
    lru.remove_if([&](const Entry& e) { return e.epoch < keep_epoch; });
    return before - lru.size();
  }
};

TEST(ResponseCacheTest, OneWayMatchesAReferenceLru) {
  // Seeded random inserts, lookups at an older, equal or newer epoch, and
  // epoch sweeps: a cache of at most 64 entries is one way, so its hits,
  // payloads, sizes and evictions must be exactly the reference LRU's.
  const long rounds = core::env_long("ISR_STRESS_ITERS", 3);
  for (long round = 0; round < rounds; ++round) {
    for (const std::size_t capacity : {1u, 2u, 7u, 64u}) {
      const std::uint64_t seed = static_cast<std::uint64_t>(round) * 1000 + capacity;
      SCOPED_TRACE("seed " + std::to_string(seed));
      std::mt19937_64 rng(seed);
      ResponseCache cache(capacity);
      ASSERT_EQ(cache.capacity(), capacity);
      ReferenceLru ref{capacity, {}, 0};
      long evictions = 0;
      long hits = 0;
      std::uint64_t epoch = 2;
      double next_payload = 0.0;
      const auto pick = [&rng](std::uint64_t n) { return rng() % n; };
      for (int op = 0; op < 4000; ++op) {
        const std::string key = "k" + std::to_string(pick(3 * capacity / 2 + 2));
        const std::uint64_t at = epoch - 1 + pick(3);  // older, equal or newer
        const std::uint64_t kind = pick(1000);
        if (kind < 550) {
          const bool present = ref.find(key) != ref.lru.end();
          const std::size_t before = cache.size();
          cache.insert(0, at, key, ok_response(next_payload));
          ref.insert(at, key, next_payload);
          next_payload += 1.0;
          evictions += static_cast<long>(before + (present ? 0 : 1) - cache.size());
        } else if (kind < 995) {
          AdvisorResponse out;
          double want = -1.0;
          const bool hit = cache.lookup(0, at, key, out);
          ASSERT_EQ(hit, ref.lookup(at, key, want)) << "op " << op;
          if (hit) {
            ASSERT_EQ(out.frame_seconds, want) << "op " << op;
            ++hits;
          }
        } else {
          ++epoch;
          ASSERT_EQ(cache.invalidate_stale(0, epoch), ref.invalidate_stale(epoch)) << "op " << op;
        }
        ASSERT_EQ(cache.size(), ref.lru.size()) << "op " << op;
        ASSERT_EQ(evictions, ref.evictions) << "op " << op;
      }
      EXPECT_GT(hits, 0);
      EXPECT_GT(evictions, 0);
    }
  }
}

TEST(ResponseCacheTest, ConcurrentHitsCarryTheirInsertedPayload) {
  // Threads race lookups, inserts and sweeps over two partitions of two
  // ways each. A payload is a pure function of (partition, key, epoch), so
  // a hit carrying anything else is a torn or misfiled entry.
  const long rounds = core::env_long("ISR_STRESS_ITERS", 3);
  ResponseCache cache(256, /*partitions=*/2);
  const auto payload = [](std::size_t p, std::uint64_t k, std::uint64_t e) {
    return static_cast<double>(p * 1000000 + k * 10 + e);
  };
  std::atomic<long> hits{0};
  std::atomic<long> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(t) + 1);
      AdvisorResponse out;
      for (long i = 0; i < rounds * 20000; ++i) {
        const std::size_t p = rng() % 2;
        const std::uint64_t k = rng() % 300;
        const std::uint64_t e = 1 + rng() % 3;
        const std::string key = "key-" + std::to_string(k);
        const std::uint64_t kind = rng() % 100;
        if (kind < 50) {
          if (cache.lookup(p, e, key, out)) {
            hits.fetch_add(1, std::memory_order_relaxed);
            if (out.frame_seconds != payload(p, k, e) || !out.ok())
              wrong.fetch_add(1, std::memory_order_relaxed);
          }
        } else if (kind < 99) {
          cache.insert(p, e, key, ok_response(payload(p, k, e)));
        } else {
          cache.invalidate_stale(p, e);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(hits.load(), 0);
  EXPECT_LE(cache.size(), cache.capacity());
}

TEST(ResponseCacheTest, LargeCacheHoldsAndHitsHalfItsEntries) {
  // 4096 entries is 64 ways of 64 slots; 2048 distinct request keys spread
  // over them without overfilling any way.
  ResponseCache cache(4096);
  EXPECT_EQ(cache.capacity(), 4096u);
  std::vector<std::string> keys;
  for (int i = 0; i < 2048; ++i) {
    AdvisorRequest r;
    r.budget_seconds = 1.0 + i;
    r.image_edge = 256 + i % 7;
    keys.push_back(canonical_request_key(r));
    cache.insert(0, 1, keys.back(), ok_response(static_cast<double>(i)));
  }
  EXPECT_EQ(cache.size(), 2048u);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    AdvisorResponse out;
    ASSERT_TRUE(cache.lookup(0, 1, keys[i], out)) << "key " << i;
    EXPECT_EQ(out.frame_seconds, static_cast<double>(i));
  }
  // Quotas that are not a multiple of 64 round up by less than one slot
  // per way: 130 entries are 3 ways of 44.
  EXPECT_EQ(ResponseCache(130).capacity(), 132u);
}

// --- Cluster determinism contract -------------------------------------------

// One registry fit shared by every cluster in the suite: clusters fit on
// their primary registry and never on shards, so a shared primary keeps
// the whole file at a single calibration study.
class ClusterFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    primary_ = std::make_shared<serve::ModelRegistry>();
  }
  static void TearDownTestSuite() { primary_.reset(); }
  static std::shared_ptr<serve::ModelRegistry> primary_;
};

std::shared_ptr<serve::ModelRegistry> ClusterFixture::primary_;

TEST_F(ClusterFixture, NShardResponsesIdenticalToOneShardSerial) {
  const std::vector<AdvisorRequest> requests = mixed_requests();

  ServingCluster reference(tiny_cluster_config(1, 0), primary_);
  const std::vector<AdvisorResponse> expected = reference.serve_batch(requests);
  ASSERT_EQ(expected.size(), requests.size());

  for (const int shards : {2, 3, 4}) {
    ServingCluster cluster(tiny_cluster_config(shards, 0), primary_);
    const std::vector<AdvisorResponse> got = cluster.serve_batch(requests);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_TRUE(serve::responses_identical(expected[i], got[i]))
          << "shards " << shards << " slot " << i;
      EXPECT_EQ(serve::to_jsonl(expected[i]), serve::to_jsonl(got[i]))
          << "shards " << shards << " slot " << i;
    }
    // One fit on the shared primary: the suite-wide fit count stays 1.
    EXPECT_EQ(cluster.registry_fits(), 1);
  }
}

TEST_F(ClusterFixture, CacheHitsAreByteIdenticalToMisses) {
  const std::vector<AdvisorRequest> requests = mixed_requests();
  ServingCluster cluster(tiny_cluster_config(3, 256), primary_);

  const std::vector<AdvisorResponse> cold = cluster.serve_batch(requests);  // all misses
  const std::vector<AdvisorResponse> warm = cluster.serve_batch(requests);  // all hits
  ASSERT_EQ(cold.size(), warm.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    EXPECT_TRUE(serve::responses_identical(cold[i], warm[i])) << "slot " << i;
    EXPECT_EQ(serve::to_jsonl(cold[i]), serve::to_jsonl(warm[i])) << "slot " << i;
  }

  const ClusterMetrics m = cluster.metrics();
  EXPECT_EQ(m.queries, static_cast<long>(2 * requests.size()));
  EXPECT_EQ(m.cache_lookups, static_cast<long>(2 * requests.size()));
  EXPECT_EQ(m.cache_hits, static_cast<long>(requests.size()));  // the warm pass
  EXPECT_DOUBLE_EQ(m.cache_hit_rate, 0.5);
  // Hits skip evaluation entirely: shards only ever saw the cold pass.
  long evaluated = 0;
  for (const long q : m.shard_queries) evaluated += q;
  EXPECT_EQ(evaluated, static_cast<long>(requests.size()));
}

TEST_F(ClusterFixture, CacheHitsAcrossDeadlinesAndPriorities) {
  // The canonical key excludes the QoS fields, and admission checks the
  // cache BEFORE the deadline: a hurried twin of a cached request gets the
  // cached answer (byte-identical) instead of an evaluation — or a shed.
  ServingCluster cluster(tiny_cluster_config(2, 64), primary_);
  AdvisorRequest relaxed;
  relaxed.arch = "CPU1";
  relaxed.image_edge = 256;
  const std::vector<AdvisorResponse> cold = cluster.serve_batch({relaxed});
  ASSERT_TRUE(cold[0].ok());

  AdvisorRequest hurried = relaxed;
  hurried.deadline_us = 1;  // live admission would shed this on any backlog
  hurried.priority = 0;
  const std::vector<AdvisorResponse> warm = cluster.serve_batch({hurried});
  EXPECT_TRUE(warm[0].ok());
  EXPECT_FALSE(warm[0].shed());
  EXPECT_EQ(serve::to_jsonl(cold[0]), serve::to_jsonl(warm[0]));

  const ClusterMetrics m = cluster.metrics();
  EXPECT_EQ(m.cache_hits, 1);
  EXPECT_EQ(m.shed_queries, 0);
}

TEST_F(ClusterFixture, BackpressureTinyQueueStillCorrect) {
  // A 2-deep queue against a 25-request batch keeps admission blocked on
  // backpressure constantly — responses must still be identical. At batch
  // size 8 every admitted run is larger than the queue: it goes in over
  // several stretches of room while the worker drains what is there.
  const std::vector<AdvisorRequest> requests = mixed_requests();
  ServingCluster reference(tiny_cluster_config(1, 0), primary_);
  const std::vector<AdvisorResponse> expected = reference.serve_batch(requests);
  for (const std::size_t batch_size : {std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("batch_size " + std::to_string(batch_size));
    ClusterConfig config = tiny_cluster_config(2, 0);
    config.queue_capacity = 2;
    config.batch_size = batch_size;
    ServingCluster cluster(std::move(config), primary_);
    const std::vector<AdvisorResponse> got = cluster.serve_batch(requests);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_TRUE(serve::responses_identical(expected[i], got[i])) << "slot " << i;
    EXPECT_LE(cluster.metrics().max_queue_depth, 2u);
  }
}

TEST_F(ClusterFixture, MetricsJsonLineHasTheDocumentedShape)  {
  ServingCluster cluster(tiny_cluster_config(2, 64), primary_);
  cluster.serve_batch(mixed_requests());
  const std::string line = cluster.metrics().to_jsonl();
  for (const char* key :
       {"\"shards\":", "\"queries\":", "\"shard_queries\":[",
        "\"corpus_queries\":{\"default\":", "\"unknown_corpus_queries\":",
        "\"bundle_epoch\":{\"default\":", "\"refits\":", "\"lazy_fits\":",
        "\"epoch_invalidations\":",
        "\"streams\":", "\"shed_queries\":",
        "\"rebalanced_queries\":", "\"hot_keys\":", "\"cache_lookups\":",
        "\"cache_hits\":", "\"cache_hit_rate\":", "\"batches\":",
        "\"max_queue_depth\":", "\"p50_latency_ms\":", "\"p99_latency_ms\":"})
    EXPECT_NE(line.find(key), std::string::npos) << key << " missing from " << line;
  // The shard queues drain whatever is queued: no flush reasons to report.
  EXPECT_EQ(line.find("_flushes\":"), std::string::npos) << line;
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
}

TEST_F(ClusterFixture, JsonlFrontEndRoutesThroughTheCluster) {
  // The same wiring example_feasibility_advisor --serve uses: run_jsonl
  // with the cluster's serve_batch as the batch handler.
  ServingCluster cluster(tiny_cluster_config(2, 64), primary_);
  std::istringstream in(
      "{\"arch\":\"CPU1\",\"renderer\":\"raytrace\",\"image_edge\":256}\n"
      "garbage\n"
      "{\"arch\":\"GPU1\",\"renderer\":\"volume\",\"n_per_task\":24,\"tasks\":2}\n");
  std::ostringstream out;
  const std::size_t answered = serve::run_jsonl(
      in, out, [&cluster](const std::vector<AdvisorRequest>& requests) {
        return cluster.serve_batch(requests);
      });
  EXPECT_EQ(answered, 3u);
  std::istringstream lines(out.str());
  std::string line;
  std::vector<std::string> responses;
  while (std::getline(lines, line)) responses.push_back(line);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_NE(responses[0].find("\"ok\":true"), std::string::npos);
  EXPECT_NE(responses[1].find("parse error"), std::string::npos);
  EXPECT_NE(responses[2].find("\"ok\":true"), std::string::npos);
}

TEST_F(ClusterFixture, ConcurrentServeBatchCallersGetCorrectResponses) {
  // serve_batch serializes overlapping batches internally; four threads
  // hammering one cluster must each get the full, correct response vector.
  const std::vector<AdvisorRequest> requests = mixed_requests();
  ServingCluster reference(tiny_cluster_config(1, 0), primary_);
  const std::vector<AdvisorResponse> expected = reference.serve_batch(requests);

  ServingCluster cluster(tiny_cluster_config(2, 64), primary_);
  std::vector<std::vector<AdvisorResponse>> got(4);
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t)
    callers.emplace_back([&cluster, &requests, &got, t] {
      got[static_cast<std::size_t>(t)] = cluster.serve_batch(requests);
    });
  for (std::thread& caller : callers) caller.join();

  for (int t = 0; t < 4; ++t) {
    ASSERT_EQ(got[static_cast<std::size_t>(t)].size(), expected.size()) << "caller " << t;
    for (std::size_t i = 0; i < expected.size(); ++i)
      EXPECT_TRUE(serve::responses_identical(expected[i], got[static_cast<std::size_t>(t)][i]))
          << "caller " << t << " slot " << i;
  }
}

TEST(ClusterTest, EmptyBatchDoesNotTriggerCalibration) {
  ServingCluster cluster(tiny_cluster_config(4, 64));
  EXPECT_TRUE(cluster.serve_batch({}).empty());
  EXPECT_EQ(cluster.registry_fits(), 0);
}

// --- Multi-corpus serving ---------------------------------------------------

// A second tiny corpus: same shape, different seed — a distinct calibration
// fingerprint, so the cluster must fit it separately.
model::StudyConfig tiny_calibration_b() {
  model::StudyConfig cfg = tiny_calibration();
  cfg.seed = 124;
  return cfg;
}

ClusterConfig two_corpus_config(int shards, std::size_t cache_entries) {
  ClusterConfig cfg = tiny_cluster_config(shards, cache_entries);
  CorpusConfig alt;
  alt.name = "alt";
  alt.service.calibration = tiny_calibration_b();
  cfg.corpora.push_back(std::move(alt));
  return cfg;
}

// A batch split across both resident corpora: every request of the mixed
// shape once under the default corpus, once under "alt".
std::vector<AdvisorRequest> two_corpus_requests() {
  std::vector<AdvisorRequest> requests = mixed_requests();
  const std::size_t single = requests.size();
  for (std::size_t i = 0; i < single; ++i) {
    AdvisorRequest req = requests[i];
    req.corpus = "alt";
    requests.push_back(std::move(req));
  }
  return requests;
}

TEST_F(ClusterFixture, UnknownCorpusSelectorGetsInSlotError) {
  ServingCluster cluster(tiny_cluster_config(2, 0), primary_);
  std::vector<AdvisorRequest> requests(3);
  requests[1].corpus = "nope";
  const std::vector<AdvisorResponse> responses = cluster.serve_batch(requests);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_TRUE(responses[0].ok());
  EXPECT_FALSE(responses[1].ok());
  EXPECT_NE(responses[1].error.find("unknown corpus \"nope\""), std::string::npos)
      << responses[1].error;
  EXPECT_TRUE(responses[2].ok());

  // The bad slot never reached the cache or a shard.
  const ClusterMetrics m = cluster.metrics();
  EXPECT_EQ(m.queries, 3);
  EXPECT_EQ(m.unknown_corpus_queries, 1);
  long evaluated = 0;
  for (const long q : m.shard_queries) evaluated += q;
  EXPECT_EQ(evaluated, 2);
  EXPECT_EQ(cluster.corpus_fingerprint("nope"), 0u);
}

TEST(MultiCorpusTest, TwoFingerprintsFitExactlyTwiceAtAnyShardCount) {
  // One local primary shared by every cluster in the loop: the two corpora
  // are fitted once each, no matter how many shards (or clusters) serve
  // them, and responses stay byte-identical to the 1-shard serial run.
  const auto primary = std::make_shared<serve::ModelRegistry>();
  const std::vector<AdvisorRequest> requests = two_corpus_requests();

  ServingCluster reference(two_corpus_config(1, 0), primary);
  EXPECT_NE(reference.corpus_fingerprint(""), reference.corpus_fingerprint("alt"));
  EXPECT_EQ(reference.corpora(), 2);
  const std::vector<AdvisorResponse> expected = reference.serve_batch(requests);
  EXPECT_EQ(reference.registry_fits(), 2);

  for (const int shards : {2, 3, 4}) {
    ServingCluster cluster(two_corpus_config(shards, 0), primary);
    const std::vector<AdvisorResponse> got = cluster.serve_batch(requests);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_TRUE(serve::responses_identical(expected[i], got[i]))
          << "shards " << shards << " slot " << i;
      EXPECT_EQ(serve::to_jsonl(expected[i]), serve::to_jsonl(got[i]))
          << "shards " << shards << " slot " << i;
    }
    EXPECT_EQ(cluster.registry_fits(), 2);
  }

  // The two corpora really are different models: the same request answered
  // under each gives different predictions (distinct calibration seeds).
  const std::size_t single = requests.size() / 2;
  int differing = 0;
  for (std::size_t i = 0; i < single; ++i)
    if (expected[i].ok() && expected[i + single].ok() &&
        serve::to_jsonl(expected[i]) != serve::to_jsonl(expected[i + single]))
      ++differing;
  EXPECT_GT(differing, 0);
}

TEST(MultiCorpusTest, CacheEntriesNeverCollideAcrossCorpora) {
  // Key level: two requests differing only in corpus have distinct
  // canonical keys.
  AdvisorRequest base;
  AdvisorRequest alt = base;
  alt.corpus = "alt";
  EXPECT_NE(canonical_request_key(base), canonical_request_key(alt));

  // Cluster level: a warm multi-corpus pass answers every slot from the
  // cache — and each corpus's slots come back as that corpus's responses,
  // byte-identical to the cold pass.
  const auto primary = std::make_shared<serve::ModelRegistry>();
  const std::vector<AdvisorRequest> requests = two_corpus_requests();
  ServingCluster cluster(two_corpus_config(3, 512), primary);
  const std::vector<AdvisorResponse> cold = cluster.serve_batch(requests);
  const std::vector<AdvisorResponse> warm = cluster.serve_batch(requests);
  ASSERT_EQ(cold.size(), warm.size());
  for (std::size_t i = 0; i < cold.size(); ++i)
    EXPECT_EQ(serve::to_jsonl(cold[i]), serve::to_jsonl(warm[i])) << "slot " << i;

  const ClusterMetrics m = cluster.metrics();
  EXPECT_EQ(m.cache_hits, static_cast<long>(requests.size()));  // the warm pass
  ASSERT_EQ(m.corpus_queries.size(), 2u);
  EXPECT_EQ(m.corpus_queries[0].first, "");
  EXPECT_EQ(m.corpus_queries[1].first, "alt");
  EXPECT_EQ(m.corpus_queries[0].second, static_cast<long>(requests.size()));
  EXPECT_EQ(m.corpus_queries[1].second, static_cast<long>(requests.size()));
  EXPECT_EQ(m.unknown_corpus_queries, 0);
}

TEST(MultiCorpusTest, OneCorpusFloodCannotEvictAnotherCorpusEntries) {
  // The cross-corpus eviction regression: the cache is hard-partitioned
  // per corpus, so a flood of distinct default-corpus requests — more than
  // the ENTIRE cache holds — cannot push out "alt"'s warm entries.
  const auto primary = std::make_shared<serve::ModelRegistry>();
  ServingCluster cluster(two_corpus_config(2, 64), primary);
  AdvisorRequest alt_a, alt_b;
  alt_a.corpus = "alt";
  alt_a.image_edge = 256;
  alt_b.corpus = "alt";
  alt_b.image_edge = 512;
  cluster.serve_batch({alt_a, alt_b});  // warm alt's partition

  std::vector<AdvisorRequest> flood;
  for (int i = 0; i < 96; ++i) {  // 96 distinct keys >> 64-entry cache
    AdvisorRequest r;
    r.image_edge = 64 + i;
    flood.push_back(std::move(r));
  }
  cluster.serve_batch(flood);

  const long hits_before = cluster.metrics().cache_hits;
  const std::vector<AdvisorResponse> warm = cluster.serve_batch({alt_a, alt_b});
  EXPECT_TRUE(warm[0].ok());
  EXPECT_TRUE(warm[1].ok());
  EXPECT_EQ(cluster.metrics().cache_hits - hits_before, 2);
}

TEST(MultiCorpusTest, ReservedDuplicateAndEmptyCorpusNamesAreIgnored) {
  ClusterConfig cfg = two_corpus_config(2, 0);
  CorpusConfig dup;  // duplicate of "alt" with a different calibration
  dup.name = "alt";
  dup.service.calibration = tiny_calibration();
  cfg.corpora.push_back(dup);
  CorpusConfig anonymous;  // "" is reserved for the default corpus
  anonymous.service.calibration = tiny_calibration_b();
  cfg.corpora.push_back(anonymous);
  CorpusConfig reserved;  // "default" is the metrics alias of the default
  reserved.name = "default";
  reserved.service.calibration = tiny_calibration_b();
  cfg.corpora.push_back(reserved);
  ServingCluster cluster(std::move(cfg));
  EXPECT_EQ(cluster.corpora(), 2);  // default + the first "alt" only
  EXPECT_EQ(cluster.corpus_fingerprint("alt"),
            serve::ModelRegistry::fingerprint(tiny_calibration_b()));
  EXPECT_EQ(cluster.corpus_fingerprint("default"), 0u);  // not resident
}

TEST(MultiCorpusTest, SharedCalibrationDistinctConstantsStaySeparate) {
  // Corpora over ONE calibration (one fit) that differ only in mapping
  // constants: the routing key covers the constants, so each corpus's
  // requests evaluate under its own constants — not the first resolver's.
  ClusterConfig cfg = tiny_cluster_config(2, 0);
  CorpusConfig dense;
  dense.name = "dense";
  dense.service.calibration = tiny_calibration();  // same fingerprint
  dense.service.constants.spr_base = 990.0;        // explicit, much denser
  cfg.corpora.push_back(std::move(dense));
  // The default corpus leaves spr_base at its 0 sentinel, which the cluster
  // derives from the calibration's sampling density (0.93 * vr_samples); a
  // corpus spelling that value out explicitly must answer the same bytes.
  CorpusConfig pinned;
  pinned.name = "pinned";
  pinned.service.calibration = tiny_calibration();
  pinned.service.constants.spr_base = 0.93 * tiny_calibration().vr_samples;
  cfg.corpora.push_back(std::move(pinned));
  ServingCluster cluster(std::move(cfg));
  EXPECT_EQ(cluster.corpus_fingerprint(""), cluster.corpus_fingerprint("dense"));
  EXPECT_EQ(cluster.corpus_fingerprint(""), cluster.corpus_fingerprint("pinned"));

  AdvisorRequest volume;  // spr_base feeds the volume model's SPR term
  volume.renderer = model::RendererKind::kVolume;
  AdvisorRequest dense_volume = volume;
  dense_volume.corpus = "dense";
  AdvisorRequest pinned_volume = volume;
  pinned_volume.corpus = "pinned";
  const std::vector<AdvisorResponse> responses =
      cluster.serve_batch({volume, dense_volume, pinned_volume});
  ASSERT_EQ(responses.size(), 3u);
  ASSERT_TRUE(responses[0].ok()) << responses[0].error;
  ASSERT_TRUE(responses[1].ok()) << responses[1].error;
  ASSERT_TRUE(responses[2].ok()) << responses[2].error;
  EXPECT_NE(responses[0].frame_seconds, responses[1].frame_seconds);
  EXPECT_EQ(serve::to_jsonl(responses[0]), serve::to_jsonl(responses[2]));
  EXPECT_EQ(cluster.registry_fits(), 1);  // one calibration, one fit
}

// Max/mean over the per-shard evaluated-query counts: 1.0 is a level
// cluster; shards x (hot share) is one key pinning one shard.
double shard_load_ratio(const ClusterMetrics& m) {
  long max_q = 0, total = 0;
  for (const long q : m.shard_queries) {
    max_q = std::max(max_q, q);
    total += q;
  }
  if (total == 0) return 0.0;
  return static_cast<double>(max_q) * static_cast<double>(m.shard_queries.size()) /
         static_cast<double>(total);
}

TEST(MultiCorpusTest, HotKeyRebalancingLevelsASkewedStreamWithoutChangingBytes) {
  // One skewed single-stream run, cache off so every request reaches a
  // shard: 85% of the traffic is one (corpus, arch) key, the rest spreads
  // over the other three. Pinned (imbalance_ratio 0), the hot key's home
  // shard carries almost all of it; rebalanced (1.25), the hot key splits
  // across the shards. The load must level strictly, and no byte may move.
  const auto primary = std::make_shared<serve::ModelRegistry>();
  std::vector<AdvisorRequest> skewed;
  const char* cold_corpus[3] = {"", "alt", "alt"};
  const char* cold_arch[3] = {"GPU1", "CPU1", "GPU1"};
  for (int i = 0; i < 600; ++i) {
    AdvisorRequest req;
    if (i % 20 < 17) {
      req.arch = "CPU1";
    } else {
      req.corpus = cold_corpus[i % 3];
      req.arch = cold_arch[i % 3];
    }
    req.n_per_task = 16 + 2 * (i % 8);
    req.image_edge = 96 + 32 * (i % 4);
    req.budget_seconds = 30.0 + (i % 16);
    skewed.push_back(req);
  }

  const auto run = [&](double imbalance_ratio, double& load_ratio) {
    ClusterConfig cfg = two_corpus_config(4, 0);
    cfg.imbalance_ratio = imbalance_ratio;
    ServingCluster cluster(std::move(cfg), primary);
    std::vector<AdvisorResponse> responses = cluster.serve_batch(skewed);
    load_ratio = shard_load_ratio(cluster.metrics());
    return responses;
  };
  double pinned_ratio = 0.0, balanced_ratio = 0.0;
  const std::vector<AdvisorResponse> pinned = run(0.0, pinned_ratio);
  const std::vector<AdvisorResponse> balanced = run(1.25, balanced_ratio);

  EXPECT_LT(balanced_ratio, pinned_ratio);
  ASSERT_EQ(pinned.size(), skewed.size());
  ASSERT_EQ(balanced.size(), skewed.size());
  for (std::size_t i = 0; i < skewed.size(); ++i) {
    EXPECT_TRUE(pinned[i].ok()) << "slot " << i << ": " << pinned[i].error;
    EXPECT_EQ(serve::to_jsonl(pinned[i]), serve::to_jsonl(balanced[i])) << "slot " << i;
  }
}

}  // namespace
}  // namespace isr::cluster
