// Tests for the fault-tolerance layer (PR 7): the deterministic fault
// injector (pure-hash schedules, env/CSV parsing, fail-safe typos), the
// ordered queue's shutdown edges (close must release blocked producers and
// parked consumers), and the cluster's chaos behavior — supervised workers
// that survive injected eval throws, watchdog-driven crash restarts that
// re-drive the held batch, failover along the rendezvous order, bounded
// retries that end in explicit degraded responses, fit failures served
// degraded instead of crashing boot, and the determinism contract: a fixed
// fault seed reproduces the same degraded bytes on a fresh cluster, and a
// disarmed injector leaves every byte identical to a fault-free build —
// with a live tracer on the same drain path, too.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/metrics.hpp"
#include "cluster/router.hpp"
#include "cluster/stream.hpp"
#include "core/batch_queue.hpp"
#include "core/fault.hpp"
#include "obs/trace.hpp"
#include "serve/advisor.hpp"
#include "serve/registry.hpp"

namespace isr::cluster {
namespace {

using core::FaultConfig;
using core::FaultInjector;
using core::FaultSite;
using serve::AdvisorRequest;
using serve::AdvisorResponse;

std::uint32_t site_mask(FaultSite site) { return 1u << static_cast<int>(site); }

// --- Fault injector ----------------------------------------------------------

TEST(FaultInjectorTest, DecisionsArePureFunctionsOfSeedSiteAndKeys) {
  FaultConfig config;
  config.seed = 42;
  config.rate = 0.5;
  config.sites = (1u << core::kFaultSiteCount) - 1u;
  FaultInjector a(config);
  FaultInjector b(config);

  // Two injectors with the same config agree on every opportunity — the
  // schedule is a hash, not a shared RNG stream whose draws would depend
  // on who asked first.
  int fired = 0;
  for (std::uint64_t k0 = 0; k0 < 8; ++k0)
    for (std::uint64_t k1 = 0; k1 < 8; ++k1)
      for (std::uint64_t k2 = 0; k2 < 3; ++k2) {
        const bool fa = a.should_fire(FaultSite::kShardEvalThrow, k0, k1, k2);
        const bool fb = b.should_fire(FaultSite::kShardEvalThrow, k0, k1, k2);
        EXPECT_EQ(fa, fb) << k0 << "," << k1 << "," << k2;
        if (fa) ++fired;
      }
  // Rate 0.5 over 192 opportunities: both outcomes must occur.
  EXPECT_GT(fired, 0);
  EXPECT_LT(fired, 192);
  EXPECT_EQ(a.fired(FaultSite::kShardEvalThrow), fired);
  EXPECT_EQ(a.total_fired(), fired);

  // Different sites get independent schedules off the same keys.
  bool differs = false;
  for (std::uint64_t k = 0; k < 64 && !differs; ++k)
    differs = a.should_fire(FaultSite::kWorkerCrash, k) !=
              b.should_fire(FaultSite::kQueueStall, k);
  EXPECT_TRUE(differs);
}

TEST(FaultInjectorTest, RateOneAlwaysFiresAndDisarmedNeverDoes) {
  FaultConfig config;
  config.seed = 7;
  config.rate = 1.0;
  config.sites = site_mask(FaultSite::kShardEvalThrow);
  FaultInjector always(config);
  for (std::uint64_t k = 0; k < 32; ++k)
    EXPECT_TRUE(always.should_fire(FaultSite::kShardEvalThrow, k));
  // A site outside the mask never fires even at rate 1.0.
  for (std::uint64_t k = 0; k < 32; ++k)
    EXPECT_FALSE(always.should_fire(FaultSite::kWorkerCrash, k));
  EXPECT_EQ(always.fired(FaultSite::kWorkerCrash), 0);

  FaultInjector disarmed;  // default: seed 0
  EXPECT_FALSE(disarmed.armed());
  for (std::uint64_t k = 0; k < 32; ++k)
    EXPECT_FALSE(disarmed.should_fire(FaultSite::kShardEvalThrow, k));
  EXPECT_EQ(disarmed.total_fired(), 0);

  config.rate = 0.0;  // seed + sites but zero rate: still disarmed
  EXPECT_FALSE(FaultConfig(config).armed());
}

TEST(FaultInjectorTest, ParseSitesHandlesTokensAllAndGarbage) {
  std::uint32_t mask = 0;
  std::string error;
  ASSERT_TRUE(FaultConfig::parse_sites("eval-throw,worker-crash", mask, error)) << error;
  EXPECT_EQ(mask, site_mask(FaultSite::kShardEvalThrow) |
                      site_mask(FaultSite::kWorkerCrash));
  ASSERT_TRUE(FaultConfig::parse_sites("all", mask, error)) << error;
  EXPECT_EQ(mask, (1u << core::kFaultSiteCount) - 1u);
  ASSERT_TRUE(FaultConfig::parse_sites("fit-fail,,queue-stall,", mask, error))
      << error;  // empty segments tolerated
  EXPECT_EQ(mask, site_mask(FaultSite::kCorpusFitFail) |
                      site_mask(FaultSite::kQueueStall));

  EXPECT_FALSE(FaultConfig::parse_sites("eval-throw,typo", mask, error));
  EXPECT_NE(error.find("typo"), std::string::npos) << error;
  EXPECT_FALSE(FaultConfig::parse_sites("", mask, error));
  EXPECT_FALSE(FaultConfig::parse_sites(",,", mask, error));

  // Token round trip for every site.
  for (int s = 0; s < core::kFaultSiteCount; ++s) {
    FaultSite site;
    ASSERT_TRUE(core::fault_site_from_token(
        core::fault_site_name(static_cast<FaultSite>(s)), site));
    EXPECT_EQ(static_cast<int>(site), s);
  }
  FaultSite site;
  EXPECT_FALSE(core::fault_site_from_token("garbage", site));
}

TEST(FaultInjectorTest, FromEnvReadsKnobsAndFailsSafeOnTypos) {
  const auto clear_env = [] {
    unsetenv("ISR_FAULT_SEED");
    unsetenv("ISR_FAULT_RATE");
    unsetenv("ISR_FAULT_SITES");
    unsetenv("ISR_FAULT_STALL_MS");
  };
  clear_env();

  // Unset environment: disarmed defaults.
  EXPECT_FALSE(FaultConfig::from_env().armed());

  // Seed alone enables every site at the default rate.
  setenv("ISR_FAULT_SEED", "9001", 1);
  FaultConfig config = FaultConfig::from_env();
  EXPECT_TRUE(config.armed());
  EXPECT_EQ(config.seed, 9001u);
  EXPECT_EQ(config.sites, (1u << core::kFaultSiteCount) - 1u);

  // Explicit knobs.
  setenv("ISR_FAULT_RATE", "0.25", 1);
  setenv("ISR_FAULT_SITES", "eval-throw", 1);
  setenv("ISR_FAULT_STALL_MS", "5", 1);
  config = FaultConfig::from_env();
  EXPECT_DOUBLE_EQ(config.rate, 0.25);
  EXPECT_EQ(config.sites, site_mask(FaultSite::kShardEvalThrow));
  EXPECT_EQ(config.stall_ms, 5);

  // A typo'd site list disables injection entirely (fail safe) instead of
  // silently running half a chaos schedule.
  setenv("ISR_FAULT_SITES", "eval-thorw", 1);
  config = FaultConfig::from_env();
  EXPECT_FALSE(config.armed());
  EXPECT_EQ(config.sites, 0u);

  clear_env();
}

// --- Ordered queue shutdown edges -------------------------------------------

struct IntBefore {
  bool operator()(const int& a, const int& b) const { return a < b; }
};
using IntQueue = core::OrderedBatchQueue<int, IntBefore>;

TEST(OrderedQueueShutdownTest, CloseReleasesProducersBlockedInPush) {
  IntQueue queue(2);
  int run[] = {1, 2};
  ASSERT_EQ(queue.push_run(run, 2), 2u);

  // Two producers park inside the blocking push on a full queue. Nothing
  // ever drains; only close() can release them — and it must, with a false
  // return, or ServingCluster teardown could hang forever.
  std::vector<std::thread> producers;
  std::vector<int> results(2, -1);
  for (int t = 0; t < 2; ++t)
    producers.emplace_back([&queue, &results, t] {
      int item = 10 + t;
      results[static_cast<std::size_t>(t)] = static_cast<int>(queue.push_run(&item, 1));
    });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.close();
  for (std::thread& producer : producers) producer.join();
  EXPECT_EQ(results[0], 0);
  EXPECT_EQ(results[1], 0);

  // The items admitted before the close still drain, then the queue
  // reports empty-and-closed.
  std::vector<int> batch;
  EXPECT_TRUE(queue.pop_batch(8, batch));
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_FALSE(queue.pop_batch(8, batch));
}  // destructor runs here, after close, with no thread inside — the contract

TEST(OrderedQueueShutdownTest, CloseWakesAConsumerParkedOnAnEmptyQueue) {
  IntQueue queue(4);
  std::atomic<bool> woke{false};
  std::thread consumer([&queue, &woke] {
    std::vector<int> batch;
    EXPECT_FALSE(queue.pop_batch(4, batch));  // parked until the close
    EXPECT_TRUE(batch.empty());
    woke.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto start = std::chrono::steady_clock::now();
  queue.close();
  consumer.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_TRUE(woke.load());
  EXPECT_LT(elapsed, 5.0);  // the close woke it at once
}

// --- Router failover order ---------------------------------------------------

TEST(RouterFailoverTest, RendezvousOrderIsAStablePermutationOfAllShards) {
  const Router router(5);
  const std::vector<int> order = router.rendezvous_order(0xC0FFEEull, "CPU1");
  ASSERT_EQ(order.size(), 5u);
  std::vector<int> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (int s = 0; s < 5; ++s) EXPECT_EQ(sorted[static_cast<std::size_t>(s)], s);

  // Stable across calls (failover placement must not wander) and key-
  // dependent (different keys spread over different permutations).
  EXPECT_EQ(router.rendezvous_order(0xC0FFEEull, "CPU1"), order);
  EXPECT_NE(router.rendezvous_order(0xBEEFull, "GPU1"), order);
}

// --- Chaos over a live cluster ----------------------------------------------

// Clusters share one primary registry so the whole suite pays for a single
// calibration fit (clusters fit on the primary, never per shard) — same as
// test_stream.
class FaultClusterFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    primary_ = std::make_shared<serve::ModelRegistry>();
  }
  static void TearDownTestSuite() { primary_.reset(); }
  static std::shared_ptr<serve::ModelRegistry> primary_;

  static model::StudyConfig tiny_calibration() {
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

  // Cache OFF in every chaos config: a hit skips evaluation, which would
  // mask the injected eval faults this suite is about.
  static ClusterConfig chaos_config(int shards, std::uint64_t seed, double rate,
                                    std::uint32_t sites) {
    ClusterConfig cfg;
    cfg.service.calibration = tiny_calibration();
    cfg.shards = shards;
    cfg.cache_entries = 0;
    cfg.batch_size = 4;
    cfg.fault.seed = seed;
    cfg.fault.rate = rate;
    cfg.fault.sites = sites;
    cfg.watchdog_poll_us = 200;  // fast detection keeps crash tests quick
    return cfg;
  }

  // Distinct shapes per index so a response mixup can never pass a byte
  // compare (the test_stream idiom).
  static std::vector<AdvisorRequest> workload(int count) {
    std::vector<AdvisorRequest> requests;
    requests.reserve(static_cast<std::size_t>(count));
    for (int j = 0; j < count; ++j) {
      AdvisorRequest req;
      req.arch = (j % 2 == 0) ? "CPU1" : "GPU1";
      req.renderer = (j % 3 == 0) ? model::RendererKind::kRayTrace
                                  : (j % 3 == 1) ? model::RendererKind::kRasterize
                                                 : model::RendererKind::kVolume;
      req.n_per_task = 16 + (j % 4);
      req.image_edge = 96 + 8 * j;
      req.tasks = 1 + (j % 2);
      requests.push_back(req);
    }
    return requests;
  }

  // One serial session: submit everything, close, return the responses.
  static std::vector<AdvisorResponse> run_serial(ServingCluster& cluster,
                                                 const std::vector<AdvisorRequest>& reqs) {
    StreamSession session = cluster.open_stream();
    for (const AdvisorRequest& req : reqs) session.submit(req);
    return session.close();
  }
};

std::shared_ptr<serve::ModelRegistry> FaultClusterFixture::primary_;

TEST_F(FaultClusterFixture, EvalThrowAtFullRateDegradesEveryRequestAfterBoundedRetries) {
  // Rate 1.0 on eval-throw: every attempt of every request fails, so each
  // walks the full retry ladder — attempt 0 on its home shard, failover
  // re-drives at attempts 1 and 2, then an explicit degraded response. The
  // workers must survive it all (a supervised throw is not a crash).
  constexpr int kRequests = 10;
  ServingCluster cluster(
      chaos_config(2, 99, 1.0, site_mask(FaultSite::kShardEvalThrow)), primary_);
  const std::vector<AdvisorResponse> responses =
      run_serial(cluster, workload(kRequests));

  ASSERT_EQ(responses.size(), static_cast<std::size_t>(kRequests));
  for (const AdvisorResponse& r : responses) {
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(r.degraded());
    EXPECT_NE(r.error.find("degraded: retry budget exhausted after 3 attempts"),
              std::string::npos)
        << r.error;
  }

  const ClusterMetrics m = cluster.metrics();
  EXPECT_EQ(m.degraded_queries, kRequests);
  // Deterministic accounting at rate 1.0: retry_limit (2) re-drives per
  // request, each a successful failover enqueue, and 3 injected throws.
  EXPECT_EQ(m.retries, 2 * kRequests);
  EXPECT_EQ(m.failovers, 2 * kRequests);
  EXPECT_EQ(m.faults_injected, 3 * kRequests);
  EXPECT_EQ(m.worker_restarts, 0);  // throws are absorbed, never fatal
  EXPECT_EQ(m.eval_exceptions, 0);  // injected, not a real evaluation throw
  EXPECT_EQ(m.shard_queries, (std::vector<long>{0, 0}));  // nothing evaluated
  ASSERT_EQ(m.shard_health.size(), 2u);

  // The new observability fields are on the wire.
  const std::string line = m.to_jsonl();
  for (const char* key : {"\"worker_restarts\":", "\"failovers\":", "\"retries\":",
                          "\"timeouts\":", "\"degraded_queries\":",
                          "\"eval_exceptions\":", "\"faults_injected\":",
                          "\"shard_health\":"})
    EXPECT_NE(line.find(key), std::string::npos) << key << " missing in " << line;
}

TEST_F(FaultClusterFixture, OneShardEvalThrowAtFullRateRedrivesThroughItsOwnQueue) {
  // Rate 1.0 on eval-throw with no sibling to fail over to: every failed
  // attempt goes back into the one shard's own queue, and its drain takes
  // the next attempt's fault decision like any other. Each request fails
  // three times and degrades; no re-drive counts as a failover.
  constexpr int kRequests = 10;
  ServingCluster cluster(
      chaos_config(1, 99, 1.0, site_mask(FaultSite::kShardEvalThrow)), primary_);
  const std::vector<AdvisorResponse> responses =
      run_serial(cluster, workload(kRequests));

  ASSERT_EQ(responses.size(), static_cast<std::size_t>(kRequests));
  for (const AdvisorResponse& r : responses) {
    EXPECT_TRUE(r.degraded());
    EXPECT_NE(r.error.find("degraded: retry budget exhausted after 3 attempts"),
              std::string::npos)
        << r.error;
  }
  const ClusterMetrics m = cluster.metrics();
  EXPECT_EQ(m.degraded_queries, kRequests);
  EXPECT_EQ(m.retries, 2 * kRequests);
  EXPECT_EQ(m.failovers, 0);
  EXPECT_EQ(m.faults_injected, 3 * kRequests);
  EXPECT_EQ(m.worker_restarts, 0);
  EXPECT_EQ(m.shard_queries, std::vector<long>{0});  // nothing evaluated
}

TEST_F(FaultClusterFixture, WorkerCrashIsRestartedAndTheHeldBatchIsRedriven) {
  // Rate 0.5 on worker-crash, single shard: roughly every other request
  // kills the worker mid-batch. The watchdog must reclaim the corpse,
  // restart the worker, and re-drive the held batch — with no sibling
  // shard to fail over to, back into the restarted worker's own queue,
  // whose drain takes each attempt's fault decision again. A request
  // whose attempts don't all fire is answered with its normal pure bytes,
  // and one whose three attempts all fire (hash odds ~12.5%) degrades
  // explicitly. Every slot gets exactly one of the two.
  constexpr int kRequests = 12;
  const std::vector<AdvisorRequest> requests = workload(kRequests);

  ServingCluster plain(chaos_config(1, 0, 1.0, 0), primary_);  // disarmed twin
  const std::vector<AdvisorResponse> expected = run_serial(plain, requests);

  ServingCluster cluster(
      chaos_config(1, 4242, 0.5, site_mask(FaultSite::kWorkerCrash)), primary_);
  const std::vector<AdvisorResponse> responses = run_serial(cluster, requests);

  ASSERT_EQ(responses.size(), static_cast<std::size_t>(kRequests));
  int survived = 0;
  for (std::size_t i = 0; i < responses.size(); ++i) {
    if (responses[i].ok()) {
      ++survived;
      EXPECT_EQ(serve::to_jsonl(expected[i]), serve::to_jsonl(responses[i]))
          << "slot " << i;  // WHO evaluates never changes bytes
    } else {
      EXPECT_TRUE(responses[i].degraded()) << responses[i].error;
      EXPECT_NE(responses[i].error.find("retry budget exhausted"), std::string::npos)
          << responses[i].error;
    }
  }
  EXPECT_GT(survived, 0);  // at seed 4242 most requests recover
  const ClusterMetrics m = cluster.metrics();
  EXPECT_GE(m.worker_restarts, 1);
  EXPECT_GE(m.retries, 1);
  EXPECT_GE(m.faults_injected, 1);
}

TEST_F(FaultClusterFixture, SameSeedReproducesTheSameDegradedBytesOnAFreshCluster) {
  // Mixed-fate schedules on one and two shards. Eval throws alone at rate
  // 0.6 degrade a request only when all three of its attempts fire (~22%).
  // Throws plus worker crashes at rate 0.35 also kill workers mid-batch, so
  // the watchdog restarts them and re-drives the held batches while failover
  // and retries run. Either way both degraded and answered responses occur.
  // Two fresh clusters with the same seed must agree byte-for-byte on every
  // slot, and the answered slots must match a fault-free run — the injector
  // disturbs only whom it names. A fault decision is a pure function of
  // (stream, seq, attempt), so the shard count — whether a re-drive fails
  // over to a sibling or returns to its own queue — cannot move a byte
  // either.
  constexpr int kRequests = 24;
  const std::vector<AdvisorRequest> requests = workload(kRequests);
  ServingCluster plain(chaos_config(2, 0, 1.0, 0), primary_);
  const std::vector<AdvisorResponse> expected = run_serial(plain, requests);

  struct Schedule {
    const char* label;
    std::uint64_t seed;
    double rate;
    std::uint32_t sites;
  };
  const std::uint32_t crash = site_mask(FaultSite::kWorkerCrash);
  const Schedule schedules[] = {
      {"eval-throw", 31337, 0.6, site_mask(FaultSite::kShardEvalThrow)},
      {"eval-throw + worker-crash", 777, 0.35, site_mask(FaultSite::kShardEvalThrow) | crash}};
  for (const Schedule& schedule : schedules) {
    std::vector<std::string> bytes_at_one_shard;
    for (const int shards : {1, 2}) {
      SCOPED_TRACE(std::string(schedule.label) + ", " + std::to_string(shards) + " shard(s)");
      ClusterMetrics metrics;
      const auto chaos = [&] {
        ServingCluster cluster(
            chaos_config(shards, schedule.seed, schedule.rate, schedule.sites), primary_);
        std::vector<AdvisorResponse> responses = run_serial(cluster, requests);
        metrics = cluster.metrics();
        return responses;
      };
      const std::vector<AdvisorResponse> first = chaos();
      const std::vector<AdvisorResponse> second = chaos();

      ASSERT_EQ(first.size(), static_cast<std::size_t>(kRequests));
      ASSERT_EQ(second.size(), first.size());
      int degraded = 0;
      for (std::size_t i = 0; i < first.size(); ++i) {
        const std::string bytes = serve::to_jsonl(first[i]);
        EXPECT_EQ(bytes, serve::to_jsonl(second[i])) << "slot " << i;
        if (shards == 1) {
          bytes_at_one_shard.push_back(bytes);
        } else {
          EXPECT_EQ(bytes, bytes_at_one_shard[i]) << "slot " << i << " vs 1 shard";
        }
        if (first[i].degraded()) {
          ++degraded;
        } else {
          EXPECT_EQ(serve::to_jsonl(expected[i]), bytes) << "slot " << i;
        }
      }
      EXPECT_GT(degraded, 0);              // the schedule really injects...
      EXPECT_LT(degraded, kRequests / 2);  // ...and really spares most
      EXPECT_GE(metrics.faults_injected, 1);
      EXPECT_GE(metrics.retries, 1);
      if (shards == 1) {
        EXPECT_EQ(metrics.failovers, 0);
      }
      if (schedule.sites & crash) {
        EXPECT_GE(metrics.worker_restarts, 1);
      }
    }
  }
}

TEST_F(FaultClusterFixture, DisarmedInjectorLeavesEveryByteUntouched) {
  // A seed with an empty site mask is disarmed: every fault branch is dead
  // and responses are byte-identical to a cluster with no fault config at
  // all — the subsystem's presence must cost nothing when off.
  constexpr int kRequests = 16;
  const std::vector<AdvisorRequest> requests = workload(kRequests);

  ClusterConfig vanilla;
  vanilla.service.calibration = tiny_calibration();
  vanilla.shards = 2;
  vanilla.cache_entries = 0;
  vanilla.batch_size = 4;
  ServingCluster baseline(std::move(vanilla), primary_);
  const std::vector<AdvisorResponse> expected = run_serial(baseline, requests);

  ServingCluster disarmed(chaos_config(2, 777, 1.0, 0), primary_);
  const std::vector<AdvisorResponse> responses = run_serial(disarmed, requests);

  ASSERT_EQ(responses.size(), expected.size());
  for (std::size_t i = 0; i < responses.size(); ++i)
    EXPECT_EQ(serve::to_jsonl(expected[i]), serve::to_jsonl(responses[i]))
        << "slot " << i;
  const ClusterMetrics m = disarmed.metrics();
  EXPECT_EQ(m.faults_injected, 0);
  EXPECT_EQ(m.degraded_queries, 0);
  EXPECT_EQ(m.worker_restarts, 0);
}

TEST_F(FaultClusterFixture, FitFailureServesExplicitDegradedResponsesInsteadOfCrashing) {
  // Rate 1.0 on fit-fail: the default corpus's calibration fit fails at
  // every replication attempt, so boot survives, the fit is never charged
  // to the registry, and every request earns an explicit degraded response
  // naming the broken corpus.
  const auto fresh = std::make_shared<serve::ModelRegistry>();
  ServingCluster cluster(
      chaos_config(2, 55, 1.0, site_mask(FaultSite::kCorpusFitFail)), fresh);
  const std::vector<AdvisorResponse> responses = run_serial(cluster, workload(3));

  ASSERT_EQ(responses.size(), 3u);
  for (const AdvisorResponse& r : responses) {
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(r.degraded());
    EXPECT_NE(
        r.error.find("corpus \"default\" unavailable: calibration fit failed"),
        std::string::npos)
        << r.error;
  }
  EXPECT_EQ(cluster.registry_fits(), 0);  // the fit never landed anywhere
  EXPECT_EQ(cluster.metrics().degraded_queries, 3);
}

TEST_F(FaultClusterFixture, QueueStallIsSurvivedWithNormalResponses) {
  // A stall delays a batch, it fails nothing: every response must come
  // back ok with its normal bytes, just later.
  ClusterConfig config =
      chaos_config(1, 808, 1.0, site_mask(FaultSite::kQueueStall));
  config.fault.stall_ms = 2;
  ServingCluster cluster(std::move(config), primary_);
  const std::vector<AdvisorResponse> responses = run_serial(cluster, workload(8));

  ASSERT_EQ(responses.size(), 8u);
  for (const AdvisorResponse& r : responses) EXPECT_TRUE(r.ok()) << r.error;
  const ClusterMetrics m = cluster.metrics();
  EXPECT_GE(m.faults_injected, 1);
  EXPECT_EQ(m.degraded_queries, 0);
}

// One request-lifecycle event read back from the Chrome trace export.
struct TracedEvent {
  std::string name;
  long long ts = 0;
  long long dur = 0;
};

// Groups the exported "req" events by (stream, seq). The export writes
// one flat object per event in a fixed key order (obs/trace.cpp), so a
// key search per event is enough — no JSON library needed.
std::map<std::pair<long long, long long>, std::vector<TracedEvent>> request_chains(
    const std::string& json) {
  std::map<std::pair<long long, long long>, std::vector<TracedEvent>> chains;
  const auto number = [](const std::string& ev, const char* key) {
    const std::size_t at = ev.find(key);
    return at == std::string::npos ? 0LL
                                   : std::strtoll(ev.c_str() + at + std::strlen(key),
                                                  nullptr, 10);
  };
  for (std::size_t pos = json.find("{\"name\":\""); pos != std::string::npos;
       pos = json.find("{\"name\":\"", pos + 1)) {
    const std::string ev = json.substr(pos, json.find("}}", pos) - pos);
    if (ev.find("\"cat\":\"req\"") == std::string::npos) continue;
    TracedEvent e;
    e.name = ev.substr(9, ev.find('"', 9) - 9);
    e.ts = number(ev, "\"ts\":");
    e.dur = number(ev, "\"dur\":");
    chains[{number(ev, "\"stream\":"), number(ev, "\"seq\":")}].push_back(e);
  }
  return chains;
}

TEST_F(FaultClusterFixture, FaultHooksAndLiveTracingShareTheOneDrainPath) {
  // Eval throws at a partial rate plus worker crashes, with a live tracer
  // on the same drain: tracing must not move a byte against the same-seed
  // run without one, and every traced request's chain must be whole — one
  // admit, one terminal, no queue/eval span outliving the terminal (the
  // scripts/check_trace.py chain rules).
  constexpr int kRequests = 32;
  const std::vector<AdvisorRequest> requests = workload(kRequests);
  const std::uint32_t sites =
      site_mask(FaultSite::kShardEvalThrow) | site_mask(FaultSite::kWorkerCrash);
  const auto run = [&](obs::TraceRecorder* trace, ClusterMetrics& metrics) {
    ClusterConfig config = chaos_config(2, 777, 0.3, sites);
    config.trace = trace;
    ServingCluster cluster(std::move(config), primary_);
    std::vector<AdvisorResponse> responses = run_serial(cluster, requests);
    metrics = cluster.metrics();
    return responses;
  };
  ClusterMetrics untraced_metrics, traced_metrics;
  const std::vector<AdvisorResponse> untraced = run(nullptr, untraced_metrics);
  obs::TraceRecorder tracer;
  tracer.enable();
  const std::vector<AdvisorResponse> traced = run(&tracer, traced_metrics);

  ASSERT_EQ(untraced.size(), static_cast<std::size_t>(kRequests));
  ASSERT_EQ(traced.size(), untraced.size());
  for (std::size_t i = 0; i < traced.size(); ++i)
    EXPECT_EQ(serve::to_jsonl(untraced[i]), serve::to_jsonl(traced[i])) << "slot " << i;
  // Both hooks really fired on the traced run.
  EXPECT_GE(traced_metrics.worker_restarts, 1);
  EXPECT_GE(traced_metrics.retries, 1);
  EXPECT_EQ(tracer.dropped(), 0u);

  const auto chains = request_chains(tracer.chrome_trace_json());
  EXPECT_EQ(chains.size(), static_cast<std::size_t>(kRequests));
  for (const auto& [key, events] : chains) {
    const std::string label =
        "stream " + std::to_string(key.first) + " seq " + std::to_string(key.second);
    int admits = 0;
    int terminals = 0;
    long long admit_ts = 0;
    long long end_ts = 0;
    long long first_ts = std::numeric_limits<long long>::max();
    for (const TracedEvent& e : events) {
      first_ts = std::min(first_ts, e.ts);
      if (e.name == "admit") {
        ++admits;
        admit_ts = e.ts;
      } else if (e.name == "deliver" || e.name == "shed") {
        ++terminals;
        end_ts = e.ts;
      }
    }
    EXPECT_EQ(admits, 1) << label;
    EXPECT_EQ(terminals, 1) << label;
    EXPECT_EQ(admit_ts, first_ts) << label << ": admit is not the earliest event";
    for (const TracedEvent& e : events)
      EXPECT_LE(e.ts + e.dur, end_ts) << label << ": " << e.name << " outlives its terminal";
  }
}

}  // namespace
}  // namespace isr::cluster
