// The recalibration battery (PR 8): epoch-versioned registry bundles,
// background refit, and epoch-scoped cache invalidation.
//
// What is gated here, in dependency order:
//   - registry level: epochs advance monotonically, superseded bundles stay
//     alive for their pinners, and a refit is BIT-IDENTICAL to a fresh
//     fit_bundle() of the same appended corpus (refitting is re-fitting,
//     not an incremental approximation);
//   - cluster level: residency is lazy (fits == queried corpora), a
//     recalibration schedule is byte-reproducible across identically-seeded
//     runs, invalidation evicts EXACTLY the stale corpus's cache entries,
//     and one corpus's traffic cannot evict another's (per-corpus quotas);
//   - concurrency: requests in flight across an epoch swap each finish on
//     the epoch they were admitted under — every response byte-matches one
//     of the fixed per-epoch reference byte sets, under a seeded fuzz of
//     concurrent submitters racing recalibrations (the TSan job runs the
//     *Fuzz* filter with ISR_STRESS_ITERS scaled up).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cache.hpp"
#include "cluster/cluster.hpp"
#include "cluster/metrics.hpp"
#include "core/env.hpp"
#include "model/study.hpp"
#include "serve/jsonl.hpp"
#include "serve/registry.hpp"

namespace isr::cluster {
namespace {

using serve::AdvisorRequest;
using serve::AdvisorResponse;

// The same fast corpus test_serve and test_cluster calibrate from: 36
// observations, fits well under a second.
model::StudyConfig tiny_calibration(std::uint64_t seed = 123) {
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
  cfg.seed = seed;
  return cfg;
}

// A reduced pass over the same grid with another seed: the shape of
// observations a drift measurement would append.
std::vector<model::Observation> drift_observations(std::uint64_t seed) {
  model::StudyConfig drift = tiny_calibration(seed);
  drift.samples_per_config = 1;
  return model::run_study(drift);
}

ClusterConfig tiny_cluster_config(int shards, std::size_t cache_entries) {
  ClusterConfig cfg;
  cfg.service.calibration = tiny_calibration();
  cfg.shards = shards;
  cfg.cache_entries = cache_entries;
  cfg.batch_size = 4;
  return cfg;
}

ClusterConfig two_corpus_config(int shards, std::size_t cache_entries) {
  ClusterConfig cfg = tiny_cluster_config(shards, cache_entries);
  CorpusConfig alt;
  alt.name = "alt";
  alt.service.calibration = tiny_calibration(124);
  cfg.corpora.push_back(std::move(alt));
  return cfg;
}

// Every arch x renderer x two sizes plus an error slot — the mixed shape
// the identity tests across the suite share.
std::vector<AdvisorRequest> mixed_requests(const std::string& corpus = "") {
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
        req.corpus = corpus;
        requests.push_back(req);
      }
    }
  }
  AdvisorRequest bad;
  bad.arch = "nope";
  bad.corpus = corpus;
  requests.push_back(bad);
  return requests;
}

std::vector<std::string> jsonl_of(const std::vector<AdvisorResponse>& responses) {
  std::vector<std::string> lines;
  lines.reserve(responses.size());
  for (const AdvisorResponse& r : responses) lines.push_back(serve::to_jsonl(r));
  return lines;
}

// --- Registry: epoch-versioned bundles --------------------------------------

TEST(RecalRegistryTest, InitialFitIsEpochOne) {
  serve::ModelRegistry registry;
  const model::StudyConfig cfg = tiny_calibration();
  const serve::BundlePtr bundle = registry.bundle_for(cfg);
  ASSERT_TRUE(bundle);
  EXPECT_EQ(bundle->epoch, 1u);
  EXPECT_EQ(bundle->fingerprint, serve::ModelRegistry::fingerprint(cfg));
  EXPECT_GT(bundle->corpus_size, 0u);
  EXPECT_EQ(registry.fits(), 1);
  EXPECT_EQ(registry.refits(), 0);
  // A repeat lookup and the fingerprint lookup hand out the same bundle,
  // and neither re-fits.
  EXPECT_EQ(registry.bundle_for(cfg).get(), bundle.get());
  EXPECT_EQ(registry.current(bundle->fingerprint).get(), bundle.get());
  EXPECT_EQ(registry.fits(), 1);
}

TEST(RecalRegistryTest, RefitAdvancesEpochMonotonicallyAndKeepsOldBundlesAlive) {
  serve::ModelRegistry registry;
  const model::StudyConfig cfg = tiny_calibration();
  const std::uint64_t fp = serve::ModelRegistry::fingerprint(cfg);
  std::vector<serve::BundlePtr> pinned = {registry.bundle_for(cfg)};
  for (std::uint64_t expect_epoch = 2; expect_epoch <= 4; ++expect_epoch) {
    registry.append_observations(fp, drift_observations(1000 + expect_epoch));
    const serve::BundlePtr fresh = registry.refit(fp);
    ASSERT_TRUE(fresh);
    EXPECT_EQ(fresh->epoch, expect_epoch);
    EXPECT_EQ(registry.current(fp).get(), fresh.get());
    pinned.push_back(fresh);
  }
  EXPECT_EQ(registry.fits(), 1);    // refits never count as fits
  EXPECT_EQ(registry.refits(), 3);
  // Every superseded epoch is still alive and readable: a pinner that
  // admitted under epoch N keeps evaluating epoch N's coefficients.
  for (std::size_t i = 0; i < pinned.size(); ++i) {
    EXPECT_EQ(pinned[i]->epoch, static_cast<std::uint64_t>(i + 1));
    EXPECT_GT(pinned[i]->corpus_size, 0u);
    // Each refit folded a drift pass in, so the corpus only ever grows.
    if (i > 0) {
      EXPECT_GT(pinned[i]->corpus_size, pinned[i - 1]->corpus_size);
    }
  }
  // The pins are all that keep superseded epochs alive: the registry holds
  // only the current bundle, so dropping the last pin frees the old one.
  const std::weak_ptr<const serve::FittedModels> first_epoch = pinned.front();
  pinned.clear();
  EXPECT_TRUE(first_epoch.expired());
  EXPECT_EQ(registry.current(fp)->epoch, 4u);
}

TEST(RecalRegistryTest, RefitMatchesFreshFitBitForBit) {
  // The load-bearing identity: registry.refit() of (fitted corpus +
  // appended observations) must produce the SAME BITS as fit_bundle() of
  // one fresh corpus containing the same observations in the same order.
  const model::StudyConfig cfg = tiny_calibration();
  const std::uint64_t fp = serve::ModelRegistry::fingerprint(cfg);

  serve::ModelRegistry registry;
  registry.bundle_for(cfg);
  const std::vector<model::Observation> extra = drift_observations(9001);
  ASSERT_TRUE(registry.append_observations(fp, extra));
  EXPECT_EQ(registry.pending_observations(fp), extra.size());
  const serve::BundlePtr refitted = registry.refit(fp);
  ASSERT_TRUE(refitted);
  EXPECT_EQ(registry.pending_observations(fp), 0u);

  std::vector<model::Observation> corpus = model::run_study(cfg);
  corpus.insert(corpus.end(), extra.begin(), extra.end());
  const serve::FittedModels fresh = serve::fit_bundle(cfg, corpus, /*epoch=*/2);

  EXPECT_EQ(refitted->epoch, fresh.epoch);
  EXPECT_EQ(refitted->fingerprint, fresh.fingerprint);
  EXPECT_EQ(refitted->corpus_size, fresh.corpus_size);
  ASSERT_EQ(refitted->entries.size(), fresh.entries.size());
  for (std::size_t i = 0; i < fresh.entries.size(); ++i) {
    EXPECT_EQ(refitted->entries[i].arch, fresh.entries[i].arch) << "entry " << i;
    EXPECT_EQ(refitted->entries[i].kind, fresh.entries[i].kind) << "entry " << i;
    // vector<double> equality is exact bit comparison for finite values.
    EXPECT_EQ(refitted->entries[i].model.paper_coefficients(),
              fresh.entries[i].model.paper_coefficients())
        << "entry " << i;
  }
  EXPECT_EQ(refitted->composite.coefficients(), fresh.composite.coefficients());
}

TEST(RecalRegistryTest, UnknownFingerprintsAreNotRefittable) {
  serve::ModelRegistry registry;
  EXPECT_FALSE(registry.append_observations(0xDEADu, {}));
  EXPECT_EQ(registry.refit(0xDEADu), nullptr);
  EXPECT_EQ(registry.pending_observations(0xDEADu), 0u);
  EXPECT_EQ(registry.current(0xDEADu), nullptr);
}

// --- Cluster: lazy residency -------------------------------------------------

TEST(RecalClusterTest, LazyResidencyFitsExactlyTheQueriedCorpora) {
  ClusterConfig cfg = two_corpus_config(2, 0);
  CorpusConfig spare;  // configured, never queried: must never fit
  spare.name = "spare";
  spare.service.calibration = tiny_calibration(125);
  cfg.corpora.push_back(std::move(spare));
  ServingCluster cluster(std::move(cfg));
  EXPECT_EQ(cluster.corpora(), 3);
  EXPECT_EQ(cluster.registry_fits(), 0);  // construction fits nothing

  std::vector<AdvisorRequest> requests = mixed_requests();
  const std::vector<AdvisorRequest> alt = mixed_requests("alt");
  requests.insert(requests.end(), alt.begin(), alt.end());
  const std::vector<AdvisorResponse> responses = cluster.serve_batch(requests);
  for (const AdvisorResponse& r : responses) EXPECT_FALSE(r.degraded());

  EXPECT_EQ(cluster.registry_fits(), 2);  // default + alt, NOT spare
  EXPECT_EQ(cluster.bundle_epoch(""), 1u);
  EXPECT_EQ(cluster.bundle_epoch("alt"), 1u);
  EXPECT_EQ(cluster.bundle_epoch("spare"), 0u);
  EXPECT_EQ(cluster.bundle_epoch("nope"), 0u);

  const ClusterMetrics m = cluster.metrics();
  EXPECT_EQ(m.lazy_fits, 2);
  EXPECT_EQ(m.refits, 0);
  ASSERT_EQ(m.bundle_epoch.size(), 3u);
  EXPECT_EQ(m.bundle_epoch[0].first, "");
  EXPECT_EQ(m.bundle_epoch[0].second, 1u);
  EXPECT_EQ(m.bundle_epoch[1].first, "alt");
  EXPECT_EQ(m.bundle_epoch[1].second, 1u);
  EXPECT_EQ(m.bundle_epoch[2].first, "spare");
  EXPECT_EQ(m.bundle_epoch[2].second, 0u);
}

TEST(RecalClusterTest, AppendAndRefitAdvanceTheEpochWithoutQueries) {
  ServingCluster cluster(tiny_cluster_config(2, 0));
  // append_observations forces residency: the corpus fits now even though
  // no query ever named it.
  EXPECT_TRUE(cluster.append_observations("", drift_observations(31)));
  EXPECT_EQ(cluster.registry_fits(), 1);
  EXPECT_EQ(cluster.bundle_epoch(""), 1u);

  EXPECT_EQ(cluster.refit(""), 2u);  // lower bound on the published epoch
  cluster.wait_refits();
  EXPECT_EQ(cluster.bundle_epoch(""), 2u);
  EXPECT_EQ(cluster.metrics().refits, 1);
  EXPECT_EQ(cluster.registry_fits(), 1);  // a refit is not a fit

  // Unknown names are rejected on every recalibration surface.
  EXPECT_FALSE(cluster.append_observations("nope", {}));
  EXPECT_EQ(cluster.refit("nope"), 0u);
  EXPECT_EQ(cluster.recalibrate("nope"), 0u);
}

// --- Cluster: deterministic recalibration ------------------------------------

TEST(RecalClusterTest, RecalibrationScheduleIsByteReproducible) {
  // Two identically-configured clusters (independent primaries) running
  // the same serve/recalibrate/serve schedule must emit byte-identical
  // responses in both passes: the drift study's seed is a pure function of
  // (calibration seed, superseded epoch), never the wall clock.
  const std::vector<AdvisorRequest> requests = mixed_requests();
  std::vector<std::vector<std::string>> pass1, pass2;
  for (int run = 0; run < 2; ++run) {
    ServingCluster cluster(tiny_cluster_config(2, 0));
    pass1.push_back(jsonl_of(cluster.serve_batch(requests)));
    EXPECT_EQ(cluster.recalibrate(""), 2u);
    cluster.wait_refits();
    EXPECT_EQ(cluster.bundle_epoch(""), 2u);
    pass2.push_back(jsonl_of(cluster.serve_batch(requests)));
  }
  EXPECT_EQ(pass1[0], pass1[1]);
  EXPECT_EQ(pass2[0], pass2[1]);
  // The recalibration folded new observations in, so epoch 2 really is a
  // different model for at least one request shape.
  int differing = 0;
  for (std::size_t i = 0; i < pass1[0].size(); ++i)
    if (pass1[0][i] != pass2[0][i]) ++differing;
  EXPECT_GT(differing, 0);
}

// --- Cluster: epoch-scoped invalidation and quotas ---------------------------

TEST(RecalClusterTest, InvalidationEvictsExactlyTheStaleCorpusEntries) {
  ServingCluster cluster(two_corpus_config(2, 512));
  std::vector<AdvisorRequest> requests = mixed_requests();
  const std::vector<AdvisorRequest> alt = mixed_requests("alt");
  requests.insert(requests.end(), alt.begin(), alt.end());
  const std::size_t per_corpus = requests.size() / 2;

  const std::vector<std::string> epoch1 = jsonl_of(cluster.serve_batch(requests));  // cold
  const ClusterMetrics cold = cluster.metrics();
  EXPECT_EQ(cold.cache_hits, 0);
  EXPECT_EQ(cold.epoch_invalidations, 0);

  EXPECT_EQ(cluster.recalibrate("alt"), 2u);
  cluster.wait_refits();
  EXPECT_EQ(cluster.bundle_epoch("alt"), 2u);
  EXPECT_EQ(cluster.bundle_epoch(""), 1u);  // untouched corpus, untouched epoch
  EXPECT_EQ(cluster.metrics().refits, 1);   // exactly one swap

  // The swap swept EXACTLY alt's partition: every one of alt's entries,
  // none of default's.
  EXPECT_EQ(cluster.metrics().epoch_invalidations,
            static_cast<long>(per_corpus));

  // Warm pass: default's half still hits with its epoch-1 bytes; alt's
  // half re-evaluates at epoch 2 and re-populates.
  const std::vector<std::string> epoch2 = jsonl_of(cluster.serve_batch(requests));
  const ClusterMetrics warm = cluster.metrics();
  EXPECT_EQ(warm.cache_hits, static_cast<long>(per_corpus));
  for (std::size_t i = 0; i < per_corpus; ++i) EXPECT_EQ(epoch2[i], epoch1[i]) << "slot " << i;

  // Third pass: everything hits again — the invalidation was a one-time
  // sweep, not a lingering penalty — and the hits serve the epoch-2 bytes.
  EXPECT_EQ(jsonl_of(cluster.serve_batch(requests)), epoch2);
  EXPECT_EQ(cluster.metrics().cache_hits - warm.cache_hits,
            static_cast<long>(requests.size()));
}

TEST(RecalClusterTest, OneCorpusTrafficCannotEvictAnotherCorpusCache) {
  // Quota direction 2 (test_cluster floods the default corpus): here the
  // NAMED corpus floods and the default stays warm.
  ServingCluster cluster(two_corpus_config(2, 64));
  AdvisorRequest a, b;
  a.image_edge = 256;
  b.image_edge = 512;
  cluster.serve_batch({a, b});  // warm the default partition

  std::vector<AdvisorRequest> flood;
  for (int i = 0; i < 96; ++i) {  // 96 distinct keys >> the 64-entry cache
    AdvisorRequest r;
    r.corpus = "alt";
    r.image_edge = 64 + i;
    flood.push_back(std::move(r));
  }
  cluster.serve_batch(flood);

  const long hits_before = cluster.metrics().cache_hits;
  cluster.serve_batch({a, b});
  EXPECT_EQ(cluster.metrics().cache_hits - hits_before, 2);
}

// --- Concurrency: in-flight requests pin their admitted epoch ----------------

// Reference byte sets per epoch for `requests` under `config`'s default
// corpus: index [e][i] is slot i's bytes at epoch e+1. A fresh cluster per
// call, cache off, fully synchronized — the fixed-epoch-schedule oracle.
std::vector<std::vector<std::string>> bytes_per_epoch(
    const ClusterConfig& config, const std::vector<AdvisorRequest>& requests,
    int epochs) {
  ServingCluster reference(config);
  std::vector<std::vector<std::string>> bytes;
  bytes.push_back(jsonl_of(reference.serve_batch(requests)));
  for (int e = 2; e <= epochs; ++e) {
    reference.recalibrate("");
    reference.wait_refits();
    bytes.push_back(jsonl_of(reference.serve_batch(requests)));
  }
  return bytes;
}

TEST(RecalFuzzTest, SubmittersRacingRefitsStayOnAdmittedEpochs) {
  // Seeded stress rounds: concurrent submitters hammer the cluster while
  // the main thread schedules recalibrations. Every response must be
  // byte-identical to SOME epoch's reference bytes for its slot — a torn
  // read, a half-swapped bundle, or a request evaluated partly on each
  // epoch would produce bytes outside every reference set. The TSan CI job
  // runs this filter with ISR_STRESS_ITERS raised; a failure prints its
  // seed for replay.
  const long rounds = core::env_long("ISR_STRESS_ITERS", 3);
  const std::vector<AdvisorRequest> requests = mixed_requests();
  constexpr int kSubmitters = 3;
  constexpr int kPassesPerSubmitter = 2;

  for (long seed = 0; seed < rounds; ++seed) {
    SCOPED_TRACE("fuzz seed " + std::to_string(seed));
    const int shards = 1 + static_cast<int>(seed % 3);
    const int epochs = 2 + static_cast<int>(seed % 2);
    const ClusterConfig config = tiny_cluster_config(shards, 0);
    const std::vector<std::vector<std::string>> reference =
        bytes_per_epoch(config, requests, epochs);

    ServingCluster cluster(config);
    cluster.serve_batch({requests[0]});  // force epoch 1 before the race

    std::atomic<bool> failed{false};
    std::vector<std::thread> submitters;
    std::vector<std::string> errors(kSubmitters);
    for (int t = 0; t < kSubmitters; ++t) {
      submitters.emplace_back([&, t] {
        for (int pass = 0; pass < kPassesPerSubmitter; ++pass) {
          const std::vector<AdvisorResponse> responses =
              cluster.serve_batch(requests);
          for (std::size_t i = 0; i < responses.size(); ++i) {
            const std::string got = serve::to_jsonl(responses[i]);
            bool known = false;
            for (const std::vector<std::string>& epoch_bytes : reference)
              if (epoch_bytes[i] == got) known = true;
            if (!known) {
              failed.store(true);
              errors[static_cast<std::size_t>(t)] =
                  "slot " + std::to_string(i) + " answered off-epoch bytes: " + got;
              return;
            }
          }
        }
      });
    }
    for (int e = 2; e <= epochs; ++e) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      cluster.recalibrate("");
      cluster.wait_refits();
    }
    for (std::thread& t : submitters) t.join();
    for (const std::string& error : errors)
      EXPECT_TRUE(error.empty()) << error;
    EXPECT_FALSE(failed.load());
    EXPECT_EQ(cluster.bundle_epoch(""), static_cast<std::uint64_t>(epochs));
    EXPECT_EQ(cluster.metrics().refits, epochs - 1);
  }
}

}  // namespace
}  // namespace isr::cluster
