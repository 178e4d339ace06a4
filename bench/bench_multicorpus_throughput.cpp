// Multi-corpus cluster serving throughput (beyond the paper): the paper's
// feasibility model is one calibration corpus — one machine/configuration
// fit (Tables 12-17) — but a production advisor serves many machines at
// once. This bench makes two corpora resident (the default calibration and
// a re-seeded sibling, distinct fingerprints) and answers one fixed
// corpus-mixed batch three ways — a 1-shard serial cluster, an N-shard
// parallel cluster cold, and the same cluster warm — then runs a skewed
// stream (one hot (corpus, arch) key) against two cache-less clusters,
// rebalancing off vs on, and compares the max/mean shard-load ratio.
//
// Health gates (exit nonzero on violation):
//   - parallel responses, cold AND warm, byte-identical through
//     serve::to_jsonl to the serial cluster's with BOTH corpora resident
//     (the PR 2/3/4 determinism contract extended to corpus count);
//   - registry fits == distinct corpus fingerprints (= 2 here) across ALL
//     five clusters (one shared primary fits each corpus once);
//   - the warm pass hits the cache on every request (corpus is part of the
//     canonical key, so corpora cannot evict or serve each other);
//   - the skewed stream's max/mean shard-load ratio is STRICTLY lower with
//     rebalancing on than off, and the skewed responses are byte-identical
//     either way.
//
// The final line is machine-readable JSON (prefix "JSON ") so the nightly
// workflow can archive the perf trajectory:
//   JSON {"bench":"multicorpus_throughput","queries":...,"corpora":2,
//         "registry_fits":2,"shards":...,"threads":...,
//         "qps_serial":...,"qps_parallel_cold":...,"qps_parallel_warm":...,
//         "skew_ratio_off":...,"skew_ratio_on":...,"rebalanced":...,
//         "identical":true}
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "common.hpp"
#include "core/thread_pool.hpp"
#include "serve/advisor.hpp"

using namespace isr;

namespace {

double seconds_since(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

model::StudyConfig calibration(std::uint64_t seed) {
  // The bench_cluster_throughput calibration shape (ISR_BENCH_SCALE-
  // following, max_n floored against a singular rasterization fit),
  // re-seeded per corpus: each seed is a distinct fingerprint and fit.
  model::StudyConfig cfg = serve::default_calibration();
  cfg.min_image = bench::scaled(128);
  cfg.max_image = bench::scaled(288);
  cfg.min_n = bench::scaled(20);
  cfg.max_n = std::max(bench::scaled(40), cfg.min_n + 12);
  cfg.vr_samples = bench::scaled(200, 50);
  cfg.seed = seed;
  return cfg;
}

cluster::ClusterConfig cluster_config(int shards, std::size_t cache_entries,
                                      bool rebalance) {
  cluster::ClusterConfig cfg;
  cfg.service.calibration = calibration(77);
  cluster::CorpusConfig titan;  // "the other machine": same shape, new seed
  titan.name = "titan";
  titan.service.calibration = calibration(1701);
  cfg.corpora.push_back(std::move(titan));
  cfg.shards = shards;
  cfg.cache_entries = cache_entries;
  if (!rebalance) cfg.imbalance_ratio = 0.0;  // pin every key to its home shard
  return cfg;
}

// The bench_cluster_throughput query grid, halved in repetitions and dealt
// across the two resident corpora (plus every request answered once more
// under the other corpus's name, so both corpora see every shape).
std::vector<serve::AdvisorRequest> query_grid() {
  const std::vector<std::string> archs = {"CPU1", "GPU1"};
  const std::vector<model::RendererKind> renderers = {model::RendererKind::kRayTrace,
                                                      model::RendererKind::kRasterize,
                                                      model::RendererKind::kVolume};
  const std::vector<int> edges = {256, 512, 1024, 2048};
  const std::vector<int> data_sizes = {50, 100, 200, 400};
  const std::vector<int> task_counts = {8, 64};
  const int repetitions = 20;

  std::vector<serve::AdvisorRequest> requests;
  requests.reserve(2 * archs.size() * renderers.size() * edges.size() * data_sizes.size() *
                   task_counts.size() * static_cast<std::size_t>(repetitions));
  for (int rep = 0; rep < repetitions; ++rep)
    for (const std::string& arch : archs)
      for (const model::RendererKind kind : renderers)
        for (const int edge : edges)
          for (const int n : data_sizes)
            for (const int tasks : task_counts)
              for (const char* corpus : {"", "titan"}) {
                serve::AdvisorRequest req;
                req.corpus = corpus;
                req.arch = arch;
                req.renderer = kind;
                req.n_per_task = n;
                req.tasks = tasks;
                req.image_edge = edge;
                req.budget_seconds = 30.0 + rep;
                req.frames = 100;
                requests.push_back(req);
              }
  return requests;
}

// The skewed stream: 85% of the traffic is one (default corpus, CPU1) key,
// the rest spreads over the remaining (corpus, arch) keys — the "one hot
// arch pins one shard" scenario from the ROADMAP.
std::vector<serve::AdvisorRequest> skewed_stream() {
  std::vector<serve::AdvisorRequest> requests;
  const int total = 6000;
  const char* cold_corpus[3] = {"", "titan", "titan"};
  const char* cold_arch[3] = {"GPU1", "CPU1", "GPU1"};
  requests.reserve(static_cast<std::size_t>(total));
  for (int i = 0; i < total; ++i) {
    serve::AdvisorRequest req;
    if (i % 20 < 17) {  // 85%: the hot key
      req.corpus = "";
      req.arch = "CPU1";
    } else {
      req.corpus = cold_corpus[i % 3];
      req.arch = cold_arch[i % 3];
    }
    // Vary the shape so the stream is not one repeated request.
    req.n_per_task = 50 + 25 * (i % 8);
    req.image_edge = 256 + 128 * (i % 4);
    req.budget_seconds = 30.0 + (i % 16);
    requests.push_back(req);
  }
  return requests;
}

bool identical(const std::vector<serve::AdvisorResponse>& a,
               const std::vector<serve::AdvisorResponse>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!serve::responses_identical(a[i], b[i]) || serve::to_jsonl(a[i]) != serve::to_jsonl(b[i]))
      return false;
  return true;
}

// Max/mean over the per-shard evaluated-query counts: 1.0 is a perfectly
// level cluster; shards x (hot share) is one key pinning one shard.
double shard_load_ratio(const cluster::ClusterMetrics& m) {
  if (m.shard_queries.empty()) return 0.0;
  long max_q = 0, total = 0;
  for (const long q : m.shard_queries) {
    max_q = std::max(max_q, q);
    total += q;
  }
  if (total == 0) return 0.0;
  const double mean = static_cast<double>(total) / static_cast<double>(m.shard_queries.size());
  return static_cast<double>(max_q) / mean;
}

}  // namespace

int main() {
  const int threads = core::default_thread_count();
  const int shards = std::max(2, std::min(4, threads));
  bench::print_header(
      "Multi-corpus cluster serving throughput (beyond the paper)",
      "Two resident calibration corpora (distinct fingerprints); 1-shard serial vs " +
          std::to_string(shards) + "-shard/" + std::to_string(threads) +
          "-thread parallel, cold and warm cache; then a skewed stream (one hot key), "
          "rebalancing off vs on.");

  const std::vector<serve::AdvisorRequest> requests = query_grid();
  const auto primary = std::make_shared<serve::ModelRegistry>();
  cluster::ServingCluster serial(cluster_config(1, 0, true), primary);
  // 2x slack on the cache, as in bench_cluster_throughput: keys hash
  // unevenly across the LRU's ways, and one overfull way would evict.
  cluster::ServingCluster parallel(
      cluster_config(shards, 2 * requests.size(), true), primary);

  // Calibrate both corpora once, outside the timed region (fit-once is the
  // registry's point; every cluster then serves those two bundles).
  const auto calib_start = std::chrono::steady_clock::now();
  const std::size_t corpus_a =
      primary->bundle_for(serial.config().service.calibration)->corpus_size;
  const std::size_t corpus_b =
      primary->bundle_for(serial.config().corpora[0].service.calibration)->corpus_size;
  const double t_calibrate = seconds_since(calib_start);

  const auto serial_start = std::chrono::steady_clock::now();
  const std::vector<serve::AdvisorResponse> serial_responses = serial.serve_batch(requests);
  const double t_serial = seconds_since(serial_start);

  const auto cold_start = std::chrono::steady_clock::now();
  const std::vector<serve::AdvisorResponse> cold = parallel.serve_batch(requests);
  const double t_cold = seconds_since(cold_start);

  const auto warm_start = std::chrono::steady_clock::now();
  const std::vector<serve::AdvisorResponse> warm = parallel.serve_batch(requests);
  const double t_warm = seconds_since(warm_start);

  const bool mixed_same = identical(serial_responses, cold) && identical(serial_responses, warm);
  const cluster::ClusterMetrics parallel_metrics = parallel.metrics();
  const double warm_hit_rate =
      static_cast<double>(parallel_metrics.cache_hits) /
      static_cast<double>(requests.size() > 0 ? requests.size() : 1);
  std::size_t answered = 0;
  for (const serve::AdvisorResponse& r : serial_responses) answered += r.ok() ? 1 : 0;
  const bool all_ok = answered == requests.size();

  // --- Skewed traffic: one hot (corpus, arch) key, rebalancing off vs on.
  // Cache off so every request reaches a shard and the load counts mean
  // something; same shared primary, so still no refits.
  const std::vector<serve::AdvisorRequest> skewed = skewed_stream();
  cluster::ServingCluster pinned(cluster_config(shards, 0, false), primary);
  cluster::ServingCluster balanced(cluster_config(shards, 0, true), primary);
  const std::vector<serve::AdvisorResponse> skew_off = pinned.serve_batch(skewed);
  const std::vector<serve::AdvisorResponse> skew_on = balanced.serve_batch(skewed);
  const bool skew_same = identical(skew_off, skew_on);
  const double ratio_off = shard_load_ratio(pinned.metrics());
  const double ratio_on = shard_load_ratio(balanced.metrics());
  const long rebalanced = balanced.metrics().rebalanced_queries;

  // Every cluster shares the primary: total fits across the fleet must be
  // exactly the two distinct fingerprints.
  const int fits = primary->fits() + (serial.registry_fits() - primary->fits()) +
                   (parallel.registry_fits() - primary->fits()) +
                   (pinned.registry_fits() - primary->fits()) +
                   (balanced.registry_fits() - primary->fits());

  const double n = static_cast<double>(requests.size());
  std::printf("calibration: %zu + %zu observations fitted in %.3fs (registry fits: %d)\n\n",
              corpus_a, corpus_b, t_calibrate, fits);
  std::printf("%-28s %8s %8s %12s %12s\n", "run", "shards", "threads", "seconds",
              "queries/sec");
  bench::print_rule(74);
  std::printf("%-28s %8d %8d %12.4f %12.0f\n", "serial cluster", 1, 1, t_serial, n / t_serial);
  std::printf("%-28s %8d %8d %12.4f %12.0f\n", "parallel cluster (cold)", shards, threads,
              t_cold, n / t_cold);
  std::printf("%-28s %8d %8d %12.4f %12.0f\n", "parallel cluster (warm)", shards, threads,
              t_warm, n / t_warm);
  std::printf("\ncluster metrics: %s\n", parallel_metrics.to_jsonl().c_str());
  std::printf("\nskewed stream (%zu queries, 85%% one key): max/mean shard load %.3f "
              "pinned -> %.3f rebalanced (%ld requests spread)\n",
              skewed.size(), ratio_off, ratio_on, rebalanced);
  std::printf("%zu mixed queries (%zu ok%s); warm hit rate %.3f; "
              "responses byte-identical: %s (mixed) / %s (skewed)\n",
              requests.size(), answered, all_ok ? "" : " — DEGENERATE CALIBRATION",
              warm_hit_rate, mixed_same ? "yes" : "NO (BUG)", skew_same ? "yes" : "NO (BUG)");

  std::printf(
      "JSON {\"bench\":\"multicorpus_throughput\",\"queries\":%zu,\"corpora\":2,"
      "\"registry_fits\":%d,\"shards\":%d,\"threads\":%d,\"calibration_seconds\":%.6f,"
      "\"serial_seconds\":%.6f,\"parallel_cold_seconds\":%.6f,\"parallel_warm_seconds\":%.6f,"
      "\"qps_serial\":%.1f,\"qps_parallel_cold\":%.1f,\"qps_parallel_warm\":%.1f,"
      "\"warm_hit_rate\":%.6f,\"skew_ratio_off\":%.4f,\"skew_ratio_on\":%.4f,"
      "\"rebalanced\":%ld,\"identical\":%s}\n",
      requests.size(), fits, shards, threads, t_calibrate, t_serial, t_cold, t_warm,
      n / t_serial, n / t_cold, n / t_warm, warm_hit_rate, ratio_off, ratio_on, rebalanced,
      mixed_same && skew_same ? "true" : "false");

  // Health gates: byte-identity (mixed cold/warm AND skewed off/on), one
  // fit per distinct fingerprint, a fully-hitting warm pass, every query
  // ok, and rebalancing strictly levelling the skewed load.
  const bool gates = mixed_same && skew_same && fits == 2 && warm_hit_rate == 1.0 &&
                     all_ok && ratio_on < ratio_off;
  return gates ? 0 : 1;
}
