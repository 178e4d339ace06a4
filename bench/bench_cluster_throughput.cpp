// Sharded-cluster serving throughput (beyond the paper): answers one fixed
// batch of §5.9 feasibility queries three ways — a 1-shard serial cluster,
// an N-shard parallel cluster with a cold response cache, and the same
// parallel cluster warm (every request a cache hit) — and reports
// queries/sec for each. Both clusters share one primary ModelRegistry, so
// the calibration corpus is fitted exactly once and every admitted request
// pins that one bundle.
//
// Health gates (exit nonzero on violation):
//   - the parallel cluster's responses, cold AND warm, are byte-identical
//     through serve::to_jsonl to the serial cluster's (the determinism
//     contract: shard count, thread count, and cache state change nothing);
//   - exactly one registry fit per distinct corpus fingerprint (= 1 here);
//   - the warm pass hits the cache on every request;
//   - every query is answered ok.
//
// The final line is machine-readable JSON (prefix "JSON ") so the nightly
// workflow can archive the perf trajectory:
//   JSON {"bench":"cluster_throughput","queries":...,"shards":...,
//         "threads":...,"calibration_seconds":...,"registry_fits":1,
//         "serial_seconds":...,"parallel_cold_seconds":...,
//         "parallel_warm_seconds":...,"qps_serial":...,"qps_parallel_cold":...,
//         "qps_parallel_warm":...,"warm_hit_rate":...,"identical":true}
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

model::StudyConfig calibration() {
  // The same ISR_BENCH_SCALE-following calibration shape as
  // bench_advisor_throughput, including its floor on max_n (a constant-O
  // corpus makes the rasterization regression singular).
  model::StudyConfig cfg = serve::default_calibration();
  cfg.min_image = bench::scaled(128);
  cfg.max_image = bench::scaled(288);
  cfg.min_n = bench::scaled(20);
  cfg.max_n = std::max(bench::scaled(40), cfg.min_n + 12);
  cfg.vr_samples = bench::scaled(200, 50);
  return cfg;
}

cluster::ClusterConfig cluster_config(int shards, std::size_t cache_entries) {
  cluster::ClusterConfig cfg;
  cfg.service.calibration = calibration();
  cfg.shards = shards;
  cfg.cache_entries = cache_entries;
  return cfg;
}

// The bench_advisor_throughput query grid: every (arch, renderer) at a
// sweep of sizes and budgets, 7680 queries at 40 repetitions.
std::vector<serve::AdvisorRequest> query_grid() {
  const std::vector<std::string> archs = {"CPU1", "GPU1"};
  const std::vector<model::RendererKind> renderers = {model::RendererKind::kRayTrace,
                                                      model::RendererKind::kRasterize,
                                                      model::RendererKind::kVolume};
  const std::vector<int> edges = {256, 512, 1024, 2048};
  const std::vector<int> data_sizes = {50, 100, 200, 400};
  const std::vector<int> task_counts = {8, 64};
  const int repetitions = 40;

  std::vector<serve::AdvisorRequest> requests;
  requests.reserve(archs.size() * renderers.size() * edges.size() * data_sizes.size() *
                   task_counts.size() * static_cast<std::size_t>(repetitions));
  for (int rep = 0; rep < repetitions; ++rep)
    for (const std::string& arch : archs)
      for (const model::RendererKind kind : renderers)
        for (const int edge : edges)
          for (const int n : data_sizes)
            for (const int tasks : task_counts) {
              serve::AdvisorRequest req;
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

bool identical(const std::vector<serve::AdvisorResponse>& a,
               const std::vector<serve::AdvisorResponse>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!serve::responses_identical(a[i], b[i]) || serve::to_jsonl(a[i]) != serve::to_jsonl(b[i]))
      return false;
  return true;
}

}  // namespace

int main() {
  const int threads = core::default_thread_count();
  const int shards = std::max(2, std::min(4, threads));
  bench::print_header(
      "Sharded-cluster serving throughput (beyond the paper)",
      "One fixed query batch: 1-shard serial vs " + std::to_string(shards) + "-shard/" +
          std::to_string(threads) + "-thread parallel, cold and warm cache; shared primary registry.");

  const std::vector<serve::AdvisorRequest> requests = query_grid();
  const auto primary = std::make_shared<serve::ModelRegistry>();
  cluster::ServingCluster serial(cluster_config(1, 0), primary);
  // The cache must hold the whole distinct-request set so the warm pass is
  // all hits; 2x slack because keys hash unevenly across the LRU's ways and
  // one overfull way would evict (and fail the warm gate).
  cluster::ServingCluster parallel(cluster_config(shards, 2 * requests.size()),
                                   primary);

  // Calibrate once, outside the timed region (the fit-once contract is the
  // registry's point; both clusters then serve that one bundle).
  const auto calib_start = std::chrono::steady_clock::now();
  const std::size_t corpus =
      primary->bundle_for(serial.config().service.calibration)->corpus_size;
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

  const bool same = identical(serial_responses, cold) && identical(serial_responses, warm);
  const int fits = serial.registry_fits() + (parallel.registry_fits() - primary->fits());
  const cluster::ClusterMetrics metrics = parallel.metrics();
  // The warm pass is the second half of the parallel cluster's lookups.
  const double warm_hit_rate =
      static_cast<double>(metrics.cache_hits) /
      static_cast<double>(requests.size() > 0 ? requests.size() : 1);
  std::size_t answered = 0;
  for (const serve::AdvisorResponse& r : serial_responses) answered += r.ok() ? 1 : 0;
  const bool all_ok = answered == requests.size();

  const double n = static_cast<double>(requests.size());
  std::printf("calibration: %zu observations fitted in %.3fs (registry fits: %d)\n\n", corpus,
              t_calibrate, fits);
  std::printf("%-28s %8s %8s %12s %12s\n", "run", "shards", "threads", "seconds",
              "queries/sec");
  bench::print_rule(74);
  std::printf("%-28s %8d %8d %12.4f %12.0f\n", "serial cluster", 1, 1, t_serial, n / t_serial);
  std::printf("%-28s %8d %8d %12.4f %12.0f\n", "parallel cluster (cold)", shards, threads,
              t_cold, n / t_cold);
  std::printf("%-28s %8d %8d %12.4f %12.0f\n", "parallel cluster (warm)", shards, threads,
              t_warm, n / t_warm);
  std::printf("\ncluster metrics: %s\n", metrics.to_jsonl().c_str());
  std::printf("\n%zu queries (%zu ok%s); warm hit rate %.3f; responses byte-identical: %s\n",
              requests.size(), answered, all_ok ? "" : " — DEGENERATE CALIBRATION",
              warm_hit_rate, same ? "yes" : "NO (BUG)");

  std::printf(
      "JSON {\"bench\":\"cluster_throughput\",\"queries\":%zu,\"shards\":%d,\"threads\":%d,"
      "\"calibration_seconds\":%.6f,\"corpus_observations\":%zu,\"registry_fits\":%d,"
      "\"serial_seconds\":%.6f,\"parallel_cold_seconds\":%.6f,\"parallel_warm_seconds\":%.6f,"
      "\"qps_serial\":%.1f,\"qps_parallel_cold\":%.1f,\"qps_parallel_warm\":%.1f,"
      "\"warm_hit_rate\":%.6f,\"p50_latency_ms\":%.6f,\"p99_latency_ms\":%.6f,"
      "\"identical\":%s}\n",
      requests.size(), shards, threads, t_calibrate, corpus, fits, t_serial, t_cold, t_warm,
      n / t_serial, n / t_cold, n / t_warm, warm_hit_rate, metrics.p50_latency_ms,
      metrics.p99_latency_ms, same ? "true" : "false");

  // Health gates: byte-identity (cold and warm), exactly one fit per
  // distinct corpus fingerprint, a fully-hitting warm pass, all queries ok.
  return same && fits == 1 && warm_hit_rate == 1.0 && all_ok ? 0 : 1;
}
