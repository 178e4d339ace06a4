// Chaos-recovery throughput (beyond the paper): the fault-tolerance layer
// under a deterministic fault schedule. One fixed batch of §5.9
// feasibility queries runs three ways — BASELINE, a fault-free cluster
// (the reference bytes and reference throughput); CHAOS, the same queries
// against a cluster injecting eval throws AND worker crashes at a fixed
// seed (supervised workers absorb the throws, the watchdog restarts the
// crashed workers and re-drives the batches they held, failover walks the
// rendezvous order, and requests whose three attempts all fail degrade
// explicitly); and REPLAY-CHAOS, a second fresh cluster with the SAME
// fault seed, which must reproduce the chaos leg's responses byte for
// byte — the injector keys every decision on (stream id, per-stream seq,
// attempt), so the schedule is independent of thread interleaving.
//
// Health gates (exit nonzero on violation):
//   - every request is answered, in order, in all three legs;
//   - the chaos leg really exercised the machinery: at least one injected
//     fault, at least one worker restart, at least one retry — and some
//     requests degraded while most survived (a schedule that degrades
//     nothing, or everything, gates nothing);
//   - every non-degraded chaos response is byte-identical to the baseline
//     (recovery must not bend surviving bytes);
//   - the replay-chaos leg is byte-identical to the chaos leg, degraded
//     responses included (determinism contract);
//   - chaos throughput stays within kChaosFloor of baseline: recovery
//     machinery (restarts, backoff, re-drives) costs something, but an
//     order-of-magnitude collapse means the watchdog or the retry path is
//     thrashing.
//
// The final line is machine-readable JSON (prefix "JSON ") for the
// nightly perf trajectory:
//   JSON {"bench":"chaos_recovery","queries":...,"shards":...,
//         "qps_baseline":...,"qps_chaos":...,"chaos_ratio":...,
//         "degraded":...,"worker_restarts":...,"retries":...,
//         "failovers":...,"faults_injected":...,
//         "replay_identical":true,"survivors_identical":true,
//         "identical":true}
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/metrics.hpp"
#include "cluster/stream.hpp"
#include "common.hpp"
#include "core/fault.hpp"
#include "serve/advisor.hpp"
#include "serve/registry.hpp"

using namespace isr;

namespace {

// Chaos knobs: both transient sites at a rate where a request's three
// attempts all fail ~2% of the time — enough degraded responses to gate
// on, far from degrading the whole batch. The seed is part of the bench's
// identity: changing it changes which requests degrade (and the committed
// baseline's degraded count).
constexpr std::uint64_t kFaultSeed = 20160;
constexpr double kFaultRate = 0.15;
// Chaos-vs-baseline throughput floor. At this rate nearly every batch
// crashes, so the chaos leg's wall clock is dominated by crash DETECTION
// latency (~190 restarts x the 100us watchdog poll ~= 19ms against a ~1ms
// fault-free run): the measured ratio sits stably at ~0.02x and is a
// property of the knobs, not a regression. The floor guards an order-of-
// magnitude collapse below that structural cost — a watchdog that stops
// noticing crashes or a retry path gone thrashing.
constexpr double kChaosFloor = 0.004;

double seconds_since(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

model::StudyConfig calibration() {
  // The ISR_BENCH_SCALE-following calibration shape shared by the cluster
  // benches, including the max_n floor (a constant-O corpus makes the
  // rasterization regression singular).
  model::StudyConfig cfg = serve::default_calibration();
  cfg.min_image = bench::scaled(128);
  cfg.max_image = bench::scaled(288);
  cfg.min_n = bench::scaled(20);
  cfg.max_n = std::max(bench::scaled(40), cfg.min_n + 12);
  cfg.vr_samples = bench::scaled(200, 50);
  return cfg;
}

cluster::ClusterConfig cluster_config(bool chaos) {
  cluster::ClusterConfig cfg;
  cfg.service.calibration = calibration();
  cfg.shards = 2;
  cfg.cache_entries = 0;  // every request evaluated: every request can fault
  // Small batches bound a crash's blast radius (a crash re-drives its whole
  // batch); the bench measures recovery machinery, not innocent re-drives.
  cfg.batch_size = 8;
  if (chaos) {
    cfg.fault.seed = kFaultSeed;
    cfg.fault.rate = kFaultRate;
    cfg.fault.sites = 1u << static_cast<int>(core::FaultSite::kShardEvalThrow);
    cfg.fault.sites |= 1u << static_cast<int>(core::FaultSite::kWorkerCrash);
    cfg.watchdog_poll_us = 100;  // crashes are frequent; detect them fast
    // Backoff trimmed to keep the timed leg about recovery work, not sleep.
    cfg.retry_backoff_us = 5;
    cfg.retry_backoff_max_us = 50;
  }
  return cfg;
}

// A compact §5.9 query grid (the advisor-throughput grid at few
// repetitions — the chaos legs run it three times total).
std::vector<serve::AdvisorRequest> query_grid() {
  const std::vector<std::string> archs = {"CPU1", "GPU1"};
  const std::vector<model::RendererKind> renderers = {model::RendererKind::kRayTrace,
                                                      model::RendererKind::kRasterize,
                                                      model::RendererKind::kVolume};
  const std::vector<int> edges = {256, 512, 1024};
  const std::vector<int> data_sizes = {50, 100, 200};
  const std::vector<int> task_counts = {8, 64};
  const int repetitions = 8;

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

// One serial session (stream id 0 on a fresh cluster — the injector's k0),
// submitting everything in order. Serial submission keeps the bench's
// measured cost the recovery machinery itself, not producer scheduling.
std::vector<serve::AdvisorResponse> run_leg(cluster::ServingCluster& serving,
                                            const std::vector<serve::AdvisorRequest>& requests,
                                            double& seconds) {
  const auto start = std::chrono::steady_clock::now();
  cluster::StreamSession session = serving.open_stream();
  for (const serve::AdvisorRequest& req : requests) session.submit(req);
  std::vector<serve::AdvisorResponse> responses = session.close();
  seconds = seconds_since(start);
  return responses;
}

}  // namespace

int main() {
  bench::print_header(
      "Chaos recovery (beyond the paper)",
      "One fixed query batch: fault-free baseline vs deterministic eval-throw + "
      "worker-crash injection (seed " + std::to_string(kFaultSeed) +
          ", rate " + std::to_string(kFaultRate) + "), plus a same-seed replay leg.");

  const std::vector<serve::AdvisorRequest> requests = query_grid();
  const auto primary = std::make_shared<serve::ModelRegistry>();
  primary->bundle_for(calibration());  // calibrate outside every timed region

  double t_baseline = 0.0, t_chaos = 0.0, t_replay = 0.0;
  std::vector<serve::AdvisorResponse> baseline, chaos, replayed;
  long degraded = 0;
  cluster::ClusterMetrics chaos_metrics;
  {
    cluster::ServingCluster serving(cluster_config(/*chaos=*/false), primary);
    baseline = run_leg(serving, requests, t_baseline);
  }
  {
    cluster::ServingCluster serving(cluster_config(/*chaos=*/true), primary);
    chaos = run_leg(serving, requests, t_chaos);
    chaos_metrics = serving.metrics();
  }
  {
    cluster::ServingCluster serving(cluster_config(/*chaos=*/true), primary);
    replayed = run_leg(serving, requests, t_replay);
  }

  bool ok = baseline.size() == requests.size() && chaos.size() == requests.size() &&
            replayed.size() == requests.size();
  bool replay_identical = ok;
  bool survivors_identical = ok;
  if (ok) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (serve::to_jsonl(chaos[i]) != serve::to_jsonl(replayed[i]))
        replay_identical = false;
      if (chaos[i].degraded()) {
        ++degraded;
      } else if (serve::to_jsonl(chaos[i]) != serve::to_jsonl(baseline[i])) {
        survivors_identical = false;
      }
    }
  }

  const auto n = static_cast<double>(requests.size());
  const double qps_baseline = t_baseline > 0.0 ? n / t_baseline : 0.0;
  // The chaos legs are identical by contract; the faster attempt is the
  // throughput (same best-of-N stance as the other cluster benches).
  const double chaos_seconds = std::min(t_chaos, t_replay);
  const double qps_chaos = chaos_seconds > 0.0 ? n / chaos_seconds : 0.0;
  const double chaos_ratio = qps_baseline > 0.0 ? qps_chaos / qps_baseline : 0.0;

  std::printf("%-34s %12s %12s %10s\n", "leg", "seconds", "qps", "degraded");
  bench::print_rule();
  std::printf("%-34s %12.4f %12.1f %10s\n", "baseline (no faults)", t_baseline,
              qps_baseline, "0");
  std::printf("%-34s %12.4f %12.1f %10ld\n", "chaos (throw+crash)", t_chaos,
              n / t_chaos, degraded);
  std::printf("%-34s %12.4f %12.1f %10s\n", "chaos replay (same seed)", t_replay,
              n / t_replay, replay_identical ? "=chaos" : "DIFFERS");
  bench::print_rule();
  std::printf("worker_restarts=%ld retries=%ld failovers=%ld faults_injected=%ld\n",
              chaos_metrics.worker_restarts, chaos_metrics.retries,
              chaos_metrics.failovers, chaos_metrics.faults_injected);

  // The gates.
  const bool exercised = chaos_metrics.faults_injected > 0 &&
                         chaos_metrics.worker_restarts > 0 && chaos_metrics.retries > 0;
  const bool degraded_sane =
      degraded > 0 && degraded < static_cast<long>(requests.size()) / 2;
  const bool throughput_ok = chaos_ratio >= kChaosFloor;
  if (!ok) std::printf("FAIL: a leg lost responses\n");
  if (!exercised)
    std::printf("FAIL: chaos leg injected nothing (restarts=%ld retries=%ld)\n",
                chaos_metrics.worker_restarts, chaos_metrics.retries);
  if (!degraded_sane)
    std::printf("FAIL: degraded count %ld out of %zu gates nothing\n", degraded,
                requests.size());
  if (!survivors_identical)
    std::printf("FAIL: a surviving chaos response differs from the baseline bytes\n");
  if (!replay_identical)
    std::printf("FAIL: same seed, different bytes (determinism contract broken)\n");
  if (!throughput_ok)
    std::printf("FAIL: chaos throughput collapsed (%.2fx of baseline, floor %.2fx)\n",
                chaos_ratio, kChaosFloor);

  const bool identical = ok && exercised && degraded_sane && survivors_identical &&
                         replay_identical && throughput_ok;
  std::printf(
      "\nJSON {\"bench\":\"chaos_recovery\",\"queries\":%zu,\"shards\":2,"
      "\"qps_baseline\":%.1f,\"qps_chaos\":%.1f,\"chaos_ratio\":%.4f,"
      "\"degraded\":%ld,\"worker_restarts\":%ld,\"retries\":%ld,"
      "\"failovers\":%ld,\"faults_injected\":%ld,"
      "\"replay_identical\":%s,\"survivors_identical\":%s,\"identical\":%s}\n",
      requests.size(), qps_baseline, qps_chaos, chaos_ratio, degraded,
      chaos_metrics.worker_restarts, chaos_metrics.retries, chaos_metrics.failovers,
      chaos_metrics.faults_injected, replay_identical ? "true" : "false",
      survivors_identical ? "true" : "false", identical ? "true" : "false");
  return identical ? 0 : 1;
}
