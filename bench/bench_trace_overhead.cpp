// Tracing-overhead tracker (beyond the paper): the observability layer's
// contract is that a wired-but-disabled TraceRecorder costs nothing on the
// serving fast path — one relaxed atomic load per probe site — and that
// tracing, on or off, never changes a single response byte. This bench
// measures the same fixed query batch through three cluster
// configurations:
//
//   absent — config.trace == nullptr (the default; probes are null checks)
//   off    — a TraceRecorder wired in but never enabled
//   on     — the recorder enabled, every lifecycle span recorded
//
// Each leg takes the best of two attempts on a fresh cluster (runner noise
// is real; a genuine regression is a bug).
//
// Health gates (exit nonzero on violation):
//   - qps_off >= 0.95 * qps_absent: the disabled recorder stays within 5%
//     of no recorder at all (in practice they are indistinguishable; the
//     floor is what catches an accidentally hot probe);
//   - responses byte-identical through serve::to_jsonl across all three
//     legs;
//   - the enabled leg actually traced: admit/queue/eval/deliver events
//     present, zero ring drops at the default capacity;
//   - exactly one registry fit.
//
// The final line is machine-readable JSON (prefix "JSON ") so the nightly
// workflow can archive the perf trajectory:
//   JSON {"bench":"trace_overhead","queries":...,"shards":...,
//         "qps_absent":...,"qps_off":...,"qps_on":...,
//         "off_over_absent":...,"on_over_absent":...,
//         "trace_events":...,"trace_dropped":0,"p99_e2e_us":...,
//         "identical":true}
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/metrics.hpp"
#include "common.hpp"
#include "core/thread_pool.hpp"
#include "obs/trace.hpp"
#include "serve/advisor.hpp"

using namespace isr;

namespace {

// The disabled-tracing floor. The off leg's extra work per request is a
// handful of relaxed loads, far below timer resolution; 0.95 sits under
// runner noise while a probe that accidentally takes a lock or allocates
// lands well below it.
constexpr double kOffFloor = 0.95;

double seconds_since(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

model::StudyConfig calibration() {
  model::StudyConfig cfg = serve::default_calibration();
  cfg.min_image = bench::scaled(128);
  cfg.max_image = bench::scaled(288);
  cfg.min_n = bench::scaled(20);
  cfg.max_n = std::max(bench::scaled(40), cfg.min_n + 12);
  cfg.vr_samples = bench::scaled(200, 50);
  return cfg;
}

cluster::ClusterConfig cluster_config(int shards, obs::TraceRecorder* trace) {
  cluster::ClusterConfig cfg;
  cfg.service.calibration = calibration();
  cfg.shards = shards;
  cfg.cache_entries = 0;  // every request evaluated: the legs do equal work
  cfg.trace = trace;
  return cfg;
}

// The bench_stream_throughput query grid at half the repetitions — each of
// the three legs runs it twice.
std::vector<serve::AdvisorRequest> query_grid() {
  const std::vector<std::string> archs = {"CPU1", "GPU1"};
  const std::vector<model::RendererKind> renderers = {model::RendererKind::kRayTrace,
                                                      model::RendererKind::kRasterize,
                                                      model::RendererKind::kVolume};
  const std::vector<int> edges = {256, 512, 1024, 2048};
  const std::vector<int> data_sizes = {50, 100, 200, 400};
  const std::vector<int> task_counts = {8, 64};
  const int repetitions = 10;

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
      "Request-lifecycle tracing overhead (beyond the paper)",
      "One fixed query batch on " + std::to_string(shards) +
          " shards, three ways: no TraceRecorder, recorder wired but "
          "disabled, recorder enabled. Off must stay within " +
          std::to_string(kOffFloor) + "x of absent.");

  const std::vector<serve::AdvisorRequest> requests = query_grid();
  const auto primary = std::make_shared<serve::ModelRegistry>();

  // Calibrate once, outside every timed region.
  const auto calib_start = std::chrono::steady_clock::now();
  const std::size_t corpus = primary->bundle_for(calibration())->corpus_size;
  const double t_calibrate = seconds_since(calib_start);

  // One persistent recorder serves the off and on legs; each timed attempt
  // still gets a fresh cluster so no leg inherits warmed shard state.
  obs::TraceRecorder tracer;
  const auto run_leg = [&](obs::TraceRecorder* trace, bool enable,
                           std::vector<serve::AdvisorResponse>& responses) {
    double best = 0.0;
    for (int attempt = 0; attempt < 2; ++attempt) {
      if (trace) {
        trace->clear();
        if (enable)
          trace->enable();
        else
          trace->disable();
      }
      cluster::ServingCluster serving(cluster_config(shards, trace), primary);
      const auto start = std::chrono::steady_clock::now();
      std::vector<serve::AdvisorResponse> got = serving.serve_batch(requests);
      const double t = seconds_since(start);
      if (attempt == 0 || t < best) {
        best = t;
        responses = std::move(got);
      }
    }
    return best;
  };

  std::vector<serve::AdvisorResponse> absent_responses, off_responses, on_responses;
  const double t_absent = run_leg(nullptr, false, absent_responses);
  const double t_off = run_leg(&tracer, false, off_responses);
  const double t_on = run_leg(&tracer, true, on_responses);

  // The on leg's trace and stage histograms, from its best attempt's
  // recorder state (clear() ran before the attempt, so the buffer holds
  // exactly one run).
  const std::string trace_json = tracer.chrome_trace_json();
  const std::uint64_t trace_events = tracer.buffered();
  const std::uint64_t trace_dropped = tracer.dropped();
  const bool traced_lifecycle = trace_json.find("\"name\":\"admit\"") != std::string::npos &&
                                trace_json.find("\"name\":\"queue\"") != std::string::npos &&
                                trace_json.find("\"name\":\"eval\"") != std::string::npos &&
                                trace_json.find("\"name\":\"deliver\"") != std::string::npos;

  const int fits = primary->fits();
  const bool bytes_identical =
      identical(absent_responses, off_responses) && identical(absent_responses, on_responses);
  const double n = static_cast<double>(requests.size());
  const double qps_absent = n / t_absent;
  const double qps_off = n / t_off;
  const double qps_on = n / t_on;
  const bool off_within_floor = qps_off >= kOffFloor * qps_absent;

  // p99 end-to-end latency from the on leg's merged stage histograms — the
  // bounded-memory replacement for the old sample reservoir, reported here
  // so the nightly trajectory tracks tails alongside throughput (the gate
  // script treats p99_* as advisory: WARN past 2x, never FAIL).
  double p99_e2e_us = 0.0;
  {
    cluster::ServingCluster measured(cluster_config(shards, nullptr), primary);
    std::vector<serve::AdvisorResponse> got = measured.serve_batch(requests);
    p99_e2e_us = measured.metrics().e2e.percentile_us(99.0);
    if (!identical(absent_responses, got)) return 1;
  }

  std::size_t answered = 0;
  for (const serve::AdvisorResponse& r : absent_responses) answered += r.ok() ? 1 : 0;
  const bool all_ok = answered == requests.size();

  std::printf("calibration: %zu observations fitted in %.3fs (registry fits: %d)\n\n", corpus,
              t_calibrate, fits);
  std::printf("%-28s %12s %12s %10s\n", "leg", "seconds", "queries/sec", "vs absent");
  bench::print_rule(66);
  std::printf("%-28s %12.4f %12.0f %9.2fx\n", "tracing absent", t_absent, qps_absent, 1.0);
  std::printf("%-28s %12.4f %12.0f %9.2fx\n", "tracing off (wired)", t_off, qps_off,
              qps_off / qps_absent);
  std::printf("%-28s %12.4f %12.0f %9.2fx\n", "tracing on", t_on, qps_on,
              qps_on / qps_absent);
  std::printf(
      "\n%zu queries (%zu ok); bytes identical across legs: %s; "
      "traced %llu events (%llu dropped), lifecycle complete: %s; "
      "p99 e2e %.1f us\n",
      requests.size(), answered, bytes_identical ? "yes" : "NO (BUG)",
      static_cast<unsigned long long>(trace_events),
      static_cast<unsigned long long>(trace_dropped), traced_lifecycle ? "yes" : "NO (BUG)",
      p99_e2e_us);

  std::printf(
      "JSON {\"bench\":\"trace_overhead\",\"queries\":%zu,\"shards\":%d,"
      "\"calibration_seconds\":%.6f,\"corpus_observations\":%zu,\"registry_fits\":%d,"
      "\"absent_seconds\":%.6f,\"off_seconds\":%.6f,\"on_seconds\":%.6f,"
      "\"qps_absent\":%.1f,\"qps_off\":%.1f,\"qps_on\":%.1f,"
      "\"off_over_absent\":%.4f,\"on_over_absent\":%.4f,"
      "\"trace_events\":%llu,\"trace_dropped\":%llu,\"p99_e2e_us\":%.1f,"
      "\"identical\":%s}\n",
      requests.size(), shards, t_calibrate, corpus, fits, t_absent, t_off, t_on, qps_absent,
      qps_off, qps_on, qps_off / qps_absent, qps_on / qps_absent,
      static_cast<unsigned long long>(trace_events),
      static_cast<unsigned long long>(trace_dropped), p99_e2e_us,
      bytes_identical ? "true" : "false");

  return bytes_identical && off_within_floor && traced_lifecycle && trace_dropped == 0 &&
                 fits == 1 && all_ok
             ? 0
             : 1;
}
