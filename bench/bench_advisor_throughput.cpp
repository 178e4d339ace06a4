// Advisor evaluation throughput (beyond the paper): answers one fixed batch
// of §5.9 feasibility queries through serve::answer_batch — the evaluator
// every serving-cluster shard runs — with one reused scratch, and reports
// queries/sec (best of five passes), plus the wire serializer in its
// reuse-buffer and allocating forms. The models come from a ModelRegistry,
// fitted exactly once outside the timed region.
//
// The final line is machine-readable JSON (prefix "JSON ") so CI can track
// the perf trajectory across PRs:
//   JSON {"bench":"advisor_throughput","queries":...,
//         "calibration_seconds":...,"corpus_observations":...,
//         "registry_fits":1,"serial_seconds":...,"qps_serial":...,
//         "qps_serialize_reuse":...,"qps_serialize_alloc":...,
//         "serialize_bytes_per_line":...,"identical":true}
// Exits nonzero when the whole-batch responses diverge from the same
// requests answered in 64-item chunks, the registry fitted more than once,
// or any query failed.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "serve/advisor.hpp"

using namespace isr;

namespace {

double seconds_since(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

serve::ServiceConfig service_config() {
  serve::ServiceConfig cfg;
  // Fixed calibration shape; only the sizes follow ISR_BENCH_SCALE so the
  // smoke run stays short and the nightly paper-scale run is meaningful.
  cfg.calibration.min_image = bench::scaled(128);
  cfg.calibration.max_image = bench::scaled(288);
  cfg.calibration.min_n = bench::scaled(20);
  // Keep real data-size variance even when scaled() clamps both bounds to
  // its floor: a constant-O corpus makes the rasterization regression
  // singular and every rasterize query an error.
  cfg.calibration.max_n = std::max(bench::scaled(40), cfg.calibration.min_n + 12);
  cfg.calibration.vr_samples = bench::scaled(200, 50);
  // The advisor's density->SPR factor, as the cluster derives it.
  cfg.constants.spr_base = 0.93 * cfg.calibration.vr_samples;
  return cfg;
}

// A deterministic grid of queries spanning both §5.9 questions: every
// fitted (arch, renderer) at a sweep of image sizes, data sizes, rank
// counts, and budgets. Repetitions vary the budget so no two requests in a
// repetition pair are bitwise equal.
std::vector<serve::AdvisorRequest> query_grid() {
  const std::vector<std::string> archs = {"CPU1", "GPU1"};
  const std::vector<model::RendererKind> renderers = {model::RendererKind::kRayTrace,
                                                      model::RendererKind::kRasterize,
                                                      model::RendererKind::kVolume};
  const std::vector<int> edges = {256, 512, 1024, 2048};
  const std::vector<int> data_sizes = {50, 100, 200, 400};
  const std::vector<int> task_counts = {8, 64};
  const int repetitions = 40;  // 2*3*4*4*2 = 192 distinct configs, x40 = 7680 queries

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

// Byte-level identity through the wire format, plus field-level identity —
// the bench enforces the same contract test_serve does: batch composition
// cannot change a response.
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
  bench::print_header("Advisor evaluation throughput (beyond the paper)",
                      "One fixed query batch through answer_batch (one scratch, one "
                      "thread); fitted once from a model registry.");

  const serve::ServiceConfig cfg = service_config();
  serve::ModelRegistry registry;

  // Calibrate once, outside the timed region: serving must not be billed
  // for the one-time corpus fit (that is the registry's whole point).
  const auto calib_start = std::chrono::steady_clock::now();
  const serve::BundlePtr bundle = registry.bundle_for(cfg.calibration);
  const double t_calibrate = seconds_since(calib_start);
  const std::size_t corpus = bundle->corpus_size;

  const std::vector<serve::AdvisorRequest> requests = query_grid();
  const std::size_t n_requests = requests.size();

  // Best of five whole-grid passes through one scratch: the first pass
  // also pays the arena's warmup growth, and a ~ms pass is at the mercy of
  // scheduler noise.
  std::vector<serve::AdvisorResponse> serial(n_requests);
  serve::EvalScratch scratch;
  double t_serial = 0.0;
  for (int pass = 0; pass < 5; ++pass) {
    const auto serial_start = std::chrono::steady_clock::now();
    serve::answer_batch(*bundle, cfg.constants, requests.data(), n_requests, serial.data(),
                        scratch);
    const double t = seconds_since(serial_start);
    if (pass == 0 || t < t_serial) t_serial = t;
  }

  // Identity leg (untimed): the same requests in 64-item chunks, the
  // cluster shards' default coalescing size.
  std::vector<serve::AdvisorResponse> chunked(n_requests);
  for (std::size_t begin = 0; begin < n_requests; begin += 64)
    serve::answer_batch(*bundle, cfg.constants, requests.data() + begin,
                        std::min<std::size_t>(64, n_requests - begin),
                        chunked.data() + begin, scratch);

  // Serialization leg: one wire buffer reused across every line (the
  // flush-loop path in serve/jsonl.cpp) vs the allocating per-line form.
  // Both serialize identical bytes; only the buffer discipline differs.
  const int ser_passes = 20;
  std::string wire;
  std::size_t wire_bytes = 0;
  const auto reuse_start = std::chrono::steady_clock::now();
  for (int pass = 0; pass < ser_passes; ++pass) {
    wire.clear();
    for (const serve::AdvisorResponse& r : serial) {
      serve::to_jsonl(r, wire);
      wire += '\n';
    }
    wire_bytes = wire.size();
  }
  const double t_ser_reuse = seconds_since(reuse_start);

  std::size_t alloc_bytes = 0;
  const auto alloc_start = std::chrono::steady_clock::now();
  for (int pass = 0; pass < ser_passes; ++pass) {
    std::size_t total = 0;
    for (const serve::AdvisorResponse& r : serial) total += serve::to_jsonl(r).size() + 1;
    alloc_bytes = total;
  }
  const double t_ser_alloc = seconds_since(alloc_start);
  const bool ser_same_bytes = wire_bytes == alloc_bytes;

  const bool same = identical(serial, chunked);
  const int fits = registry.fits();

  std::size_t answered = 0;
  for (const serve::AdvisorResponse& r : serial) answered += r.ok() ? 1 : 0;

  const double n = static_cast<double>(n_requests);
  std::printf("calibration: %zu observations fitted in %.3fs (registry fits: %d)\n\n", corpus,
              t_calibrate, fits);
  std::printf("%-22s %12s %12s\n", "run", "seconds", "queries/sec");
  bench::print_rule(48);
  std::printf("%-22s %12.4f %12.0f\n", "answer_batch", t_serial, n / t_serial);
  const double ser_n = n * ser_passes;
  std::printf("%-22s %12.4f %12.0f\n", "to_jsonl (reuse buf)", t_ser_reuse,
              ser_n / t_ser_reuse);
  std::printf("%-22s %12.4f %12.0f\n", "to_jsonl (allocating)", t_ser_alloc,
              ser_n / t_ser_alloc);
  const bool all_ok = answered == n_requests;
  std::printf("\n%zu queries (%zu ok%s); whole batch vs 64-item chunks byte-identical: %s\n",
              n_requests, answered, all_ok ? "" : " — DEGENERATE CALIBRATION",
              same ? "yes" : "NO (BUG)");

  std::printf(
      "JSON {\"bench\":\"advisor_throughput\",\"queries\":%zu,"
      "\"calibration_seconds\":%.6f,\"corpus_observations\":%zu,\"registry_fits\":%d,"
      "\"serial_seconds\":%.6f,\"qps_serial\":%.1f,"
      "\"qps_serialize_reuse\":%.1f,\"qps_serialize_alloc\":%.1f,"
      "\"serialize_bytes_per_line\":%.1f,\"identical\":%s}\n",
      n_requests, t_calibrate, corpus, fits, t_serial, n / t_serial, ser_n / t_ser_reuse,
      ser_n / t_ser_alloc, static_cast<double>(wire_bytes) / n, same ? "true" : "false");
  // Four health gates: responses identical across batch compositions,
  // calibration fitted exactly once, every query answered ok, and the two
  // serializer forms produced the same byte count.
  return same && fits == 1 && all_ok && ser_same_bytes ? 0 : 1;
}
