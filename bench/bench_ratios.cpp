// Ratio legs (beyond the paper): every parallel, streaming, fault or
// tracing path timed against its reference path on the same box, in
// alternating pairs (bench::paired_ratio; each side of a pair is the
// median of repeated runs over at least 20 ms of timed work), reporting the
// median per-pair throughput ratio. Ratios, not absolute rates, are what survive a change
// of host; absolute serving rates live in perfbench (BENCHMARK.json).
//
//   leg                      side A                  side B          floor
//   study_speedup            run_study, N threads    1 thread        -
//   cluster_cold             N shards, cold cache    1 shard         -
//   cluster_warm             N shards, warm cache    1 shard         -
//   streams_over_serialized  N concurrent streams    N serialized    kMatchFloor
//   chaos_over_fault_free    throw+crash injection   no faults       kChaosFloor
//   trace_off_over_absent    recorder wired, off     no recorder     kOffFloor
//   trace_on_over_absent     recorder enabled        no recorder     -
//
// study_speedup reads about 1x in the first run after the host has idled,
// and the cost is the host's, not the library's. On a 4-vCPU KVM guest at
// ISR_BENCH_SCALE=0.1, a run started after 90 s idle read 0.93 and 0.91:
// its 4-thread study took 35.5-36.6 ms against 32.6-33.3 ms serial for
// the whole leg, while the run right after read 3.41 and 3.22 (13.1 ms
// against 43-44 ms). Five seconds of a shell busy loop on all 4 vCPUs
// before the first run, which runs no library code, restored 3.00 and
// 3.15. So the leg adds no warm-up, which could hide a library cost, and
// stays ungated.
//
// Exits 1 when a gated leg falls below its floor, or when a grid query is
// not answered ok (a degenerate calibration at this ISR_BENCH_SCALE would
// make every ratio meaningless). The byte-identity, fit-count, cache,
// replay, shedding and chaos-recovery contracts these paths keep are ctest
// cases (test_cluster, test_stream, test_fault, test_recal, test_obs,
// test_study, test_serve). The final line is machine-readable:
//   JSON {"bench":"ratios","scale":...,"threads":...,"shards":...,
//         "<leg>":<median ratio>,"<leg>_pairs":<pairs>,...,"pass":true}
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/stream.hpp"
#include "common.hpp"
#include "core/fault.hpp"
#include "core/thread_pool.hpp"
#include "model/study.hpp"
#include "obs/trace.hpp"
#include "serve/advisor.hpp"
#include "serve/registry.hpp"

using namespace isr;

namespace {

// Concurrent streams vs the serialized batch barrier. On a single-core
// host concurrency cannot add wall-clock throughput, and the measured
// spread there was 0.90-1.04x, so 0.85 sits below noise while a collapse
// of the admission pipeline lands well under it. On a 4-vCPU KVM guest at
// ISR_BENCH_SCALE=0.1 the streams leg measured 0.67-1.36x (median 0.85,
// ten runs) while admission paid one lock of each kind per request, and
// 0.81-1.30x (median 1.09, six runs) once sessions admit buffered runs;
// earlier hosts of that kind read 0.55-0.62x. Below the floor, the shard
// hop costs more than the evaluation it spreads (ROADMAP, "Cold serving
// that beats serial"), so the floor is not lowered.
constexpr double kMatchFloor = 0.85;
// Chaos vs fault-free. At kFaultRate 164 worker crashes each abandon a
// batch of up to 8, and with the injected throws that makes ~1,300-1,400
// re-drives per run. Each re-drive sleeps its backoff (5 us doubling to
// 50 us) on the failing worker's thread, so the chaos side is mostly
// sleeps: ~17 ms against ~0.35 ms fault-free on a 4-vCPU KVM guest, and
// the ratio read 0.027-0.029 at ISR_BENCH_SCALE=0.1 as a property of the
// knobs. The floor guards an order-of-magnitude collapse below that: a
// crash no longer recovered in place, or a retry path gone thrashing.
constexpr double kChaosFloor = 0.004;
// Tracing wired but disabled vs absent: a handful of relaxed loads per
// request, far below timer resolution; a probe that takes a lock or
// allocates lands well below 0.95.
constexpr double kOffFloor = 0.95;

// Both transient fault sites at a rate where a request's three attempts
// all fail ~2% of the time: recovery runs on nearly every batch.
constexpr std::uint64_t kFaultSeed = 20160;
constexpr double kFaultRate = 0.15;
// The chaos leg serves the grid's first kChaosQueries (four of its twenty
// repetitions): its run is mostly backoff sleeps, which the full grid
// would stretch five-fold, buying fewer pairs in the leg's budget for no
// new coverage.
constexpr std::size_t kChaosQueries = 768;

model::StudyConfig calibration() {
  // Sizes follow ISR_BENCH_SCALE; max_n keeps real data-size variance even
  // when scaled() clamps both bounds to its floor (a constant-O corpus makes
  // the rasterization regression singular and every rasterize query an
  // error).
  model::StudyConfig cfg = serve::default_calibration();
  cfg.min_image = bench::scaled(128);
  cfg.max_image = bench::scaled(288);
  cfg.min_n = bench::scaled(20);
  cfg.max_n = std::max(bench::scaled(40), cfg.min_n + 12);
  cfg.vr_samples = bench::scaled(200, 50);
  return cfg;
}

cluster::ClusterConfig cluster_config(int shards, std::size_t cache_entries = 0,
                                      obs::TraceRecorder* trace = nullptr) {
  cluster::ClusterConfig cfg;
  cfg.service.calibration = calibration();
  cfg.shards = shards;
  cfg.cache_entries = cache_entries;
  cfg.trace = trace;
  return cfg;
}

// Every fitted (arch, renderer) at a sweep of image sizes, data sizes and
// rank counts: 192 distinct queries per repetition, and the budget varies
// per repetition so no two requests share a cache key.
std::vector<serve::AdvisorRequest> query_grid(int repetitions) {
  std::vector<serve::AdvisorRequest> requests;
  for (int rep = 0; rep < repetitions; ++rep)
    for (const char* arch : {"CPU1", "GPU1"})
      for (const model::RendererKind kind :
           {model::RendererKind::kRayTrace, model::RendererKind::kRasterize,
            model::RendererKind::kVolume})
        for (const int edge : {256, 512, 1024, 2048})
          for (const int n : {50, 100, 200, 400})
            for (const int tasks : {8, 64}) {
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

// n_streams concurrent sessions, stream k submitting requests k, k+S, ...
void run_streams(cluster::ServingCluster& serving,
                 const std::vector<serve::AdvisorRequest>& requests, std::size_t n_streams) {
  std::vector<cluster::StreamSession> sessions;
  for (std::size_t k = 0; k < n_streams; ++k) sessions.push_back(serving.open_stream());
  std::vector<std::thread> producers;
  for (std::size_t k = 0; k < n_streams; ++k)
    producers.emplace_back([&requests, &sessions, n_streams, k] {
      for (std::size_t i = k; i < requests.size(); i += n_streams)
        sessions[k].submit(requests[i]);
    });
  for (std::thread& producer : producers) producer.join();
  for (cluster::StreamSession& session : sessions) session.close();
}

// Opens and closes one empty session, so the cluster's shard and refit
// threads are running before a timed region starts: thread start-up is
// not the serving path a leg compares.
void start_serving(cluster::ServingCluster& serving) { serving.open_stream().close(); }

struct Leg {
  const char* name;
  std::string sides;  // "A / B", for the table
  double floor;       // 0 = reported, ungated
  bench::PairedRatio ratio;
};

}  // namespace

int main() {
  const int threads = core::default_thread_count();
  const int shards = std::max(2, std::min(4, threads));
  const auto n_streams = static_cast<std::size_t>(shards);
  bench::print_header("Ratio legs (beyond the paper)",
                      "Each path against its reference path, alternating pairs, median "
                      "per-pair throughput ratio (A over B).");

  const std::vector<serve::AdvisorRequest> grid = query_grid(20);
  const std::vector<serve::AdvisorRequest> chaos_grid(
      grid.begin(), grid.begin() + static_cast<std::ptrdiff_t>(kChaosQueries));
  // One fit, outside every timed region: every cluster below shares it.
  const auto primary = std::make_shared<serve::ModelRegistry>();
  std::size_t answered = 0;
  {
    cluster::ServingCluster serial(cluster_config(1), primary);
    for (const serve::AdvisorResponse& r : serial.serve_batch(grid)) answered += r.ok() ? 1 : 0;
  }

  // A fresh cluster per timed run, so no run inherits another's warmed
  // shard state; construction and thread start-up stay outside the run's
  // timed region.
  const auto serve_fresh = [&](cluster::ClusterConfig cfg) {
    cluster::ServingCluster serving(std::move(cfg), primary);
    start_serving(serving);
    return bench::seconds_of([&] { serving.serve_batch(grid); });
  };
  const auto serial = [&] { return serve_fresh(cluster_config(1)); };

  std::vector<Leg> legs;
  const std::string threads_label = std::to_string(threads) + " threads";
  const std::string shards_label = std::to_string(shards) + " shards";
  const std::string streams_label = std::to_string(n_streams) + " streams";

  {
    model::StudyConfig parallel = calibration();
    model::StudyConfig single = parallel;
    parallel.threads = 0;
    single.threads = 1;
    legs.push_back({"study_speedup", "run_study " + threads_label + " / 1 thread", 0.0,
                    bench::paired_ratio(
                        [&] { return bench::seconds_of([&] { model::run_study(parallel); }); },
                        [&] { return bench::seconds_of([&] { model::run_study(single); }); })});
  }

  legs.push_back({"cluster_cold", shards_label + " cold cache / 1 shard", 0.0,
                  bench::paired_ratio(
                      [&] { return serve_fresh(cluster_config(shards, 2 * grid.size())); },
                      serial)});

  {
    // 2x slack: keys hash unevenly across the LRU's ways, and one overfull
    // way would evict and turn a warm run partly cold.
    cluster::ServingCluster warm(cluster_config(shards, 2 * grid.size()), primary);
    warm.serve_batch(grid);
    legs.push_back({"cluster_warm", shards_label + " warm cache / 1 shard", 0.0,
                    bench::paired_ratio(
                        [&] { return bench::seconds_of([&] { warm.serve_batch(grid); }); },
                        serial)});
  }

  {
    // The serialized side is the batch-era contract: client k+1 waits for
    // client k's whole batch. Slices are dealt like run_streams deals them.
    std::vector<std::vector<serve::AdvisorRequest>> slices(n_streams);
    for (std::size_t i = 0; i < grid.size(); ++i) slices[i % n_streams].push_back(grid[i]);
    legs.push_back(
        {"streams_over_serialized", streams_label + " / " + streams_label + " serialized",
         kMatchFloor,
         bench::paired_ratio(
             [&] {
               cluster::ServingCluster serving(cluster_config(shards), primary);
               start_serving(serving);
               return bench::seconds_of([&] { run_streams(serving, grid, n_streams); });
             },
             [&] {
               cluster::ServingCluster serving(cluster_config(shards), primary);
               start_serving(serving);
               return bench::seconds_of([&] {
                 for (const auto& slice : slices) serving.serve_batch(slice);
               });
             })});
  }

  {
    // One serial session on 2 shards with small batches, so a crash's
    // re-drive stays small and the chaos side measures recovery work.
    const auto chaos_run = [&](bool chaos) {
      cluster::ClusterConfig cfg = cluster_config(2);
      cfg.batch_size = 8;
      if (chaos) {
        cfg.fault.seed = kFaultSeed;
        cfg.fault.rate = kFaultRate;
        cfg.fault.sites = 1u << static_cast<int>(core::FaultSite::kShardEvalThrow);
        cfg.fault.sites |= 1u << static_cast<int>(core::FaultSite::kWorkerCrash);
        cfg.retry_backoff_us = 5;
        cfg.retry_backoff_max_us = 50;
      }
      cluster::ServingCluster serving(std::move(cfg), primary);
      start_serving(serving);
      return bench::seconds_of([&] {
        cluster::StreamSession session = serving.open_stream();
        for (const serve::AdvisorRequest& req : chaos_grid) session.submit(req);
        session.close();
      });
    };
    legs.push_back({"chaos_over_fault_free", "eval-throw + worker-crash / no faults",
                    kChaosFloor,
                    bench::paired_ratio([&] { return chaos_run(true); },
                                        [&] { return chaos_run(false); })});
  }

  {
    obs::TraceRecorder tracer;
    const auto absent = [&] { return serve_fresh(cluster_config(shards)); };
    const auto traced = [&](bool enable) {
      tracer.clear();
      if (enable)
        tracer.enable();
      else
        tracer.disable();
      return serve_fresh(cluster_config(shards, 0, &tracer));
    };
    legs.push_back({"trace_off_over_absent", "recorder wired, off / absent", kOffFloor,
                    bench::paired_ratio([&] { return traced(false); }, absent)});
    legs.push_back({"trace_on_over_absent", "recorder enabled / absent", 0.0,
                    bench::paired_ratio([&] { return traced(true); }, absent)});
  }

  std::printf("%-24s %-42s %7s %6s %6s\n", "leg", "A / B", "ratio", "pairs", "floor");
  bench::print_rule(89);
  bool pass = answered == grid.size();
  std::string json = "{\"bench\":\"ratios\",\"scale\":" + std::to_string(bench::scale()) +
                     ",\"threads\":" + std::to_string(threads) +
                     ",\"shards\":" + std::to_string(shards);
  for (const Leg& leg : legs) {
    const bool below = leg.floor > 0.0 && leg.ratio.median < leg.floor;
    pass = pass && !below;
    char floor[16] = "-";
    if (leg.floor > 0.0) std::snprintf(floor, sizeof floor, "%.3f", leg.floor);
    std::printf("%-24s %-42s %7.3f %6d %6s%s\n", leg.name, leg.sides.c_str(),
                leg.ratio.median, leg.ratio.pairs, floor, below ? "  BELOW FLOOR" : "");
    char field[96];
    std::snprintf(field, sizeof field, ",\"%s\":%.4f,\"%s_pairs\":%d", leg.name,
                  leg.ratio.median, leg.name, leg.ratio.pairs);
    json += field;
  }
  std::printf("\n%zu grid queries, %zu answered ok%s\n", grid.size(), answered,
              answered == grid.size() ? "" : " (DEGENERATE CALIBRATION)");
  std::printf("JSON %s,\"pass\":%s}\n", json.c_str(), pass ? "true" : "false");
  return pass ? 0 : 1;
}
