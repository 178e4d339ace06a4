// Tests for the observability layer (src/obs/): log2-bucket histogram
// boundaries, merge associativity, percentile estimates vs exact
// nearest-rank on the same samples, trace ring overflow + drop counters,
// ring hand-over from exited threads,
// Chrome trace_event export well-formedness, replay-mode trace byte
// reproducibility across two fresh clusters, and the "tracing never
// changes response bytes" contract (on, off, and absent).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/metrics.hpp"
#include "cluster/stream.hpp"
#include "obs/histogram.hpp"
#include "obs/trace.hpp"
#include "serve/advisor.hpp"
#include "serve/jsonl.hpp"
#include "serve/registry.hpp"

namespace isr {
namespace {

using obs::LatencyHistogram;
using obs::TraceEvent;
using obs::TraceRecorder;

// --- Histogram --------------------------------------------------------------

// The exact nearest-rank percentile (1-based rank ceil(p/100 * n); p <= 0
// is the minimum, p >= 100 the maximum): the oracle the histogram's
// estimate is checked against.
double exact_percentile(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  if (p <= 0.0) return samples.front();
  if (p >= 100.0) return samples.back();
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(samples.size())));
  return samples[rank > 0 ? rank - 1 : 0];
}

TEST(HistogramTest, BucketBoundariesAreExactPowersOfTwo) {
  EXPECT_EQ(LatencyHistogram::bucket_of(0.0), 0);
  EXPECT_EQ(LatencyHistogram::bucket_of(0.999), 0);
  EXPECT_EQ(LatencyHistogram::bucket_of(1.0), 1);
  EXPECT_EQ(LatencyHistogram::bucket_of(1.999), 1);
  EXPECT_EQ(LatencyHistogram::bucket_of(2.0), 2);
  EXPECT_EQ(LatencyHistogram::bucket_of(3.999), 2);
  EXPECT_EQ(LatencyHistogram::bucket_of(4.0), 3);
  // Every interior boundary: 2^(b-1) opens bucket b, the value just below
  // it still belongs to b-1.
  for (int b = 2; b <= 62; ++b) {
    const double lo = LatencyHistogram::bucket_floor_us(b);
    EXPECT_EQ(LatencyHistogram::bucket_of(lo), b) << "floor of bucket " << b;
    EXPECT_EQ(LatencyHistogram::bucket_of(lo * (1.0 - 1e-12)), b - 1)
        << "just below bucket " << b;
  }
  // Overflow bucket: 2^62 and beyond (including inf).
  EXPECT_EQ(LatencyHistogram::bucket_of(LatencyHistogram::bucket_floor_us(63)), 63);
  EXPECT_EQ(LatencyHistogram::bucket_of(1e300), 63);
  // Defensive sink: NaN and negatives land in bucket 0, not UB.
  EXPECT_EQ(LatencyHistogram::bucket_of(-5.0), 0);
  // Floor/ceil invariants.
  EXPECT_EQ(LatencyHistogram::bucket_floor_us(0), 0.0);
  EXPECT_EQ(LatencyHistogram::bucket_ceil_us(0), 1.0);
  EXPECT_EQ(LatencyHistogram::bucket_floor_us(5), 16.0);
  EXPECT_EQ(LatencyHistogram::bucket_ceil_us(5), 32.0);
}

TEST(HistogramTest, RecordTracksCountSumMinMax) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min_us(), 0.0);
  EXPECT_EQ(h.max_us(), 0.0);
  h.record(3.0);
  h.record(100.0);
  h.record(0.25);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum_us(), 103.25);
  EXPECT_DOUBLE_EQ(h.min_us(), 0.25);
  EXPECT_DOUBLE_EQ(h.max_us(), 100.0);
  EXPECT_EQ(h.bucket_count(LatencyHistogram::bucket_of(3.0)), 1u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile_us(50.0), 0.0);
}

TEST(HistogramTest, MergeIsAssociativeAndCommutative) {
  // Three histograms over disjoint-ish ranges; (a+b)+c must equal a+(b+c)
  // and b+a exactly — counts, extremes, and therefore every percentile.
  LatencyHistogram a, b, c;
  for (int i = 0; i < 40; ++i) a.record(1.0 + 3.0 * i);
  for (int i = 0; i < 25; ++i) b.record(500.0 + 11.0 * i);
  for (int i = 0; i < 10; ++i) c.record(0.5 * i);

  LatencyHistogram ab_c = a;
  ab_c.merge(b);
  ab_c.merge(c);
  LatencyHistogram bc = b;
  bc.merge(c);
  LatencyHistogram a_bc = a;
  a_bc.merge(bc);
  LatencyHistogram ba = b;
  ba.merge(a);
  ba.merge(c);

  for (const LatencyHistogram* other : {&a_bc, &ba}) {
    EXPECT_EQ(ab_c.count(), other->count());
    EXPECT_DOUBLE_EQ(ab_c.min_us(), other->min_us());
    EXPECT_DOUBLE_EQ(ab_c.max_us(), other->max_us());
    for (int bkt = 0; bkt < LatencyHistogram::kBuckets; ++bkt)
      EXPECT_EQ(ab_c.bucket_count(bkt), other->bucket_count(bkt)) << "bucket " << bkt;
    for (const double p : {0.0, 50.0, 90.0, 99.0, 100.0})
      EXPECT_DOUBLE_EQ(ab_c.percentile_us(p), other->percentile_us(p)) << "p" << p;
  }
  EXPECT_EQ(ab_c.count(), 75u);
}

TEST(HistogramTest, PercentileEstimateLandsInTheExactSamplesBucket) {
  // Known data: a deterministic spread over four decades. The histogram's
  // nearest-rank walk must select the same bucket the exact nearest-rank
  // sample lives in, and the interpolated estimate must stay inside that
  // bucket's bounds (2x relative error by construction); p0/p100 are exact.
  std::vector<double> samples;
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  LatencyHistogram h;
  for (int i = 0; i < 500; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const double v = 1.0 + static_cast<double>(state % 100000) / 7.0;
    samples.push_back(v);
    h.record(v);
  }
  for (const double p : {0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    const double exact = exact_percentile(samples, p);
    const double est = h.percentile_us(p);
    if (p <= 0.0 || p >= 100.0) {
      EXPECT_DOUBLE_EQ(est, exact) << "p" << p;
      continue;
    }
    const int bucket = LatencyHistogram::bucket_of(exact);
    EXPECT_GE(est, LatencyHistogram::bucket_floor_us(bucket)) << "p" << p;
    EXPECT_LE(est, LatencyHistogram::bucket_ceil_us(bucket)) << "p" << p;
  }
}

TEST(HistogramTest, EmptyAndSingleSampleEdges) {
  LatencyHistogram empty;
  for (const double p : {0.0, 50.0, 100.0}) EXPECT_EQ(empty.percentile_us(p), 0.0);
  LatencyHistogram one;
  one.record(37.5);
  // A single sample answers every percentile exactly: the interpolation
  // clamps to the recorded min == max.
  for (const double p : {0.0, 1.0, 50.0, 99.0, 100.0})
    EXPECT_DOUBLE_EQ(one.percentile_us(p), 37.5) << "p" << p;
}

TEST(HistogramTest, ToJsonDumpsOnlyNonZeroBuckets) {
  LatencyHistogram h;
  h.record(3.0);   // bucket 2 (floor 2)
  h.record(3.5);   // bucket 2
  h.record(20.0);  // bucket 5 (floor 16)
  const std::string json = h.to_json();
  EXPECT_NE(json.find("\"count\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"buckets\":[[2,2],[16,1]]"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p999\":"), std::string::npos);
}

// --- Trace recorder ---------------------------------------------------------

TraceEvent instant(const char* name, std::int64_t ts) {
  TraceEvent e;
  e.name = name;
  e.cat = "req";
  e.phase = 'i';
  e.ts_us = ts;
  return e;
}

TEST(TraceTest, DisabledRecorderRecordsNothing) {
  TraceRecorder rec(8);
  rec.record(instant("admit", 1));
  EXPECT_EQ(rec.buffered(), 0u);
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(TraceTest, RingOverflowDropsOldestAndCounts) {
  TraceRecorder rec(/*ring_capacity=*/8);
  rec.enable();
  for (int i = 0; i < 20; ++i) rec.record(instant("tick", i));
  EXPECT_EQ(rec.buffered(), 8u);
  EXPECT_EQ(rec.dropped(), 12u);
  const std::string json = rec.chrome_trace_json();
  // Drop-oldest: only ts 12..19 survive, and the export publishes the
  // drop counter.
  EXPECT_EQ(json.find("\"ts\":3,"), std::string::npos);
  EXPECT_EQ(json.find("\"ts\":11,"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":12,"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":19,"), std::string::npos);
  EXPECT_NE(json.find("\"dropped\":12"), std::string::npos);
  EXPECT_NE(json.find("\"events\":8"), std::string::npos);
  rec.clear();
  EXPECT_EQ(rec.buffered(), 0u);
  EXPECT_EQ(rec.dropped(), 0u);
}

// Every "ts":N in export order; the export contract sorts them ascending.
std::vector<long> extract_ts(const std::string& json) {
  std::vector<long> out;
  std::size_t pos = 0;
  while ((pos = json.find("\"ts\":", pos)) != std::string::npos) {
    pos += 5;
    out.push_back(std::strtol(json.c_str() + pos, nullptr, 10));
  }
  return out;
}

TEST(TraceTest, ExportIsWellFormedAndSortedAcrossThreads) {
  TraceRecorder rec;
  rec.enable();
  // Two recording threads, interleaved timestamps; the export must order
  // by ts regardless of which ring held what.
  std::thread even([&rec] {
    for (int i = 0; i < 10; ++i) rec.record(instant("even", 2 * i));
  });
  std::thread odd([&rec] {
    for (int i = 0; i < 10; ++i) {
      TraceEvent e = instant("odd", 2 * i + 1);
      e.phase = 'X';
      e.dur_us = 1;
      rec.record(e);
    }
  });
  even.join();
  odd.join();

  const std::string json = rec.chrome_trace_json();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json.substr(0, 40);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // Instants carry the scope field, complete spans carry dur.
  EXPECT_NE(json.find("\"ph\":\"i\",\"s\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":1"), std::string::npos);
  const std::vector<long> ts = extract_ts(json);
  ASSERT_EQ(ts.size(), 20u);
  EXPECT_TRUE(std::is_sorted(ts.begin(), ts.end()));
}

TEST(TraceTest, PartlyFilledRingExportsWhatItHolds) {
  TraceRecorder rec(/*ring_capacity=*/8);
  rec.enable();
  // Timestamps out of recording order: which events survive depends on the
  // ring's order, the export order only on the sort.
  const auto ts_of = [](int i) { return (i * 5) % 11; };
  for (int i = 0; i < 5; ++i) rec.record(instant("tick", ts_of(i)));
  EXPECT_EQ(rec.buffered(), 5u);
  EXPECT_EQ(rec.dropped(), 0u);
  std::string json = rec.chrome_trace_json();
  EXPECT_EQ(extract_ts(json), (std::vector<long>{0, 4, 5, 9, 10}));
  EXPECT_NE(json.find("\"dropped\":0,\"events\":5"), std::string::npos);

  // After a clear the ring refills from its first slot, grows past its old
  // fill to capacity, then drops the oldest.
  rec.clear();
  for (int i = 0; i < 11; ++i) rec.record(instant("tick", ts_of(i)));
  EXPECT_EQ(rec.buffered(), 8u);
  EXPECT_EQ(rec.dropped(), 3u);
  json = rec.chrome_trace_json();
  // Recorded 0 5 10 4 9 3 8 2 7 1 6; the first three are gone.
  EXPECT_EQ(extract_ts(json), (std::vector<long>{1, 2, 3, 4, 6, 7, 8, 9}));
  EXPECT_NE(json.find("\"dropped\":3,\"events\":8"), std::string::npos);
}

TEST(TraceTest, ExitedThreadsHandTheirRingToTheNextThread) {
  // Eight short-lived threads, one after another (a worker restarted over
  // and over): each takes over the ring its exited predecessor handed
  // back, so every event exports under one lane and nothing is lost.
  // A thread that never records parks after each worker: it takes over
  // the exited worker's thread resources, so the next worker runs under a
  // new std::thread::id, as a restarted worker on a busy host does.
  TraceRecorder rec(/*ring_capacity=*/64);
  rec.enable();
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  std::vector<std::thread> parked;
  for (int t = 0; t < 8; ++t) {
    std::thread worker([&rec, t] {
      for (int i = 0; i < 3; ++i) rec.record(instant("tick", 10 * t + i));
    });
    worker.join();
    parked.emplace_back([released] { released.wait(); });
  }
  release.set_value();
  for (std::thread& thread : parked) thread.join();
  EXPECT_EQ(rec.buffered(), 24u);
  EXPECT_EQ(rec.dropped(), 0u);
  const std::string json = rec.chrome_trace_json();
  const std::vector<long> ts = extract_ts(json);
  ASSERT_EQ(ts.size(), 24u);
  EXPECT_TRUE(std::is_sorted(ts.begin(), ts.end()));
  std::size_t lanes = 0;
  for (std::size_t pos = json.find("\"tid\":"); pos != std::string::npos;
       pos = json.find("\"tid\":", pos + 1)) {
    EXPECT_EQ(json.compare(pos, 8, "\"tid\":1,"), 0) << json.substr(pos, 12);
    ++lanes;
  }
  EXPECT_EQ(lanes, 24u);
}

// --- Cluster integration ----------------------------------------------------

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

class ObsClusterFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    primary_ = std::make_shared<serve::ModelRegistry>();
  }
  static void TearDownTestSuite() { primary_.reset(); }
  static std::shared_ptr<serve::ModelRegistry> primary_;

  static cluster::ClusterConfig base_config(int shards, std::size_t cache_entries) {
    cluster::ClusterConfig cfg;
    cfg.service.calibration = tiny_calibration();
    cfg.shards = shards;
    cfg.cache_entries = cache_entries;
    cfg.batch_size = 4;
    return cfg;
  }

  static std::vector<serve::AdvisorRequest> requests(int count) {
    std::vector<serve::AdvisorRequest> out;
    for (int j = 0; j < count; ++j) {
      serve::AdvisorRequest req;
      req.arch = (j % 2 == 0) ? "CPU1" : "GPU1";
      req.renderer = (j % 3 == 0) ? model::RendererKind::kRayTrace
                                  : (j % 3 == 1) ? model::RendererKind::kRasterize
                                                 : model::RendererKind::kVolume;
      req.n_per_task = 16 + (j % 4);
      req.image_edge = 96 + 8 * (j % 6);
      req.tasks = 1 + (j % 2);
      out.push_back(req);
    }
    return out;
  }
};

std::shared_ptr<serve::ModelRegistry> ObsClusterFixture::primary_;

TEST_F(ObsClusterFixture, ReplayTraceIsByteIdenticalAcrossFreshClusters) {
  // A 2x-overload schedule (the shed test's shape) so the trace carries
  // shed instants alongside complete admit/queue/eval/deliver chains. Two
  // FRESH clusters replaying it with virtual-clock recorders must export
  // byte-identical traces: every timestamp comes from the schedule and the
  // backlog arithmetic, every lane from the stream id.
  constexpr int kRequests = 96;
  constexpr long kDeadlineUs = 24;
  cluster::AdmissionSchedule schedule;
  for (int i = 0; i < kRequests; ++i)
    schedule.push_back({0, static_cast<std::uint64_t>(i),
                        static_cast<std::int64_t>(2 * i)});
  const std::vector<serve::AdvisorRequest> base = requests(kRequests);

  const auto run = [&]() {
    TraceRecorder tracer;
    tracer.enable(/*virtual_clock=*/true);
    cluster::ClusterConfig cfg = base_config(1, 0);
    cfg.trace = &tracer;
    cluster::ServingCluster serving(std::move(cfg), primary_);
    serving.begin_replay(schedule);
    cluster::StreamSession session = serving.open_stream();
    for (serve::AdvisorRequest req : base) {
      req.deadline_us = kDeadlineUs;
      session.submit(req);
    }
    session.close();
    return tracer.chrome_trace_json();
  };

  const std::string first = run();
  const std::string second = run();
  EXPECT_EQ(first, second);
  // And it is a real lifecycle trace, not an empty shell.
  EXPECT_NE(first.find("\"name\":\"admit\""), std::string::npos);
  EXPECT_NE(first.find("\"name\":\"queue\""), std::string::npos);
  EXPECT_NE(first.find("\"name\":\"eval\""), std::string::npos);
  EXPECT_NE(first.find("\"name\":\"deliver\""), std::string::npos);
  EXPECT_NE(first.find("\"name\":\"shed\""), std::string::npos);
  EXPECT_NE(first.find("\"note\":\"deadline\""), std::string::npos);
  EXPECT_EQ(first.find("\"dropped\":0"), first.find("\"dropped\":"));
}

TEST_F(ObsClusterFixture, TracingNeverChangesResponseBytes) {
  // The acceptance contract: response bytes identical with tracing on,
  // off (recorder wired but disabled), and absent (null pointer).
  const std::vector<serve::AdvisorRequest> base = requests(24);
  const auto run = [&](bool wire, bool enable) {
    TraceRecorder tracer;
    if (enable) tracer.enable();
    cluster::ClusterConfig cfg = base_config(2, 64);
    if (wire) cfg.trace = &tracer;
    cluster::ServingCluster serving(std::move(cfg), primary_);
    std::vector<serve::AdvisorResponse> responses = serving.serve_batch(base);
    std::string bytes;
    for (const serve::AdvisorResponse& r : responses) bytes += serve::to_jsonl(r) + "\n";
    return bytes;
  };
  const std::string absent = run(false, false);
  const std::string off = run(true, false);
  const std::string on = run(true, true);
  EXPECT_EQ(absent, off);
  EXPECT_EQ(absent, on);
}

TEST_F(ObsClusterFixture, LiveTraceCoversTheRequestLifecycle) {
  TraceRecorder tracer;
  tracer.enable();
  cluster::ClusterConfig cfg = base_config(2, 64);
  cfg.trace = &tracer;
  cluster::ServingCluster serving(std::move(cfg), primary_);
  const std::vector<serve::AdvisorRequest> base = requests(16);
  serving.serve_batch(base);
  serving.serve_batch(base);  // second pass hits the cache

  const std::string json = tracer.chrome_trace_json();
  EXPECT_NE(json.find("\"name\":\"admit\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"queue\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"eval\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"deliver\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"cache-probe\""), std::string::npos);
  EXPECT_NE(json.find("\"note\":\"cache-hit\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"batch-drain\""), std::string::npos);
  EXPECT_EQ(tracer.dropped(), 0u);  // the default ring holds a whole run

  // The cluster's stage histograms populated alongside the trace.
  const cluster::ClusterMetrics m = serving.metrics();
  EXPECT_GT(m.queue_wait.count(), 0u);
  EXPECT_GT(m.service.count(), 0u);
  EXPECT_GT(m.e2e.count(), 0u);
  EXPECT_GE(m.e2e.percentile_us(99.0), m.e2e.percentile_us(50.0));
  EXPECT_NE(m.to_jsonl().find("\"queue_wait_us\":{"), std::string::npos);
  EXPECT_NE(m.to_jsonl().find("\"service_us\":{"), std::string::npos);
  EXPECT_NE(m.to_jsonl().find("\"e2e_us\":{"), std::string::npos);
}

}  // namespace
}  // namespace isr
