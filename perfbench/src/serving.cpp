// The two serving workloads: api_cold (unique requests through
// StreamSession, the cluster's cold path) and wire_zipf_recal (Zipf draws
// over JSON lines through serve::run_jsonl, with recalibrations every
// kRecalEvery cycles). Both drive a 2-shard cluster holding two resident
// corpora, one client thread, closed loop.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "cluster/cluster.hpp"
#include "model/study.hpp"
#include "serve/advisor.hpp"
#include "serve/jsonl.hpp"
#include "serve/registry.hpp"

namespace perfbench {
namespace {

using isr::cluster::ClusterConfig;
using isr::cluster::ClusterMetrics;
using isr::cluster::CorpusConfig;
using isr::cluster::ServingCluster;
using isr::cluster::StreamSession;
using isr::model::RendererKind;
using isr::serve::AdvisorRequest;
using isr::serve::AdvisorResponse;
using isr::serve::BundlePtr;
using isr::serve::EvalScratch;
using isr::serve::ModelRegistry;
using Clock = std::chrono::steady_clock;

// Corpus selectors: [0] the default corpus, [1] its re-seeded sibling.
const char* const kCorpora[2] = {"", "sibling"};
const char* const kArchs[2] = {"CPU1", "GPU1"};
const RendererKind kRenderers[3] = {RendererKind::kRayTrace, RendererKind::kRasterize,
                                    RendererKind::kVolume};

constexpr std::size_t kApiBatch = 1024;  // requests per api_cold cycle
constexpr int kApiWarmupCycles = 64;
constexpr int kCheckEvery = 8;           // api_cold: every 8th cycle is compared

constexpr std::size_t kWireBatch = 512;  // JSON lines per wire_zipf_recal cycle
constexpr std::size_t kKeySpace = 256;   // distinct keys, both corpora together
constexpr double kZipfS = 1.0;
constexpr int kWireWarmupCycles = 32;
// Cycles between recalibrate() calls, the first at the first timed cycle:
// about 1.2 s of traffic, longer than one refit (a drift study at
// threads=1 plus the fit, about 0.5 s), so refits do not queue behind
// each other.
constexpr int kRecalEvery = 800;

// The summary windows (README.md) and how many a run needs: api_cold cuts
// its loop into 1-s windows; wire_zipf_recal's windows are its
// recalibration periods, and its loop ends on a period boundary.
constexpr double kWindowS = 1.0;
constexpr std::size_t kMinWindows = 12;
constexpr std::size_t kMinRecalWindows = 10;

ClusterConfig serving_config() {
  ClusterConfig cfg;
  cfg.service.calibration = isr::serve::default_calibration();
  cfg.service.calibration.threads = 1;
  // Explicit, so the reference evaluation outside the cluster uses the
  // very constants the cluster does.
  cfg.service.constants.spr_base = 0.93 * cfg.service.calibration.vr_samples;
  cfg.shards = 2;
  CorpusConfig sibling;
  sibling.name = kCorpora[1];
  sibling.service = cfg.service;
  sibling.service.calibration.seed = cfg.service.calibration.seed + 1;
  cfg.corpora = {sibling};
  return cfg;
}

int corpus_index(const AdvisorRequest& r) { return r.corpus.empty() ? 0 : 1; }

// A cluster over its own registry, both corpora forced resident (the two
// lazy calibration fits happen here).
struct Serving {
  std::shared_ptr<ModelRegistry> registry;
  std::unique_ptr<ServingCluster> cluster;
};

Serving open_serving(Result& result) {
  Serving s;
  s.registry = std::make_shared<ModelRegistry>();
  s.cluster = std::make_unique<ServingCluster>(serving_config(), s.registry);
  StreamSession session = s.cluster->open_stream();
  for (const char* corpus : kCorpora) {
    AdvisorRequest r;
    r.corpus = corpus;
    session.submit(r);
  }
  for (const AdvisorResponse& resp : session.close())
    if (!resp.ok()) result.fail("residency request failed: " + resp.error);
  return s;
}

// Answers `reqs` without the cluster: answer_batch per corpus against the
// shared registry's current bundle for that corpus.
std::vector<AdvisorResponse> answer_direct(const Serving& s,
                                           const std::vector<AdvisorRequest>& reqs,
                                           EvalScratch& scratch) {
  static const isr::model::MappingConstants constants = serving_config().service.constants;
  std::vector<AdvisorResponse> out(reqs.size());
  std::vector<const AdvisorRequest*> in_ptrs;
  std::vector<AdvisorResponse*> out_ptrs;
  for (int c = 0; c < 2; ++c) {
    in_ptrs.clear();
    out_ptrs.clear();
    for (std::size_t i = 0; i < reqs.size(); ++i)
      if (corpus_index(reqs[i]) == c) {
        in_ptrs.push_back(&reqs[i]);
        out_ptrs.push_back(&out[i]);
      }
    if (in_ptrs.empty()) continue;
    const BundlePtr bundle = s.registry->current(s.cluster->corpus_fingerprint(kCorpora[c]));
    if (!bundle) continue;  // leaves kError slots, which the caller's check reports
    isr::serve::answer_batch(*bundle, constants, in_ptrs.data(), in_ptrs.size(),
                             out_ptrs.data(), scratch);
  }
  return out;
}

// One closed-loop round trip through a fresh stream session.
std::vector<AdvisorResponse> serve_cycle(ServingCluster& cluster,
                                         const std::vector<AdvisorRequest>& reqs,
                                         SpanLog& log, int parent, std::uint64_t cycle) {
  StreamSession session;
  {
    ScopedSpan span(log, "cluster.submit", parent, cycle);
    session = cluster.open_stream();
    for (const AdvisorRequest& r : reqs) session.submit(r);
  }
  ScopedSpan span(log, "cluster.close_wait", parent, cycle);
  return session.close();
}

// ---- Generators ------------------------------------------------------------

std::uint64_t cycle_seed(std::uint64_t seed, std::uint64_t salt, std::uint64_t cycle) {
  SplitMix64 mix(seed ^ (salt * 0xD1B54A32D192ED03ull));
  return mix.next() ^ (cycle * 0x9E3779B97F4A7C15ull);
}

// A random request shape (everything but corpus and budget).
void random_shape(SplitMix64& rng, AdvisorRequest& r) {
  r.arch = kArchs[rng.below(2)];
  r.renderer = kRenderers[rng.below(3)];
  r.n_per_task = 16 + static_cast<int>(rng.below(385));
  r.tasks = 1 << rng.below(11);
  r.image_edge = 256 + 64 * static_cast<int>(rng.below(57));
  r.frames = 1 + static_cast<int>(rng.below(1000));
}

// api_cold cycle `c`: kApiBatch requests over both corpora. Each carries
// its global request index in the budget (an exact binary fraction), so no
// two requests of a run share a cache key.
void api_cycle_requests(std::uint64_t seed, std::uint64_t c, std::vector<AdvisorRequest>& out) {
  SplitMix64 rng(cycle_seed(seed, 1, c));
  const double base = 5.0 + static_cast<double>(SplitMix64(seed).below(500));
  out.resize(kApiBatch);
  for (std::size_t i = 0; i < kApiBatch; ++i) {
    AdvisorRequest& r = out[i];
    r.corpus = kCorpora[rng.below(2)];
    random_shape(rng, r);
    r.budget_seconds = base + static_cast<double>(c * kApiBatch + i) / 1024.0;
  }
}

// The wire workload's key space: kKeySpace distinct requests (distinct
// budgets) and their JSON request lines.
struct KeySpace {
  std::vector<AdvisorRequest> requests;
  std::vector<std::string> lines;
};

KeySpace make_key_space(std::uint64_t seed) {
  KeySpace ks;
  SplitMix64 rng(cycle_seed(seed, 2, 0));
  for (std::size_t k = 0; k < kKeySpace; ++k) {
    AdvisorRequest r;
    r.corpus = kCorpora[rng.below(2)];
    random_shape(rng, r);
    r.budget_seconds = 10.0 + 0.25 * static_cast<double>(k);
    char line[320];
    const std::string corpus =
        r.corpus.empty() ? std::string() : "\"corpus\":\"" + r.corpus + "\",";
    std::snprintf(line, sizeof line,
                  "{%s\"arch\":\"%s\",\"renderer\":\"%s\",\"n_per_task\":%d,\"tasks\":%d,"
                  "\"image_edge\":%d,\"budget_seconds\":%.2f,\"frames\":%d}",
                  corpus.c_str(), r.arch.c_str(), isr::serve::renderer_token(r.renderer),
                  r.n_per_task, r.tasks, r.image_edge, r.budget_seconds, r.frames);
    ks.requests.push_back(r);
    ks.lines.emplace_back(line);
  }
  return ks;
}

// wire cycle `c`: kWireBatch Zipf draws over the key space as request lines.
std::string wire_cycle_text(std::uint64_t seed, std::uint64_t c, const KeySpace& ks,
                            const Zipf& zipf) {
  SplitMix64 rng(cycle_seed(seed, 3, c));
  std::string text;
  text.reserve(kWireBatch * 160);
  for (std::size_t i = 0; i < kWireBatch; ++i) {
    text += ks.lines[zipf.draw(rng)];
    text += '\n';
  }
  return text;
}

// ---- Shared reporting ------------------------------------------------------

// Per-layer values read from the cluster's own counters and histograms.
void report_cluster(const ServingCluster& cluster, Result& result) {
  const ClusterMetrics m = cluster.metrics();
  long evaluated = 0, max_load = 0;
  for (const long q : m.shard_queries) {
    evaluated += q;
    max_load = std::max(max_load, q);
  }
  const double batches = static_cast<double>(std::max(1L, m.batches));
  const double mean_load =
      static_cast<double>(evaluated) / static_cast<double>(std::max<std::size_t>(1, m.shard_queries.size()));
  auto& v = result.values;
  v["cluster.queue_wait.p50_us"] = m.queue_wait.percentile_us(50);
  v["cluster.batch.mean_size"] = static_cast<double>(evaluated) / batches;
  v["cluster.flush.kick_frac"] = static_cast<double>(m.kick_flushes) / batches;
  v["cluster.flush.deadline_frac"] = static_cast<double>(m.deadline_flushes) / batches;
  v["cluster.shard.load_max_over_mean"] =
      mean_load > 0 ? static_cast<double>(max_load) / mean_load : 0.0;
  v["cluster.cache.hit_rate"] = m.cache_hit_rate;
  v["cluster.cache.epoch_invalidations"] = static_cast<double>(m.epoch_invalidations);
  v["cluster.service.p50_us"] = m.service.percentile_us(50);
  v["cluster.e2e.p50_us"] = m.e2e.percentile_us(50);
  v["cluster.refits"] = static_cast<double>(m.refits);
  v["cluster.shed"] = static_cast<double>(m.shed_queries);
  v["cluster.degraded"] = static_cast<double>(m.degraded_queries);
  v["cluster.retries"] = static_cast<double>(m.retries);
  if (m.shed_queries != 0 || m.degraded_queries != 0 || m.retries != 0)
    result.fail("cluster shed, degraded or retried requests");
  result.stamp["cluster.queue_wait.samples"] = std::to_string(m.queue_wait.count());
  result.stamp["cluster.service.samples"] = std::to_string(m.service.count());
  result.stamp["cluster.e2e.samples"] = std::to_string(m.e2e.count());
}

// Per-layer shares of the traced cycles: the self time of the wire layer
// (run_jsonl minus its handler), the time inside cluster calls, and how
// much of each cycle its child spans cover.
void report_spans(const std::vector<Span>& spans, const CycleStats& st, Result& result) {
  const std::map<std::string, LayerTime> t = layer_times(spans);
  const auto total = [&](const char* name) {
    const auto it = t.find(name);
    return it == t.end() ? 0.0 : it->second.total_us;
  };
  const auto self = [&](const char* name) {
    const auto it = t.find(name);
    return it == t.end() ? 0.0 : it->second.self_us;
  };
  const double cycle_us = total("cycle");
  const double reqs = static_cast<double>(std::max(1L, st.traced_ops));
  auto& v = result.values;
  if (cycle_us <= 0) return;
  v["trace.child_coverage"] = 1.0 - self("cycle") / cycle_us;
  v["share.wire"] = self("serve.run_jsonl") / cycle_us;
  v["share.cluster"] = (total("cluster.submit") + total("cluster.close_wait")) / cycle_us;
  v["cluster.submit.us_per_req"] = total("cluster.submit") / reqs;
  v["cluster.close_wait.us_per_cycle"] =
      total("cluster.close_wait") / static_cast<double>(std::max(1L, st.traced_cycles));
  v["serve.answer_batch.us_per_req"] = total("serve.answer_batch") / reqs;
  v["serve.parse.us_per_req"] = total("serve.parse") / reqs;
  v["serve.to_jsonl.us_per_resp"] = total("serve.to_jsonl") / reqs;
}

}  // namespace

// ---- api_cold ----------------------------------------------------------------

Result run_api_cold(const Options& opt) {
  Result result;
  SpanLog log(false);
  std::vector<AdvisorRequest> reqs;
  Serving s;
  CycleStats st(kMinWindows, HostReading::kAll);
  for (int rep = 0; rep < kServingSetupReps; ++rep) {
    s.cluster.reset();
    s.registry.reset();
    st.probe();
    const Clock::time_point t0 = Clock::now();
    s = open_serving(result);
    for (int w = 0; w < kApiWarmupCycles; ++w) {
      api_cycle_requests(opt.seed, static_cast<std::uint64_t>(w), reqs);
      serve_cycle(*s.cluster, reqs, log, -1, 0);
    }
    st.add_setup(seconds_since(t0));
  }

  EvalScratch scratch;
  const Clock::time_point start = Clock::now();
  double next_probe_s = 0.0;
  for (std::uint64_t i = 0; keep_running(seconds_since(start), opt, st); ++i) {
    const std::uint64_t c = kApiWarmupCycles + i;
    if (seconds_since(start) >= next_probe_s) {
      st.probe();
      next_probe_s += kProbeEveryS;
    }
    api_cycle_requests(opt.seed, c, reqs);
    const bool traced = opt.trace && i % 2 == 0;
    log.set_enabled(traced);
    const Clock::time_point t0 = Clock::now();
    const int top = log.open("cycle", -1, c);
    const std::vector<AdvisorResponse> responses = serve_cycle(*s.cluster, reqs, log, top, c);
    log.close(top);
    const double at_s = std::chrono::duration<double>(t0 - start).count();
    st.add(traced, static_cast<std::size_t>(at_s / kWindowS), seconds_since(t0),
           static_cast<long>(reqs.size()));

    result.attempted += static_cast<long>(reqs.size());
    if (responses.size() != reqs.size()) {
      result.fail("cycle answered " + std::to_string(responses.size()) + " of " +
                  std::to_string(reqs.size()) + " requests");
      result.failed += static_cast<long>(reqs.size());
      continue;
    }
    const bool check = traced || i % kCheckEvery == 0;
    std::vector<AdvisorResponse> expected;
    if (check) {
      ScopedSpan span(log, "serve.answer_batch", -1, c);
      expected = answer_direct(s, reqs, scratch);
    }
    for (std::size_t k = 0; k < responses.size(); ++k) {
      const bool bad =
          !responses[k].ok() ||
          (check && !isr::serve::responses_identical(responses[k], expected[k]));
      if (bad) {
        ++result.failed;
        result.fail("api_cold cycle " + std::to_string(c) + " request " + std::to_string(k) +
                    (responses[k].ok() ? " differs from answer_batch" : ": " + responses[k].error));
      }
    }
  }
  log.set_enabled(false);

  report_cycles(st, opt, result);
  result.stamp["requests_per_cycle"] = std::to_string(kApiBatch);
  if (opt.trace) {
    report_cluster(*s.cluster, result);
    report_spans(log.spans(), st, result);
  }
  result.spans = log.spans();
  return result;
}

// ---- wire_zipf_recal ------------------------------------------------------------

namespace {

// Serves `text` (request lines) through run_jsonl into the cluster.
std::string serve_wire(ServingCluster& cluster, const std::string& text, SpanLog& log,
                       int parent, std::uint64_t cycle) {
  std::istringstream in(text);
  std::ostringstream out;
  int run_span = -1;
  const isr::serve::BatchHandler handler = [&](const std::vector<AdvisorRequest>& batch) {
    ScopedSpan span(log, "cluster.handler", run_span, cycle);
    return serve_cycle(cluster, batch, log, span.id(), cycle);
  };
  {
    ScopedSpan span(log, "serve.run_jsonl", parent, cycle);
    run_span = span.id();
    isr::serve::run_jsonl(in, out, handler);
  }
  return out.str();
}

// Splits response text into lines (each without its newline).
std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    lines.push_back(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
  return lines;
}

// The expected bytes of the whole key space on the current epochs.
std::string expected_key_space_text(const Serving& s, const KeySpace& ks, EvalScratch& scratch) {
  std::string text;
  for (const AdvisorResponse& r : answer_direct(s, ks.requests, scratch)) {
    isr::serve::to_jsonl(r, text);
    text += '\n';
  }
  return text;
}

struct PendingRefit {
  int corpus = 0;
  std::uint64_t epoch = 0;
  Clock::time_point issued;
};

}  // namespace

Result run_wire_zipf_recal(const Options& opt) {
  Result result;
  SpanLog log(false);
  const KeySpace ks = make_key_space(opt.seed);
  const Zipf zipf(kKeySpace, kZipfS);
  std::string all_keys;
  for (std::size_t k = 0; k < ks.lines.size(); ++k) {
    AdvisorRequest parsed;
    std::string error;
    if (!isr::serve::parse_request_line(ks.lines[k], parsed, error) ||
        isr::cluster::canonical_request_key(parsed) !=
            isr::cluster::canonical_request_key(ks.requests[k]))
      result.fail("generated line does not round-trip: " + ks.lines[k]);
    all_keys += ks.lines[k];
    all_keys += '\n';
  }

  Serving s;
  CycleStats st(kMinRecalWindows, HostReading::kText);
  for (int rep = 0; rep < kServingSetupReps; ++rep) {
    s.cluster.reset();
    s.registry.reset();
    st.probe();
    const Clock::time_point t0 = Clock::now();
    s = open_serving(result);
    serve_wire(*s.cluster, all_keys, log, -1, 0);  // first touch of every key
    for (int w = 0; w < kWireWarmupCycles; ++w)
      serve_wire(*s.cluster, wire_cycle_text(opt.seed, static_cast<std::uint64_t>(w), ks, zipf),
                 log, -1, 0);
    st.add_setup(seconds_since(t0));
  }

  EvalScratch scratch;
  std::vector<PendingRefit> pending;
  std::vector<double> refit_ms;
  std::vector<double> beside_refit_ms;  // corrected, like st's cycles
  int recalibrations[2] = {0, 0};
  const auto poll_refits = [&] {
    for (std::size_t k = 0; k < pending.size();) {
      if (s.cluster->bundle_epoch(kCorpora[pending[k].corpus]) >= pending[k].epoch) {
        refit_ms.push_back(seconds_since(pending[k].issued) * 1e3);
        pending.erase(pending.begin() + static_cast<long>(k));
      } else {
        ++k;
      }
    }
  };

  // A traced run goes on, within the stretch cap, until the refit median
  // has its samples.
  const std::size_t refits_needed = min_samples_for(50);
  const Clock::time_point start = Clock::now();
  const auto running = [&] {
    const double elapsed = seconds_since(start);
    return keep_running(elapsed, opt, st) ||
           (opt.trace && refit_ms.size() < refits_needed && elapsed < kMaxStretch * opt.seconds);
  };
  double next_probe_s = 0.0;
  for (std::uint64_t i = 0; i % kRecalEvery != 0 || running(); ++i) {
    const std::uint64_t c = kWireWarmupCycles + i;
    if (seconds_since(start) >= next_probe_s) {
      st.probe();
      next_probe_s += kProbeEveryS;
    }
    if (i % kRecalEvery == 0) {
      const int corpus = static_cast<int>((i / kRecalEvery) % 2);
      const std::uint64_t epoch = s.cluster->recalibrate(kCorpora[corpus]);
      if (epoch == 0) result.fail("recalibrate() refused a resident corpus");
      pending.push_back({corpus, epoch, Clock::now()});
      ++recalibrations[corpus];
    }
    const std::string text = wire_cycle_text(opt.seed, c, ks, zipf);
    // A cycle that starts while a refit is pending shares the CPU with the
    // refit worker, and how much depends on where the scheduler puts the
    // two. These cycles are checked like the others but summarized on their
    // own, so the end-to-end figures are not a count of such placements
    // (README.md, "Window medians").
    const bool beside_refit = !pending.empty();
    const bool traced = opt.trace && i % 2 == 0 && !beside_refit;
    log.set_enabled(traced);
    const Clock::time_point t0 = Clock::now();
    const int top = log.open("cycle", -1, c);
    const std::string out = serve_wire(*s.cluster, text, log, top, c);
    log.close(top);
    const double cycle_s = seconds_since(t0);
    if (beside_refit)
      beside_refit_ms.push_back(cycle_s / st.host * 1e3);
    else
      st.add(traced, static_cast<std::size_t>(i / kRecalEvery), cycle_s,
             static_cast<long>(kWireBatch));
    poll_refits();

    const std::vector<std::string> lines = split_lines(out);
    result.attempted += static_cast<long>(kWireBatch);
    if (lines.size() != kWireBatch) {
      result.failed += static_cast<long>(kWireBatch);
      result.fail("wire cycle " + std::to_string(c) + " answered " +
                  std::to_string(lines.size()) + " lines");
      continue;
    }
    for (const std::string& line : lines)
      if (isr::serve::response_line_status(line) != AdvisorResponse::Status::kOk) {
        ++result.failed;
        result.fail("wire cycle " + std::to_string(c) + ": " + line);
      }
    if (traced) {
      // Standalone replay of the wire path without the cluster: parse the
      // cycle's lines, evaluate them, serialize the responses.
      std::vector<AdvisorRequest> parsed(kWireBatch);
      {
        ScopedSpan span(log, "serve.parse", -1, c);
        std::istringstream in(text);
        std::string line, error;
        for (std::size_t k = 0; std::getline(in, line) && k < kWireBatch; ++k)
          isr::serve::parse_request_line(line, parsed[k], error);
      }
      std::vector<AdvisorResponse> responses;
      {
        ScopedSpan span(log, "serve.answer_batch", -1, c);
        responses = answer_direct(s, parsed, scratch);
      }
      ScopedSpan span(log, "serve.to_jsonl", -1, c);
      std::string wire;
      for (const AdvisorResponse& r : responses) isr::serve::to_jsonl(r, wire);
    }
  }
  log.set_enabled(false);

  // Final check: once every refit has swapped, the epochs follow the cycle
  // schedule and two passes over the key space (the first refills the swept
  // cache, the second hits it) match answer_batch on the new epochs byte
  // for byte — a stale entry surviving a swap would show here.
  s.cluster->wait_refits();
  poll_refits();
  for (int c = 0; c < 2; ++c) {
    const std::uint64_t epoch = s.cluster->bundle_epoch(kCorpora[c]);
    if (epoch != 1 + static_cast<std::uint64_t>(recalibrations[c]))
      result.fail("corpus " + std::to_string(c) + " at epoch " + std::to_string(epoch) +
                  " after " + std::to_string(recalibrations[c]) + " recalibrations");
  }
  const std::string expected = expected_key_space_text(s, ks, scratch);
  for (int pass = 0; pass < 2; ++pass) {
    const std::string got = serve_wire(*s.cluster, all_keys, log, -1, 0);
    result.attempted += static_cast<long>(kKeySpace);
    if (got != expected) {
      const std::vector<std::string> a = split_lines(got), b = split_lines(expected);
      long bad = 0;
      for (std::size_t k = 0; k < kKeySpace; ++k)
        if (k >= a.size() || k >= b.size() || a[k] != b[k]) ++bad;
      result.failed += bad;
      result.fail("key-space pass " + std::to_string(pass) + ": " + std::to_string(bad) +
                  " lines differ from answer_batch on the final epochs");
    }
  }

  report_cycles(st, opt, result);
  result.stamp["requests_per_cycle"] = std::to_string(kWireBatch);
  result.stamp["recalibrate_every_cycles"] = std::to_string(kRecalEvery);
  result.stamp["recalibrations"] = std::to_string(recalibrations[0] + recalibrations[1]);
  // Withheld (0) when the stretch cap came before 20 refit samples; the
  // stamp says how many there were.
  Percentile refit = tail_percentile(refit_ms, 50);
  result.stamp["refit_p50_ms"] = std::to_string(refit.value);
  result.stamp["refit_p50_ms.samples"] = std::to_string(refit.samples);
  result.stamp["refit_p50_ms.beyond"] = std::to_string(refit.beyond);
  const Percentile beside = tail_percentile(beside_refit_ms, 90);
  result.stamp["beside_refit.cycles"] = std::to_string(beside.samples);
  result.stamp["beside_refit.cycle_p90_ms"] = std::to_string(beside.value);
  if (opt.trace) {
    report_cluster(*s.cluster, result);
    report_spans(log.spans(), st, result);
    result.values["cluster.refit.p50_ms"] = refit.value;
    result.values["cluster.refit.cycle_p90_ms"] = beside.value;

    // What one refit does on the refit worker, timed standalone: the
    // drift study (one reduced pass at threads=1) and the fit of the
    // calibration-sized corpus.
    isr::model::StudyConfig cal = serving_config().service.calibration;
    cal.threads = 0;
    const std::vector<isr::model::Observation> corpus = isr::model::run_study(cal);
    isr::model::StudyConfig drift = serving_config().service.calibration;
    drift.samples_per_config = 1;
    drift.seed = opt.seed;
    Clock::time_point t0 = Clock::now();
    const std::size_t drift_obs = isr::model::run_study(drift).size();
    result.values["model.run_study.drift_ms"] = seconds_since(t0) * 1e3;
    std::vector<double> fit_ms;
    for (int k = 0; k < 5; ++k) {
      t0 = Clock::now();
      isr::serve::fit_bundle(cal, corpus);
      fit_ms.push_back(seconds_since(t0) * 1e3);
    }
    result.values["serve.fit_bundle.ms"] = quantile(fit_ms, 0.5);
    result.stamp["drift_observations"] = std::to_string(drift_obs);
  }
  result.spans = log.spans();
  return result;
}

}  // namespace perfbench
