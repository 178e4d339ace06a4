// Operational metrics for the serving cluster, exported as one JSON line
// (fixed field order, printf-formatted numbers — the same stable-bytes
// discipline as the response wire format). Metrics are observability, not
// part of the determinism contract: latencies are wall-clock measurements
// and vary run to run; everything else (queries, shard counts, hit rates)
// is deterministic for a deterministic workload.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/histogram.hpp"

namespace isr::cluster {

struct ClusterMetrics {
  int shards = 0;
  long queries = 0;                 // total requests answered (hits included)
  std::vector<long> shard_queries;  // evaluated per shard (cache misses)

  // Per-resident-corpus request counts (hits and error slots included), in
  // cluster-config order; the default corpus reports as "default". Requests
  // naming a corpus that is not resident are counted separately — they get
  // in-slot error responses and never reach a shard.
  std::vector<std::pair<std::string, long>> corpus_queries;
  long unknown_corpus_queries = 0;

  // Live recalibration: the current bundle epoch per configured corpus
  // (cluster-config order; 0 = not yet resident under lazy fitting, 1 =
  // initial fit, +1 per refit), refits completed, corpora fitted lazily on
  // first query, and response-cache entries evicted by epoch-scoped
  // invalidation sweeps after refit swaps.
  std::vector<std::pair<std::string, std::uint64_t>> bundle_epoch;
  long refits = 0;
  long lazy_fits = 0;
  long epoch_invalidations = 0;

  // Streaming admission: sessions ever opened (serve_batch counts one per
  // call — it is a session under the hood), and requests refused at
  // admission because their estimated completion would miss the deadline.
  long streams = 0;
  long shed_queries = 0;

  // Hot-key rebalancing: requests routed off their home shard through
  // rendezvous sub-keys, and keys currently above the imbalance threshold.
  long rebalanced_queries = 0;
  int hot_keys = 0;

  long cache_lookups = 0;
  long cache_hits = 0;
  double cache_hit_rate = 0.0;  // hits / lookups; 0 when the cache is off

  // Fault tolerance: injected worker crashes recovered (each abandons its
  // batch to the retry path), re-drives that went to a sibling shard,
  // re-drives after transient failures, re-drives abandoned because the
  // request deadline had passed, and explicit degraded responses delivered
  // ("degraded":true on the wire — retry budget spent, timeout, failed
  // corpus fit, or shutdown race). eval_exceptions counts evaluations that
  // threw and were answered with an in-slot error; faults_injected is the
  // injector's firing total, each crash or throw counted once per attempt
  // it fails (0 whenever ISR_FAULT_SEED is unset).
  long worker_restarts = 0;
  long failovers = 0;
  long retries = 0;
  long timeouts = 0;
  long degraded_queries = 0;
  long eval_exceptions = 0;
  long faults_injected = 0;

  long batches = 0;  // batches drained across all shards
  // Always 0, and not on the metrics line: the shard queues drain whatever
  // is queued, so no batch waits on a kick or a coalescing deadline. Kept
  // only because perfbench's serving workloads still read them.
  long kick_flushes = 0;
  long deadline_flushes = 0;
  std::size_t max_queue_depth = 0;  // deepest any shard queue ever was

  // Per-stage latency histograms (microseconds, log2 buckets, bounded
  // memory — see obs/histogram.hpp), cumulative since cluster start:
  //   queue_wait  enqueue -> popped into a batch by a worker
  //   service     one request's evaluation inside the drained batch
  //   e2e         enqueue -> response slot written (cache hits and shed
  //               requests never enter a shard queue and are not counted)
  // The queue_wait histogram's shard-local EWMA also feeds admission's
  // completion estimate (cluster.cpp), so shedding reflects measured
  // stage time.
  obs::LatencyHistogram queue_wait;
  obs::LatencyHistogram service;
  obs::LatencyHistogram e2e;

  // Convenience views of the e2e histogram (estimates, milliseconds) —
  // kept because benches and dashboards already chart them.
  double p50_latency_ms = 0.0;
  double p99_latency_ms = 0.0;

  // One JSON object, no trailing newline. Schema in docs/ARCHITECTURE.md.
  std::string to_jsonl() const;
};

}  // namespace isr::cluster
