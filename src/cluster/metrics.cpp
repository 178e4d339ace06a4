#include "cluster/metrics.hpp"

#include <cstdio>

#include "serve/advisor.hpp"

namespace isr::cluster {

std::string ClusterMetrics::to_jsonl() const {
  std::string shard_list = "[";
  for (std::size_t s = 0; s < shard_queries.size(); ++s) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%s%ld", s == 0 ? "" : ",", shard_queries[s]);
    shard_list += buf;
  }
  shard_list += "]";

  // Per-corpus counts as one nested object, keys in cluster-config order
  // (the default corpus first, as "default") — stable bytes, like every
  // other line this repo emits.
  std::string corpus_map = "{";
  for (std::size_t c = 0; c < corpus_queries.size(); ++c) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "\":%ld", corpus_queries[c].second);
    corpus_map += c == 0 ? "\"" : ",\"";
    corpus_map += serve::json_escape(corpus_queries[c].first.empty()
                                         ? "default"
                                         : corpus_queries[c].first);
    corpus_map += buf;
  }
  corpus_map += "}";

  // Per-corpus bundle epochs, same nested-object shape and key order as
  // corpus_queries (0 marks a corpus configured but not yet resident).
  std::string epoch_map = "{";
  for (std::size_t c = 0; c < bundle_epoch.size(); ++c) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "\":%llu",
                  static_cast<unsigned long long>(bundle_epoch[c].second));
    epoch_map += c == 0 ? "\"" : ",\"";
    epoch_map += serve::json_escape(bundle_epoch[c].first.empty()
                                        ? "default"
                                        : bundle_epoch[c].first);
    epoch_map += buf;
  }
  epoch_map += "}";

  // Per-shard health as a JSON string array, shard order.
  std::string health_list = "[";
  for (std::size_t s = 0; s < shard_health.size(); ++s) {
    health_list += s == 0 ? "\"" : ",\"";
    health_list += serve::json_escape(shard_health[s]);
    health_list += "\"";
  }
  health_list += "]";

  const char* fmt =
      "{\"shards\":%d,\"queries\":%ld,\"shard_queries\":%s,"
      "\"corpus_queries\":%s,\"unknown_corpus_queries\":%ld,"
      "\"bundle_epoch\":%s,\"refits\":%ld,\"lazy_fits\":%ld,"
      "\"epoch_invalidations\":%ld,"
      "\"streams\":%ld,\"shed_queries\":%ld,"
      "\"rebalanced_queries\":%ld,\"hot_keys\":%d,"
      "\"cache_lookups\":%ld,\"cache_hits\":%ld,\"cache_hit_rate\":%.6f,"
      "\"worker_restarts\":%ld,\"failovers\":%ld,\"retries\":%ld,"
      "\"timeouts\":%ld,\"degraded_queries\":%ld,\"eval_exceptions\":%ld,"
      "\"faults_injected\":%ld,\"shard_health\":%s,"
      "\"batches\":%ld,\"max_queue_depth\":%zu,"
      "\"queue_wait_us\":%s,\"service_us\":%s,\"e2e_us\":%s,"
      "\"p50_latency_ms\":%.6f,\"p99_latency_ms\":%.6f}";
  const std::string queue_wait_json = queue_wait.to_json();
  const std::string service_json = service.to_json();
  const std::string e2e_json = e2e.to_json();
  // Two-pass snprintf into an exactly-sized string, as in study.cpp.
  const int len = std::snprintf(
      nullptr, 0, fmt, shards, queries, shard_list.c_str(), corpus_map.c_str(),
      unknown_corpus_queries, epoch_map.c_str(), refits, lazy_fits,
      epoch_invalidations, streams, shed_queries, rebalanced_queries, hot_keys,
      cache_lookups, cache_hits, cache_hit_rate, worker_restarts, failovers, retries,
      timeouts, degraded_queries, eval_exceptions, faults_injected,
      health_list.c_str(), batches, max_queue_depth, queue_wait_json.c_str(),
      service_json.c_str(), e2e_json.c_str(), p50_latency_ms, p99_latency_ms);
  std::string line(static_cast<std::size_t>(len > 0 ? len : 0), '\0');
  std::snprintf(&line[0], line.size() + 1, fmt, shards, queries, shard_list.c_str(),
                corpus_map.c_str(), unknown_corpus_queries, epoch_map.c_str(), refits,
                lazy_fits, epoch_invalidations, streams, shed_queries,
                rebalanced_queries, hot_keys, cache_lookups, cache_hits, cache_hit_rate,
                worker_restarts, failovers, retries, timeouts, degraded_queries,
                eval_exceptions, faults_injected, health_list.c_str(), batches,
                max_queue_depth, queue_wait_json.c_str(), service_json.c_str(),
                e2e_json.c_str(), p50_latency_ms, p99_latency_ms);
  return line;
}

}  // namespace isr::cluster
