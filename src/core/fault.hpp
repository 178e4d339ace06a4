// Deterministic fault injection for the serving stack. A fault schedule
// must be as reproducible as the corpora and responses it disturbs, or a
// chaos test that fails once can never be debugged: every injection
// decision here is a pure function of (seed, site, identity keys) through
// the same hash_seed machinery the study harness derives its jitter from —
// NOT a shared RNG stream, whose draws would depend on which thread asked
// first. Keying decisions on a request's (stream id, per-stream sequence,
// attempt) makes the schedule identical at any shard count, thread count,
// or interleaving: the same requests fail in the same way on every run
// with the same seed, and a disabled injector (seed 0) is a handful of
// dead branches.
//
// The sites are the cluster's fault surface (src/cluster/ consumes them):
//   eval-throw   — a shard worker's per-request evaluation throws; the
//                  worker converts it into a transient failure that
//                  retries/fails over instead of killing the thread.
//   queue-stall  — a shard worker sleeps mid-drain; the batch is answered
//                  late, with its normal bytes (a pure latency fault).
//   fit-fail     — a calibration fit fails at replication time; the corpus
//                  is served degraded responses instead of crashing boot.
//   worker-crash — a shard worker crashes mid-batch; it abandons the whole
//                  popped batch to the retry path, undelivered, and
//                  carries on with its next pop.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace isr::core {

enum class FaultSite : int {
  kShardEvalThrow = 0,
  kQueueStall,
  kCorpusFitFail,
  kWorkerCrash,
  kCount,
};
constexpr int kFaultSiteCount = static_cast<int>(FaultSite::kCount);

// The CLI/env token for a site ("eval-throw", "queue-stall", "fit-fail",
// "worker-crash") and its inverse. fault_site_from_token returns false on
// anything else — a typo'd site name must be loud, not silently inert.
const char* fault_site_name(FaultSite site);
bool fault_site_from_token(const std::string& token, FaultSite& site);

struct FaultConfig {
  // Injection master switch: 0 (the default) disables every site, which is
  // what preserves the cluster's byte-identity contract — with seed 0 the
  // fault branches are never taken and responses match a build without
  // this subsystem at all.
  std::uint64_t seed = 0;
  // Per-opportunity firing probability in [0, 1]. 1.0 fires at every
  // enabled site (the "always fails" chaos mode); the decision at each
  // opportunity is still independent and deterministic.
  double rate = 0.1;
  // Bitmask of enabled sites, bit i = FaultSite(i). 0 disables injection
  // even with a seed (parse_sites("all", ...) sets every bit).
  std::uint32_t sites = 0;
  // How long a fired queue-stall site sleeps, in milliseconds — long
  // enough to show in the latency histograms, short enough that tests
  // stay fast.
  int stall_ms = 20;

  bool enabled(FaultSite site) const {
    return (sites >> static_cast<int>(site)) & 1u;
  }
  // True when any site can ever fire.
  bool armed() const { return seed != 0 && rate > 0.0 && sites != 0; }

  // Parses a comma-separated site list ("eval-throw,worker-crash", or
  // "all") into a bitmask. Returns false (with a one-line reason) on an
  // unknown token or an empty list.
  static bool parse_sites(const std::string& csv, std::uint32_t& mask,
                          std::string& error);

  // Reads ISR_FAULT_SEED / ISR_FAULT_RATE / ISR_FAULT_SITES /
  // ISR_FAULT_STALL_MS. With a seed set but no ISR_FAULT_SITES, every site
  // is enabled; a malformed ISR_FAULT_SITES warns on stderr and disables
  // injection (fail safe — a typo must not half-enable chaos).
  static FaultConfig from_env();
};

// The decision engine. Thread-safe: should_fire is a pure hash compare
// plus a relaxed counter bump, so any number of shard workers may consult
// one injector concurrently without changing anyone's schedule.
class FaultInjector {
 public:
  FaultInjector() = default;  // disarmed: should_fire is always false
  explicit FaultInjector(FaultConfig config) : config_(config) {}

  bool armed() const { return config_.armed(); }
  const FaultConfig& config() const { return config_; }

  // Whether the fault at `site` fires for the opportunity identified by
  // (k0, k1, k2): a pure function of (seed, site, keys), so callers choose
  // keys that name the opportunity deterministically (the cluster uses
  // stream id, per-stream sequence, and attempt number — never "how many
  // times was this called", which interleaving would scramble). Counts
  // the firing when it does.
  bool should_fire(FaultSite site, std::uint64_t k0, std::uint64_t k1 = 0,
                   std::uint64_t k2 = 0);

  // Firings per site / in total since construction (relaxed counters —
  // observability, not synchronization).
  long fired(FaultSite site) const {
    return fired_[static_cast<int>(site)].load(std::memory_order_relaxed);
  }
  long total_fired() const;

 private:
  FaultConfig config_{};
  std::atomic<long> fired_[kFaultSiteCount] = {};
};

}  // namespace isr::core
