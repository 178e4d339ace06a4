// What every workload shares: the timed loop's stopping rule, the cycle
// summaries behind the end-to-end metrics, and small measurement helpers.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <string>

#include "bench.hpp"

namespace perfbench {

void Result::fail(std::string why) {
  correct = false;
  if (failures.size() < 20) failures.push_back(std::move(why));
}

IdleSpinners::IdleSpinners() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    threads_.emplace_back([this, cpu] {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      sched_param param{};
      // A spinner that cannot be made SCHED_IDLE would compete with the
      // program's threads: it exits instead.
      if (pthread_setaffinity_np(pthread_self(), sizeof one, &one) != 0 ||
          pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0)
        return;
      active_.fetch_add(1);
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    });
  }
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true);
  for (std::thread& t : threads_) t.join();
}

void CycleStats::probe() {
  const ProbeSample s = host_probe.measure();
  const double next_setup = s.all_us() / kReferenceAllUs;
  const double next = reading == HostReading::kText ? s.mix_us / kReferenceTextUs : next_setup;
  // Host states switch about once a second. Correcting every cycle by the
  // sample before it alone left the cycles just after a switch wrongly
  // corrected, and they moved the wire workload's p90 cycle between runs.
  const double ratio = next / host;
  if (ratio > kHostAgree || ratio * kHostAgree < 1.0) {
    dropped_cycles += static_cast<long>(pending.size());
  } else {
    for (const Cycle& c : pending) record(c, 0.5 * (host + next));
  }
  pending.clear();
  host = next;
  setup_host = next_setup;
  host_factors.push_back(host);
}

void CycleStats::add_setup(double seconds) {
  raw_setup_s.push_back(seconds);
  setup_s.push_back(seconds / setup_host);
}

void CycleStats::add(bool traced, std::size_t window, double cycle_s, long n) {
  pending.push_back(Cycle{traced, window, cycle_s, n});
}

void CycleStats::record(const Cycle& c, double host_factor) {
  const double corrected_s = c.cycle_s / host_factor;
  if (c.traced) {
    traced_busy_s += corrected_s;
    traced_ops += c.ops;
    ++traced_cycles;
    return;
  }
  windows.add(c.window, corrected_s, c.ops);
  cycle_ms.push_back(corrected_s * 1e3);
  raw_cycle_ms.push_back(c.cycle_s * 1e3);
  busy_s += corrected_s;
  raw_busy_s += c.cycle_s;
  ops += c.ops;
}

std::size_t CycleStats::full_windows() const {
  return windows.full(min_samples_for(90)).size();
}

bool keep_running(double elapsed_s, const Options& opt, const CycleStats& st) {
  if (elapsed_s < opt.seconds) return true;
  if (opt.trace || elapsed_s >= kMaxStretch * opt.seconds) return false;
  return st.full_windows() < st.min_windows;
}

void report_cycles(CycleStats& st, const Options& opt, Result& result) {
  auto& v = result.values;
  auto& stamp = result.stamp;
  std::vector<double> factors = st.host_factors;
  stamp["host_factor.p50"] = std::to_string(quantile(factors, 0.5));
  stamp["host_factor.p90"] = std::to_string(quantile(factors, 0.9));
  stamp["probe_samples"] = std::to_string(st.host_factors.size());
  if (opt.trace) {
    // Every other cycle was traced: the traced half's rate against the
    // untraced half's is what recording spans costs.
    if (st.busy_s > 0 && st.traced_busy_s > 0 && st.ops > 0)
      v["trace.overhead_frac"] = 1.0 - (static_cast<double>(st.traced_ops) / st.traced_busy_s) /
                                           (static_cast<double>(st.ops) / st.busy_s);
    stamp["traced_cycles"] = std::to_string(st.traced_cycles);
    return;
  }
  const WindowSummary q = summarize_windows(st.windows);
  if (q.windows < st.min_windows)
    result.fail(std::to_string(q.windows) + " windows hold enough cycles; " +
                std::to_string(st.min_windows) + " needed");
  v["ops_per_s"] = q.ops_per_s;
  v["cycle_p50_ms"] = q.p50_ms;
  v["cycle_p90_ms"] = q.p90_ms;
  v["setup_s"] = quantile(st.setup_s, 0.5);
  stamp["setup_reps"] = std::to_string(st.setup_s.size());
  stamp["windows"] = std::to_string(q.windows);
  stamp["window_min_cycles"] = std::to_string(q.min_cycles);
  stamp["cycles"] = std::to_string(st.cycle_ms.size());
  // Cycles after the last sample have no sample to confirm them.
  stamp["cycles_dropped"] =
      std::to_string(st.dropped_cycles + static_cast<long>(st.pending.size()));
  // The whole-run figures beside the window medians, corrected and as
  // measured, for comparison.
  const auto whole_run = [&](const char* prefix, std::vector<double>& ms, double busy_s,
                             std::vector<double>& setup) {
    const std::string p = prefix;
    stamp[p + "cycle_p50_ms"] = std::to_string(tail_percentile(ms, 50).value);
    stamp[p + "cycle_p90_ms"] = std::to_string(tail_percentile(ms, 90).value);
    stamp[p + "ops_per_s"] =
        std::to_string(busy_s > 0 ? static_cast<double>(st.ops) / busy_s : 0.0);
    stamp[p + "setup_s"] = std::to_string(quantile(setup, 0.5));
  };
  whole_run("run.", st.cycle_ms, st.busy_s, st.setup_s);
  whole_run("raw.", st.raw_cycle_ms, st.raw_busy_s, st.raw_setup_s);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace perfbench
