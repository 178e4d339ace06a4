// Benchmark-owned helpers, independent of the insitu_perf library so their
// tests link without it: the seeded generator primitives (SplitMix64, a
// Zipf sampler), the percentile rule every reported tail obeys, and the
// in-memory span log the traced runs attribute time with.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// ---- Deterministic generator primitives ----------------------------------

// SplitMix64: a tiny counter-based generator. Every workload input derives
// from one of these seeded by --seed, so the same seed yields the same
// requests, key space and Zipf draws on any machine.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double next_double();                  // uniform in [0, 1)
  std::uint64_t below(std::uint64_t n);  // uniform in [0, n); n > 0

 private:
  std::uint64_t state_;
};

// Zipf(s) over ranks 0..n-1: P(rank k) proportional to 1 / (k + 1)^s,
// drawn by inverse CDF (binary search over the precomputed table).
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t draw(SplitMix64& rng) const;
  std::size_t size() const { return cdf_.size(); }
  double probability(std::size_t rank) const;

 private:
  std::vector<double> cdf_;
};

// ---- The percentile rule ---------------------------------------------------

// A percentile is reported only when at least this many samples lie beyond
// it; below that it is one or two outliers, not a tail.
constexpr std::size_t kMinBeyond = 10;

// Nearest rank (1-based) of percentile p over n samples: ceil(p/100 * n),
// clamped to [1, n]. 0 when n == 0.
std::size_t nearest_rank(std::size_t n, double p);

// Samples strictly beyond the nearest-rank percentile: n - nearest_rank.
std::size_t samples_beyond(std::size_t n, double p);

// Smallest sample count for which percentile p has at least min_beyond
// samples beyond it.
std::size_t min_samples_for(double p, std::size_t min_beyond = kMinBeyond);

struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;  // sample count behind the estimate
  std::size_t beyond = 0;   // samples beyond it
  bool reported = false;    // beyond >= min_beyond
};

// Nearest-rank percentile of `samples` (sorted in place), reported only
// when at least min_beyond samples lie beyond it; otherwise value is 0 and
// reported is false.
Percentile tail_percentile(std::vector<double>& samples, double p,
                           std::size_t min_beyond = kMinBeyond);

// Quantile q in [0, 1] of `values`, interpolated linearly between order
// statistics (the inclusive method); 0 when empty. `values` is sorted.
double quantile(std::vector<double>& values, double q);

// ---- Phase-robust summaries ----------------------------------------------

// Host noise on a shared machine comes in phases lasting seconds. The
// timed loop is therefore cut into windows, each window is summarized on
// its own, and a run reports the median across windows: a uniform slowdown
// of the program moves every window, while a noisy phase covering less
// than half of the run cannot move the median. The caller numbers the
// windows: by wall-clock second, or by a cadence counted in cycles.
class Windows {
 public:
  struct Window {
    std::vector<double> cycle_ms;
    double busy_s = 0.0;  // summed cycle time
    long ops = 0;         // operations completed
  };

  // Adds one cycle to window `index`.
  void add(std::size_t index, double cycle_s, long ops);

  // Windows holding at least `min_cycles` cycles (others are too short to
  // summarize under the percentile rule and are skipped).
  std::vector<const Window*> full(std::size_t min_cycles) const;

 private:
  std::vector<Window> windows_;
};

// The window summary of a run: per window, the rate (ops / busy time) and
// the p50 / p90 cycle; across windows, the median of each.
struct WindowSummary {
  double ops_per_s = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  std::size_t windows = 0;     // windows summarized
  std::size_t min_cycles = 0;  // fewest cycles in a summarized window
};

// Summarizes the windows holding enough cycles for the p90 rule.
WindowSummary summarize_windows(const Windows& windows);

// ---- Host-speed probe ------------------------------------------------------

// A fixed piece of benchmark-owned work, timed between the program's cycles.
// Its code never changes with the library, so a change in its time is a
// change in the host: clock speed, a busy hyperthread sibling, cache
// contention from co-tenants. Three parts, each a few milliseconds:
//   alu   - a dependent integer chain that touches registers only;
//   cache - a pointer chase over a 4 MiB random ring (cache and TLB bound);
//   mix   - sort and format a fixed 8192-value array (typical code).
// Each part reacts to a different kind of host slowdown: when the host is
// busy, text-heavy code like `mix` slows far more than the integer chain.
struct ProbeSample {
  double alu_us = 0.0;
  double cache_us = 0.0;
  double mix_us = 0.0;

  // The geometric mean of the three parts.
  double all_us() const;
};

class HostProbe {
 public:
  HostProbe();
  ProbeSample measure();

 private:
  std::vector<std::uint32_t> ring_;
  std::vector<double> values_;
  std::vector<double> scratch_;
  std::string text_;
  std::uint64_t sink_ = 0;
};

// ---- Spans -----------------------------------------------------------------

// One timed call: name (a string literal), [start, end) in microseconds
// since the log's origin, the index of the span that caused it (-1 for a
// top-level span) and the closed-loop cycle it belongs to.
struct Span {
  const char* name = "";
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;
  std::uint64_t cycle = 0;
};

// Spans kept in memory for the whole run and written out when it ends. A
// disabled log records nothing: open() returns -1 and close(-1) is a no-op,
// so call sites need no branches of their own.
class SpanLog {
 public:
  explicit SpanLog(bool enabled = false);

  void set_enabled(bool enabled) { enabled_ = enabled; }
  double now_us() const;

  int open(const char* name, int parent, std::uint64_t cycle);
  void close(int id);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, int parent, std::uint64_t cycle)
      : log_(log), id_(log.open(name, parent, cycle)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

// Self time of every span: its duration minus the part of its interval
// that its direct children cover (the union of the children's intervals,
// clipped to the parent, so overlapping children are not counted twice).
std::vector<double> self_times_us(const std::vector<Span>& spans);

struct LayerTime {
  std::size_t count = 0;
  double total_us = 0.0;  // summed durations
  double self_us = 0.0;   // summed self times
};

// Per-name totals over every span.
std::map<std::string, LayerTime> layer_times(const std::vector<Span>& spans);

// Writes one JSON object per span ({"name","cycle","parent","start_us",
// "end_us","self_us"}) to `path`. Returns false when the file cannot be
// written.
bool write_spans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
