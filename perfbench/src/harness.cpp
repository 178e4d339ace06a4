#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <utility>

namespace perfbench {

std::uint64_t SplitMix64::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double SplitMix64::next_double() {
  return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
}

std::uint64_t SplitMix64::below(std::uint64_t n) { return next() % n; }

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double sum = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = sum;
  }
  for (double& c : cdf_) c /= sum;
  if (!cdf_.empty()) cdf_.back() = 1.0;
}

std::size_t Zipf::draw(SplitMix64& rng) const {
  const double u = rng.next_double();
  // First rank whose cumulative probability exceeds u.
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return it == cdf_.end() ? cdf_.size() - 1 : static_cast<std::size_t>(it - cdf_.begin());
}

double Zipf::probability(std::size_t rank) const {
  if (rank >= cdf_.size()) return 0.0;
  return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
}

std::size_t nearest_rank(std::size_t n, double p) {
  if (n == 0) return 0;
  const double r = std::ceil(p / 100.0 * static_cast<double>(n));
  if (r < 1.0) return 1;
  if (r > static_cast<double>(n)) return n;
  return static_cast<std::size_t>(r);
}

std::size_t samples_beyond(std::size_t n, double p) { return n - nearest_rank(n, p); }

std::size_t min_samples_for(double p, std::size_t min_beyond) {
  std::size_t n = min_beyond + 1;
  while (samples_beyond(n, p) < min_beyond) ++n;
  return n;
}

Percentile tail_percentile(std::vector<double>& samples, double p, std::size_t min_beyond) {
  Percentile out;
  out.samples = samples.size();
  out.beyond = samples_beyond(samples.size(), p);
  out.reported = !samples.empty() && out.beyond >= min_beyond;
  if (!out.reported) return out;
  const std::size_t rank = nearest_rank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(rank - 1),
                   samples.end());
  out.value = samples[rank - 1];
  return out;
}

double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

void Windows::add(std::size_t index, double cycle_s, long ops) {
  if (windows_.size() <= index) windows_.resize(index + 1);
  Window& win = windows_[index];
  win.cycle_ms.push_back(cycle_s * 1e3);
  win.busy_s += cycle_s;
  win.ops += ops;
}

std::vector<const Windows::Window*> Windows::full(std::size_t min_cycles) const {
  std::vector<const Window*> out;
  for (const Window& w : windows_)
    if (w.cycle_ms.size() >= min_cycles) out.push_back(&w);
  return out;
}

WindowSummary summarize_windows(const Windows& windows) {
  WindowSummary out;
  std::vector<double> rates, p50s, p90s;
  for (const Windows::Window* w : windows.full(min_samples_for(90))) {
    std::vector<double> ms = w->cycle_ms;
    p50s.push_back(tail_percentile(ms, 50).value);
    p90s.push_back(tail_percentile(ms, 90).value);
    rates.push_back(static_cast<double>(w->ops) / w->busy_s);
    out.min_cycles = out.windows == 0 ? ms.size() : std::min(out.min_cycles, ms.size());
    ++out.windows;
  }
  out.ops_per_s = quantile(rates, 0.5);
  out.p50_ms = quantile(p50s, 0.5);
  out.p90_ms = quantile(p90s, 0.5);
  return out;
}

namespace {

constexpr std::size_t kRingSlots = std::size_t{1} << 20;  // 4 MiB of uint32
constexpr std::size_t kChaseSteps = std::size_t{1} << 15;
constexpr std::size_t kAluSteps = std::size_t{1} << 20;
constexpr std::size_t kMixValues = 8192;

double us_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

HostProbe::HostProbe() : ring_(kRingSlots), values_(kMixValues) {
  // One random cycle through every slot (Sattolo's shuffle), so the chase
  // visits the whole ring in an order the prefetcher cannot follow.
  SplitMix64 rng(0x5EED);
  for (std::size_t i = 0; i < kRingSlots; ++i) ring_[i] = static_cast<std::uint32_t>(i);
  for (std::size_t i = kRingSlots - 1; i > 0; --i) std::swap(ring_[i], ring_[rng.below(i)]);
  for (double& v : values_) v = rng.next_double() * 1e6;
  text_.reserve(kMixValues * 24);
}

double ProbeSample::all_us() const { return std::cbrt(alu_us * cache_us * mix_us); }

ProbeSample HostProbe::measure() {
  ProbeSample s;
  auto t0 = std::chrono::steady_clock::now();
  std::uint64_t x = sink_ | 1;
  for (std::size_t i = 0; i < kAluSteps; ++i) x = (x * 6364136223846793005ull + i) ^ (x >> 29);
  s.alu_us = us_since(t0);

  t0 = std::chrono::steady_clock::now();
  std::uint32_t at = static_cast<std::uint32_t>(x & (kRingSlots - 1));
  for (std::size_t i = 0; i < kChaseSteps; ++i) at = ring_[at];
  s.cache_us = us_since(t0);

  t0 = std::chrono::steady_clock::now();
  scratch_ = values_;
  std::sort(scratch_.begin(), scratch_.end());
  text_.clear();
  char buf[32];
  for (const double v : scratch_) {
    const int n = std::snprintf(buf, sizeof buf, "%.6g,", v);
    text_.append(buf, static_cast<std::size_t>(n));
  }
  s.mix_us = us_since(t0);

  sink_ = x + at + std::hash<std::string>{}(text_);
  return s;
}

SpanLog::SpanLog(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

double SpanLog::now_us() const {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - origin_)
      .count();
}

int SpanLog::open(const char* name, int parent, std::uint64_t cycle) {
  if (!enabled_) return -1;
  const double t = now_us();
  spans_.push_back(Span{name, t, t, parent, cycle});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::close(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_us = now_us();
}

std::vector<double> self_times_us(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || static_cast<std::size_t>(s.parent) >= spans.size()) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const double lo = std::max(s.start_us, p.start_us);
    const double hi = std::min(s.end_us, p.end_us);
    if (hi > lo) children[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<double, double>>& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double run_lo = 0.0, run_hi = 0.0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = std::max(0.0, (spans[i].end_us - spans[i].start_us) - covered);
  }
  return self;
}

std::map<std::string, LayerTime> layer_times(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times_us(spans);
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTime& t = out[spans[i].name];
    ++t.count;
    t.total_us += spans[i].end_us - spans[i].start_us;
    t.self_us += self[i];
  }
  return out;
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::vector<double> self = self_times_us(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cycle\":%llu,\"parent\":%d,\"start_us\":%.3f,"
                 "\"end_us\":%.3f,\"self_us\":%.3f}\n",
                 s.name, static_cast<unsigned long long>(s.cycle), s.parent, s.start_us,
                 s.end_us, self[i]);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
