// Tests for the benchmark's own helpers: the percentile-with-10-beyond
// rule, seeded Zipf/SplitMix64 determinism, span self time, the window
// summary and the host probe. Plain checks (no test framework) so the
// benchmark package builds on its own; exits 1 on the first failed check.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "harness.hpp"

namespace {

int g_checks = 0;

void check(bool ok, const char* what, int line) {
  ++g_checks;
  if (ok) return;
  std::fprintf(stderr, "test_harness:%d: FAILED: %s\n", line, what);
  std::exit(1);
}

#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentile_rule() {
  using perfbench::samples_beyond;
  using perfbench::tail_percentile;
  // Nearest rank: p50 of 20 samples is rank 10, so 10 lie beyond it.
  CHECK(perfbench::nearest_rank(20, 50) == 10);
  CHECK(samples_beyond(20, 50) == 10);
  CHECK(samples_beyond(19, 50) == 9);
  CHECK(perfbench::nearest_rank(0, 50) == 0);
  CHECK(perfbench::nearest_rank(5, 0) == 1);
  CHECK(perfbench::nearest_rank(5, 100) == 5);
  // p90 needs 100 samples for 10 beyond; 99 leave only 9.
  CHECK(samples_beyond(100, 90) == 10);
  CHECK(samples_beyond(99, 90) == 9);
  CHECK(perfbench::min_samples_for(90) == 100);
  CHECK(perfbench::min_samples_for(50) == 20);
  CHECK(perfbench::min_samples_for(99) == 1000);

  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(101 - i);  // 100 .. 1, unsorted input
  perfbench::Percentile p = tail_percentile(v, 90);
  CHECK(p.reported && p.samples == 100 && p.beyond == 10 && near(p.value, 90));
  p = tail_percentile(v, 50);
  CHECK(p.reported && near(p.value, 50));

  v.pop_back();  // 99 samples: p90 is withheld, p50 is not
  p = tail_percentile(v, 90);
  CHECK(!p.reported && p.value == 0.0 && p.samples == 99 && p.beyond == 9);
  CHECK(tail_percentile(v, 50).reported);

  std::vector<double> empty;
  p = tail_percentile(empty, 50);
  CHECK(!p.reported && p.samples == 0);
}

void test_generator_determinism() {
  perfbench::SplitMix64 a(42), b(42), c(43);
  bool differs = false;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t x = a.next();
    CHECK(x == b.next());
    differs = differs || x != c.next();
  }
  CHECK(differs);
  perfbench::SplitMix64 u(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = u.next_double();
    CHECK(d >= 0.0 && d < 1.0);
    CHECK(u.below(13) < 13);
  }

  const perfbench::Zipf zipf(256, 1.0);
  CHECK(zipf.size() == 256);
  // P(k) proportional to 1/(k+1): rank 0 is twice as likely as rank 1.
  CHECK(near(zipf.probability(0) / zipf.probability(1), 2.0));
  double total = 0.0;
  for (std::size_t k = 0; k < zipf.size(); ++k) total += zipf.probability(k);
  CHECK(near(total, 1.0));

  // The same seed draws the same sequence; another seed does not.
  perfbench::SplitMix64 r1(2024), r2(2024), r3(2025);
  std::vector<std::size_t> d1, d2, d3;
  for (int i = 0; i < 4096; ++i) {
    d1.push_back(zipf.draw(r1));
    d2.push_back(zipf.draw(r2));
    d3.push_back(zipf.draw(r3));
  }
  CHECK(d1 == d2);
  CHECK(d1 != d3);
  // The draws follow the distribution: rank 0's share is near P(0) ~ 0.163.
  std::size_t zeros = 0;
  perfbench::SplitMix64 r4(99);
  const int draws = 200000;
  for (int i = 0; i < draws; ++i) zeros += zipf.draw(r4) == 0 ? 1 : 0;
  CHECK(std::fabs(static_cast<double>(zeros) / draws - zipf.probability(0)) < 0.01);
  for (const std::size_t d : d1) CHECK(d < zipf.size());
}

void test_span_self_time() {
  using perfbench::Span;
  // parent [0,100) with children [10,30) and [20,50) (overlapping: they
  // cover [10,50) = 40 together) and [60,70); a grandchild [12,18) under
  // the first child; a child sticking out of its parent is clipped.
  std::vector<Span> spans = {
      {"cycle", 0, 100, -1, 1},    // 0
      {"a", 10, 30, 0, 1},         // 1
      {"b", 20, 50, 0, 1},         // 2
      {"c", 60, 70, 0, 1},         // 3
      {"leaf", 12, 18, 1, 1},      // 4
      {"late", 95, 120, 0, 1},     // 5: covers [95,100) of the parent
  };
  const std::vector<double> self = perfbench::self_times_us(spans);
  CHECK(near(self[0], 100 - 40 - 10 - 5));
  CHECK(near(self[1], 20 - 6));
  CHECK(near(self[2], 30));
  CHECK(near(self[4], 6));
  CHECK(near(self[5], 25));

  const auto times = perfbench::layer_times(spans);
  CHECK(times.at("cycle").count == 1 && near(times.at("cycle").self_us, 45));
  CHECK(near(times.at("a").total_us, 20) && near(times.at("a").self_us, 14));

  // A disabled log records nothing; an enabled one nests by parent id.
  perfbench::SpanLog off(false);
  CHECK(off.open("x", -1, 0) == -1);
  off.close(-1);
  CHECK(off.spans().empty());
  perfbench::SpanLog on(true);
  {
    perfbench::ScopedSpan outer(on, "outer", -1, 7);
    perfbench::ScopedSpan inner(on, "inner", outer.id(), 7);
    CHECK(inner.id() == 1);
  }
  CHECK(on.spans().size() == 2 && on.spans()[1].parent == 0 && on.spans()[1].cycle == 7);
  CHECK(on.spans()[0].end_us >= on.spans()[1].end_us);
  CHECK(perfbench::self_times_us(on.spans())[0] >= 0.0);
}

void test_window_summary() {
  std::vector<double> q = {4, 1, 3, 2};
  CHECK(near(perfbench::quantile(q, 0.25), 1.75));
  CHECK(near(perfbench::quantile(q, 0.0), 1) && near(perfbench::quantile(q, 1.0), 4));
  std::vector<double> none;
  CHECK(perfbench::quantile(none, 0.5) == 0.0);

  // Five 1-s windows of 200 one-op cycles: three quiet (1 ms), two in a
  // noisy phase (2 ms), plus a short sixth window the p90 rule cannot
  // summarize.
  perfbench::Windows w;
  for (std::size_t win = 0; win < 5; ++win)
    for (int c = 0; c < 200; ++c) w.add(win, win == 1 || win == 3 ? 0.002 : 0.001, 1);
  for (int c = 0; c < 50; ++c) w.add(5, 0.010, 1);
  CHECK(w.full(100).size() == 5);
  const perfbench::WindowSummary s = perfbench::summarize_windows(w);
  CHECK(s.windows == 5 && s.min_cycles == 200);
  // A noisy phase covering less than half the run leaves the medians alone.
  CHECK(near(s.p50_ms, 1.0) && near(s.p90_ms, 1.0));
  CHECK(near(s.ops_per_s, 1000.0));

  // A uniform 2x slowdown moves every window, and so the summary.
  perfbench::Windows slow;
  for (std::size_t win = 0; win < 5; ++win)
    for (int c = 0; c < 200; ++c) slow.add(win, win == 1 || win == 3 ? 0.004 : 0.002, 1);
  const perfbench::WindowSummary t = perfbench::summarize_windows(slow);
  CHECK(near(t.p50_ms, 2.0) && near(t.ops_per_s, 500.0));

}

void test_host_probe() {
  const perfbench::ProbeSample s{8.0, 27.0, 1.0};
  CHECK(near(s.all_us(), 6.0));  // cbrt(8 * 27 * 1)
  perfbench::HostProbe probe;
  for (int i = 0; i < 3; ++i) {
    const perfbench::ProbeSample m = probe.measure();
    CHECK(m.alu_us > 0 && m.cache_us > 0 && m.mix_us > 0);
  }
}

}  // namespace

int main() {
  test_percentile_rule();
  test_generator_determinism();
  test_span_self_time();
  test_window_summary();
  test_host_probe();
  std::printf("test_harness: %d checks passed\n", g_checks);
  return 0;
}
