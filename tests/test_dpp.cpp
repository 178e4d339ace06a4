// Tests for the data-parallel primitive layer: correctness of every
// primitive against serial references (parameterized over sizes that cover
// both the serial and the OpenMP chunked code paths), plus the device
// timing/cost-model contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "dpp/primitives.hpp"
#include "dpp/profiles.hpp"
#include "math/rng.hpp"

namespace isr::dpp {
namespace {

class PrimitiveSizes : public ::testing::TestWithParam<std::size_t> {};

// Sizes straddle the kParallelThreshold (4096) so both code paths run; the
// multi-thread device forces the OpenMP path even on small hosts.
INSTANTIATE_TEST_SUITE_P(Sweep, PrimitiveSizes,
                         ::testing::Values<std::size_t>(0, 1, 2, 17, 1000, 4096, 10000));

TEST_P(PrimitiveSizes, ForEachTouchesEveryIndexOnce) {
  const std::size_t n = GetParam();
  for (Device dev : {Device::serial(), Device::host(4)}) {
    std::vector<int> hits(n, 0);
    for_each(dev, n, [&](std::size_t i) { hits[i] += 1; });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i], 1);
  }
}

TEST_P(PrimitiveSizes, ReduceSumMatchesStd) {
  const std::size_t n = GetParam();
  Rng rng(n + 1);
  std::vector<long long> data(n);
  for (auto& v : data) v = rng.uniform_int(-100, 100);
  const long long expect = std::accumulate(data.begin(), data.end(), 0LL);
  for (Device dev : {Device::serial(), Device::host(4)})
    EXPECT_EQ(reduce_sum(dev, data.data(), n), expect);
}

TEST_P(PrimitiveSizes, ReduceMinMax) {
  const std::size_t n = GetParam();
  if (n == 0) return;
  Rng rng(n + 2);
  std::vector<float> data(n);
  for (auto& v : data) v = rng.uniform(-5.0f, 5.0f);
  Device dev = Device::host(4);
  EXPECT_FLOAT_EQ(reduce_min(dev, data.data(), n, 1e30f),
                  *std::min_element(data.begin(), data.end()));
  EXPECT_FLOAT_EQ(reduce_max(dev, data.data(), n, -1e30f),
                  *std::max_element(data.begin(), data.end()));
}

TEST_P(PrimitiveSizes, ExclusiveScanMatchesSerial) {
  const std::size_t n = GetParam();
  Rng rng(n + 3);
  std::vector<int> data(n);
  for (auto& v : data) v = rng.uniform_int(0, 9);
  std::vector<int> expect(n);
  int run = 0;
  for (std::size_t i = 0; i < n; ++i) {
    expect[i] = run;
    run += data[i];
  }
  for (Device dev : {Device::serial(), Device::host(4)}) {
    std::vector<int> out(n);
    const int total = scan_exclusive(dev, data.data(), out.data(), n);
    EXPECT_EQ(out, expect);
    if (n > 0) {
      EXPECT_EQ(total, run);
    }
  }
}

TEST_P(PrimitiveSizes, InclusiveScanMatchesSerial) {
  const std::size_t n = GetParam();
  Rng rng(n + 4);
  std::vector<int> data(n);
  for (auto& v : data) v = rng.uniform_int(0, 9);
  std::vector<int> expect(n);
  int run = 0;
  for (std::size_t i = 0; i < n; ++i) {
    run += data[i];
    expect[i] = run;
  }
  Device dev = Device::host(4);
  std::vector<int> out(n);
  scan_inclusive(dev, data.data(), out.data(), n);
  EXPECT_EQ(out, expect);
}

TEST(Primitives, GatherScatterRoundTrip) {
  Device dev = Device::serial();
  const std::size_t n = 1000;
  std::vector<float> data(n);
  std::iota(data.begin(), data.end(), 0.0f);
  // Permutation via gather, inverse via scatter.
  std::vector<int> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  Rng rng(5);
  for (std::size_t i = n - 1; i > 0; --i)
    std::swap(perm[i], perm[rng.next_u64() % (i + 1)]);
  std::vector<float> gathered(n), restored(n);
  gather(dev, perm.data(), n, data.data(), gathered.data());
  scatter(dev, perm.data(), n, gathered.data(), restored.data());
  EXPECT_EQ(restored, data);
}

TEST(Primitives, CompactIndicesMatchesManual) {
  Device dev = Device::host(4);
  const std::size_t n = 9000;
  Rng rng(6);
  std::vector<std::uint8_t> flags(n);
  for (auto& f : flags) f = rng.next_float() < 0.3f ? 1 : 0;
  const std::vector<int> got = compact_indices(dev, flags.data(), n);
  std::vector<int> expect;
  for (std::size_t i = 0; i < n; ++i)
    if (flags[i]) expect.push_back(static_cast<int>(i));
  EXPECT_EQ(got, expect);
}

TEST(Primitives, CompactAllAndNone) {
  Device dev = Device::serial();
  std::vector<std::uint8_t> all(100, 1), none(100, 0);
  EXPECT_EQ(compact_indices(dev, all.data(), 100).size(), 100u);
  EXPECT_TRUE(compact_indices(dev, none.data(), 100).empty());
}

// Per-element tallies reach the cost function as one sum, the same on a
// threaded host device as on a serial one.
TEST(Primitives, ForEachTallySumsAtAnyThreadCount) {
  constexpr std::size_t kN = 20000;
  long long expected = 0;
  for (std::size_t i = 0; i < kN; ++i) expected += static_cast<long long>(i % 7);
  for (Device dev : {Device::serial(), Device::host(4)}) {
    std::vector<int> touched(kN, 0);
    long long seen = -1;
    for_each_tally(
        dev, kN,
        [&](std::size_t i) {
          touched[i] = 1;
          return static_cast<long long>(i % 7);
        },
        [&](long long total) {
          seen = total;
          return KernelCost{};
        });
    EXPECT_EQ(seen, expected);
    EXPECT_EQ(std::accumulate(touched.begin(), touched.end(), 0), static_cast<int>(kN));
    EXPECT_EQ(dev.timings().phases.begin()->second.kernels, 1u);
  }
}

TEST(Sort, SortsRandomKeys32) {
  Device dev = Device::serial();
  Rng rng(7);
  std::vector<std::uint32_t> keys(5000);
  std::vector<int> vals(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i] = rng.next_u32();
    vals[i] = static_cast<int>(i);
  }
  const std::vector<std::uint32_t> orig = keys;
  sort_pairs(dev, keys, vals);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  // Payload permuted consistently.
  for (std::size_t i = 0; i < keys.size(); ++i)
    EXPECT_EQ(orig[static_cast<std::size_t>(vals[i])], keys[i]);
}

TEST(Sort, SortsRandomKeys64) {
  Device dev = Device::serial();
  Rng rng(8);
  std::vector<std::uint64_t> keys(3000);
  std::vector<int> vals(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i] = rng.next_u64();
    vals[i] = static_cast<int>(i);
  }
  sort_pairs64(dev, keys, vals);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

TEST(Sort, FloatKeysIncludingNegatives) {
  Device dev = Device::serial();
  Rng rng(9);
  std::vector<float> keys(4000);
  std::vector<int> vals(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i] = rng.uniform(-100.0f, 100.0f);
    vals[i] = static_cast<int>(i);
  }
  const std::vector<float> orig = keys;
  sort_pairs_by_float(dev, keys, vals);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  for (std::size_t i = 0; i < keys.size(); ++i)
    EXPECT_FLOAT_EQ(orig[static_cast<std::size_t>(vals[i])], keys[i]);
}

TEST(Sort, StableForEqualKeys) {
  Device dev = Device::serial();
  std::vector<std::uint32_t> keys = {5, 1, 5, 1, 5};
  std::vector<int> vals = {0, 1, 2, 3, 4};
  sort_pairs(dev, keys, vals);
  EXPECT_EQ(vals, (std::vector<int>{1, 3, 0, 2, 4}));
}

// LBVH-shaped keys ((code << 32) | index) leave whole digits constant; the
// sort skips those passes and must still equal a stable sort, payload and
// recorded kernel included.
TEST(Sort, ConstantDigitsMatchAStableSort) {
  Rng rng(10);
  std::vector<std::uint64_t> keys(2000);
  std::vector<int> vals(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i] = (static_cast<std::uint64_t>(rng.next_u64() & 0x3F00FF) << 32) | i;
    vals[i] = static_cast<int>(keys.size() - i);
  }
  std::vector<std::pair<std::uint64_t, int>> expected;
  for (std::size_t i = 0; i < keys.size(); ++i) expected.emplace_back(keys[i], vals[i]);
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  Device dev = Device::serial();
  sort_pairs64(dev, keys, vals);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(keys[i], expected[i].first) << i;
    EXPECT_EQ(vals[i], expected[i].second) << i;
  }
  EXPECT_EQ(dev.timings().phases.begin()->second.kernels, 1u);
  EXPECT_EQ(dev.timings().phases.begin()->second.est_ops, 4.0 * 8 * 2000);

  std::vector<std::uint32_t> same(5, 7u);
  std::vector<int> order = {4, 3, 2, 1, 0};
  sort_pairs(dev, same, order);  // every pass skipped: nothing moves
  EXPECT_EQ(order, (std::vector<int>{4, 3, 2, 1, 0}));
}

TEST(Device, SimulatedTimeScalesWithWork) {
  Device dev = Device::simulated(profile_gpu1());
  const KernelCost cost{.flops_per_elem = 100, .bytes_per_elem = 100, .divergence = 1.0};
  dev.begin_phase("a");
  dev.record_kernel(1000, cost, 0.0);
  dev.end_phase();
  dev.begin_phase("b");
  dev.record_kernel(1000000, cost, 0.0);
  dev.end_phase();
  EXPECT_GT(dev.timings().phase_seconds("b"), dev.timings().phase_seconds("a") * 10);
}

TEST(Device, SimulatedLaunchOverheadDominatesSmallKernels) {
  DeviceProfile p = profile_gpu1();
  p.jitter_sigma = 0.0;
  Device dev = Device::simulated(p);
  const double t1 = dev.model_kernel_seconds(1, {});
  EXPECT_NEAR(t1, p.launch_us * 1e-6, t1 * 0.5);
}

TEST(Device, JitterIsDeterministicPerSeed) {
  Device a = Device::simulated(profile_cpu1(), 123);
  Device b = Device::simulated(profile_cpu1(), 123);
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(a.model_kernel_seconds(10000, {}), b.model_kernel_seconds(10000, {}));
}

TEST(Device, PhasesAccumulateAndReset) {
  Device dev = Device::serial();
  dev.begin_phase("x");
  dev.record_kernel(10, {}, 0.25);
  dev.record_kernel(10, {}, 0.25);
  dev.end_phase();
  EXPECT_DOUBLE_EQ(dev.timings().phase_seconds("x"), 0.5);
  EXPECT_EQ(dev.timings().phases.at("x").kernels, 2u);
  dev.reset_timings();
  EXPECT_DOUBLE_EQ(dev.timings().total_seconds(), 0.0);
}

TEST(Device, NestedPhasesAttributeToInnermost) {
  Device dev = Device::serial();
  {
    ScopedPhase outer(dev, "outer");
    dev.record_kernel(1, {}, 0.1);
    {
      ScopedPhase inner(dev, "inner");
      dev.record_kernel(1, {}, 0.2);
    }
    dev.record_kernel(1, {}, 0.1);
  }
  EXPECT_NEAR(dev.timings().phase_seconds("outer"), 0.2, 1e-12);
  EXPECT_NEAR(dev.timings().phase_seconds("inner"), 0.2, 1e-12);
}

TEST(Device, RealDeviceUsesWallClock) {
  Device dev = Device::serial();
  dev.record_kernel(10, {}, 0.125);
  EXPECT_DOUBLE_EQ(dev.timings().total_seconds(), 0.125);
}

TEST(Device, IpcEstimateIsFinite) {
  Device dev = Device::simulated(profile_cpu1());
  dev.begin_phase("k");
  dev.record_kernel(100000, {.flops_per_elem = 10, .bytes_per_elem = 8, .divergence = 1.0}, 0.0);
  dev.end_phase();
  const double ipc = dev.timings().phase_ipc("k", dev.profile().clock_ghz);
  EXPECT_GT(ipc, 0.0);
  EXPECT_LT(ipc, 1000.0);
}

TEST(Device, TapeSegmentsFollowResets) {
  Device dev = Device::simulated(profile_cpu1(), 5);
  KernelTape tape;
  dev.attach_tape(&tape);
  dev.record_kernel(7, {}, 0.0);  // before the first mark: in no segment
  dev.reset_timings();
  {
    ScopedPhase p(dev, "a");
    dev.record_kernel(100, {}, 0.0);
  }
  dev.reset_timings();
  dev.reset_timings();  // an empty segment
  dev.record_kernel(1000, {}, 0.0);
  const TimingLog last = dev.timings();
  dev.attach_tape(nullptr);
  dev.record_kernel(1, {}, 0.0);  // detached: not taped

  ASSERT_EQ(tape.kernels.size(), 3u);
  EXPECT_EQ(tape.kernels[1].phase, "a");
  EXPECT_EQ(tape.marks, (std::vector<std::size_t>{1, 2, 2}));
  const std::vector<TimingLog> segments = Device::replay(tape, profile_cpu1(), 5);
  ASSERT_EQ(segments.size(), 3u);
  EXPECT_EQ(segments[0].phases.at("a").kernels, 1u);
  EXPECT_TRUE(segments[1].phases.empty());
  // The first kernel still drew its jitter, so the replay matches the live
  // log bit for bit.
  EXPECT_EQ(segments[2].total_seconds(), last.total_seconds());
  EXPECT_TRUE(Device::replay(KernelTape{}, profile_gpu1(), 5).empty());
}

TEST(Profiles, AllNamedProfilesResolve) {
  for (const std::string& name : all_profile_names()) {
    const DeviceProfile p = profile_by_name(name);
    EXPECT_EQ(p.name, name);
    EXPECT_GT(p.gflops, 0.0);
    EXPECT_GT(p.bandwidth_gbs, 0.0);
  }
  EXPECT_THROW(profile_by_name("nonsense"), std::invalid_argument);
}

TEST(Profiles, RelativeOrderingMatchesPaper) {
  // Titan Black > K40 (GPU1) > 750Ti > 620M; Xeon > i7; ISPC-MIC >> OMP-MIC.
  EXPECT_GT(profile_titan_black().gflops, profile_gpu1().gflops);
  EXPECT_GT(profile_gpu1().gflops, profile_gtx750ti().gflops);
  EXPECT_GT(profile_gtx750ti().gflops, profile_gt620m().gflops);
  EXPECT_GT(profile_xeon().gflops, profile_i7().gflops);
  EXPECT_GT(profile_mic_ispc().gflops, 4.0 * profile_mic_omp().gflops);
}

TEST(Profiles, ThreadScalingIsSublinear) {
  const double t1 = profile_cpu_threads(1).gflops;
  const double t24 = profile_cpu_threads(24).gflops;
  EXPECT_GT(t24, t1 * 10);   // scales well...
  EXPECT_LT(t24, t1 * 24);   // ...but not perfectly (Table 8's observation)
}

}  // namespace
}  // namespace isr::dpp
