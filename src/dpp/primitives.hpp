// Blelloch-style data-parallel primitives: map/for_each, reduce, scans,
// gather, scatter, reverse-index and stream compaction. Every rendering
// algorithm in this library is composed from these, mirroring the paper's
// EAVL/VTK-m implementations (dissertation §2.3).
//
// Each primitive executes on the host (serially or with OpenMP, depending on
// the Device) and reports its work to the Device for timing — wall clock on
// real devices, cost model on simulated ones.
#pragma once

#include <cstdint>
#include <numeric>
#include <vector>

#include "dpp/device.hpp"
#include "dpp/timer.hpp"

#ifdef ISR_HAVE_OPENMP
#include <omp.h>
#endif

namespace isr::dpp {

namespace detail {
// Below this element count the OpenMP fork/join overhead dominates.
inline constexpr std::size_t kParallelThreshold = 4096;

inline bool use_parallel(const Device& dev, std::size_t n) {
#ifdef ISR_HAVE_OPENMP
  return !dev.is_simulated() && dev.thread_count() > 1 && n >= kParallelThreshold;
#else
  (void)dev;
  (void)n;
  return false;
#endif
}
}  // namespace detail

// map: f(i) for i in [0, n). The index-based form subsumes multi-array maps:
// functors capture whatever arrays they need (the EAVL/Thrust idiom).
template <class F>
void for_each(Device& dev, std::size_t n, F&& f, KernelCost cost = {}) {
  WallTimer timer;
  if (detail::use_parallel(dev, n)) {
#ifdef ISR_HAVE_OPENMP
#pragma omp parallel for schedule(static) num_threads(dev.thread_count())
    for (long long i = 0; i < static_cast<long long>(n); ++i)
      f(static_cast<std::size_t>(i));
#endif
  } else {
    for (std::size_t i = 0; i < n; ++i) f(i);
  }
  dev.record_kernel(n, cost, timer.seconds());
}

// map variant whose cost is only known after execution (e.g., BVH traversal
// work depends on how deep rays walked). cost_fn is evaluated once, after
// the loop, so kernels can tally their real work into captured counters.
template <class F, class CostFn>
void for_each_dyn(Device& dev, std::size_t n, F&& f, CostFn&& cost_fn) {
  WallTimer timer;
  if (detail::use_parallel(dev, n)) {
#ifdef ISR_HAVE_OPENMP
#pragma omp parallel for schedule(dynamic, 256) num_threads(dev.thread_count())
    for (long long i = 0; i < static_cast<long long>(n); ++i)
      f(static_cast<std::size_t>(i));
#endif
  } else {
    for (std::size_t i = 0; i < n; ++i) f(i);
  }
  dev.record_kernel(n, cost_fn(), timer.seconds());
}

// for_each_dyn for kernels that tally their work per element (e.g. BVH
// steps per ray): f(i) returns the element's tally, and cost_fn(total) is
// evaluated once with the sum. Integer sums do not depend on the order, so
// the cost is the same at any thread count, and no element pays an atomic.
template <class F, class CostFn>
void for_each_tally(Device& dev, std::size_t n, F&& f, CostFn&& cost_fn) {
  WallTimer timer;
  long long total = 0;
  if (detail::use_parallel(dev, n)) {
#ifdef ISR_HAVE_OPENMP
#pragma omp parallel for schedule(dynamic, 256) num_threads(dev.thread_count()) \
    reduction(+ : total)
    for (long long i = 0; i < static_cast<long long>(n); ++i)
      total += f(static_cast<std::size_t>(i));
#endif
  } else {
    for (std::size_t i = 0; i < n; ++i) total += f(i);
  }
  dev.record_kernel(n, cost_fn(total), timer.seconds());
}

// reduce: combine n values with an associative op.
template <class T, class F, class Op>
T transform_reduce(Device& dev, std::size_t n, T init, F&& f, Op&& op,
                   KernelCost cost = {}) {
  WallTimer timer;
  T result = init;
  if (detail::use_parallel(dev, n)) {
#ifdef ISR_HAVE_OPENMP
    const int nt = dev.thread_count();
    std::vector<T> partial(static_cast<std::size_t>(nt), init);
#pragma omp parallel num_threads(nt)
    {
      const int t = omp_get_thread_num();
      T local = init;
#pragma omp for schedule(static)
      for (long long i = 0; i < static_cast<long long>(n); ++i)
        local = op(local, f(static_cast<std::size_t>(i)));
      partial[static_cast<std::size_t>(t)] = local;
    }
    for (const T& p : partial) result = op(result, p);
#endif
  } else {
    for (std::size_t i = 0; i < n; ++i) result = op(result, f(i));
  }
  dev.record_kernel(n, cost, timer.seconds());
  return result;
}

template <class T>
T reduce_sum(Device& dev, const T* in, std::size_t n, KernelCost cost = {}) {
  return transform_reduce(
      dev, n, T{}, [in](std::size_t i) { return in[i]; },
      [](T a, T b) { return a + b; }, cost);
}

template <class T>
T reduce_max(Device& dev, const T* in, std::size_t n, T init, KernelCost cost = {}) {
  return transform_reduce(
      dev, n, init, [in](std::size_t i) { return in[i]; },
      [](T a, T b) { return a > b ? a : b; }, cost);
}

template <class T>
T reduce_min(Device& dev, const T* in, std::size_t n, T init, KernelCost cost = {}) {
  return transform_reduce(
      dev, n, init, [in](std::size_t i) { return in[i]; },
      [](T a, T b) { return a < b ? a : b; }, cost);
}

// Exclusive scan (prefix sum). Chunked two-pass implementation so real
// multi-threaded devices actually scan in parallel; returns the grand total.
template <class T>
T scan_exclusive(Device& dev, const T* in, T* out, std::size_t n, KernelCost cost = {}) {
  WallTimer timer;
  T total{};
  if (detail::use_parallel(dev, n)) {
#ifdef ISR_HAVE_OPENMP
    const int nt = dev.thread_count();
    const std::size_t chunk = (n + static_cast<std::size_t>(nt) - 1) / nt;
    std::vector<T> chunk_sum(static_cast<std::size_t>(nt), T{});
#pragma omp parallel num_threads(nt)
    {
      const std::size_t t = static_cast<std::size_t>(omp_get_thread_num());
      const std::size_t lo = t * chunk;
      const std::size_t hi = std::min(n, lo + chunk);
      T s{};
      for (std::size_t i = lo; i < hi; ++i) s += in[i];
      chunk_sum[t] = s;
#pragma omp barrier
#pragma omp single
      {
        T run{};
        for (std::size_t c = 0; c < chunk_sum.size(); ++c) {
          const T next = run + chunk_sum[c];
          chunk_sum[c] = run;
          run = next;
        }
      }
      T run = chunk_sum[t];
      for (std::size_t i = lo; i < hi; ++i) {
        const T v = in[i];
        out[i] = run;
        run += v;
      }
    }
    total = out[n - 1] + in[n - 1];
#endif
  } else {
    T run{};
    for (std::size_t i = 0; i < n; ++i) {
      const T v = in[i];
      out[i] = run;
      run += v;
    }
    total = run;
  }
  dev.record_kernel(n, cost, timer.seconds());
  return total;
}

template <class T>
T scan_inclusive(Device& dev, const T* in, T* out, std::size_t n, KernelCost cost = {}) {
  const T total = scan_exclusive(dev, in, out, n, cost);
  for_each(
      dev, n, [in, out](std::size_t i) { out[i] += in[i]; },
      KernelCost{.flops_per_elem = 1, .bytes_per_elem = 2.0 * sizeof(T)});
  return total;
}

// gather: out[i] = in[idx[i]] for i in [0, len(idx)).
template <class T, class Index>
void gather(Device& dev, const Index* idx, std::size_t n_out, const T* in, T* out,
            KernelCost cost = {}) {
  for_each(
      dev, n_out,
      [idx, in, out](std::size_t i) { out[i] = in[static_cast<std::size_t>(idx[i])]; },
      cost);
}

// scatter: out[idx[i]] = in[i] for i in [0, n_in). Callers guarantee unique
// destinations (the paper notes scatter needs more care than gather).
template <class T, class Index>
void scatter(Device& dev, const Index* idx, std::size_t n_in, const T* in, T* out,
             KernelCost cost = {}) {
  for_each(
      dev, n_in,
      [idx, in, out](std::size_t i) { out[static_cast<std::size_t>(idx[i])] = in[i]; },
      cost);
}

// reverse-index: given exclusive-scan results of a 0/1 flag array, produce
// for each set flag the index it maps to; used by the paper's pass-selection
// and stream-compaction chains (Algorithm 1 & 2).
template <class Flag, class T>
void reverse_index(Device& dev, const Flag* flags, const T* scan, std::size_t n,
                   int* out_indices) {
  for_each(
      dev, n,
      [flags, scan, out_indices](std::size_t i) {
        if (flags[i]) out_indices[static_cast<std::size_t>(scan[i])] = static_cast<int>(i);
      },
      KernelCost{.flops_per_elem = 2, .bytes_per_elem = 12});
}

// Stream compaction expressed exactly as the paper's primitive chain:
// reduce (count) -> exclusive scan -> reverse index. Returns the compacted
// index list.
std::vector<int> compact_indices(Device& dev, const std::uint8_t* flags, std::size_t n);

// Sort (keys, values) pairs by key; LSD radix sort, stable.
void sort_pairs(Device& dev, std::vector<std::uint32_t>& keys, std::vector<int>& values);
void sort_pairs64(Device& dev, std::vector<std::uint64_t>& keys, std::vector<int>& values);

// Sort float keys with int payload (used by visibility ordering); keys are
// converted to order-preserving u32.
void sort_pairs_by_float(Device& dev, std::vector<float>& keys, std::vector<int>& values);

}  // namespace isr::dpp
