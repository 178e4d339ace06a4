// LSD radix sort for (key, value) pairs. This is the sort primitive behind
// the LBVH build (Morton codes) and visibility ordering (float depths).
#include <cstring>

#include "dpp/primitives.hpp"
#include "math/bitcast.hpp"

namespace isr::dpp {

namespace {

template <class Key>
void radix_sort_impl(Device& dev, std::vector<Key>& keys, std::vector<int>& values) {
  const std::size_t n = keys.size();
  if (n <= 1) return;
  constexpr int kBits = 8;
  constexpr int kBuckets = 1 << kBits;
  constexpr int kPasses = static_cast<int>(sizeof(Key));

  std::vector<Key> keys_tmp(n);
  std::vector<int> vals_tmp(n);
  WallTimer timer;
  Key* kin = keys.data();
  Key* kout = keys_tmp.data();
  int* vin = values.data();
  int* vout = vals_tmp.data();

  // One read computes every pass's histogram. A pass whose digit is the
  // same in every key is the identity permutation of a stable sort, so it
  // is skipped (e.g. the high index bytes of LBVH keys).
  std::size_t hists[kPasses][kBuckets] = {};
  for (std::size_t i = 0; i < n; ++i)
    for (int pass = 0; pass < kPasses; ++pass)
      ++hists[pass][(kin[i] >> (pass * kBits)) & (kBuckets - 1)];

  for (int pass = 0; pass < kPasses; ++pass) {
    const int shift = pass * kBits;
    std::size_t* hist = hists[pass];
    if (hist[(kin[0] >> shift) & (kBuckets - 1)] == n) continue;
    std::size_t run = 0;
    for (int b = 0; b < kBuckets; ++b) {
      const std::size_t c = hist[b];
      hist[b] = run;
      run += c;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t b = static_cast<std::size_t>((kin[i] >> shift) & (kBuckets - 1));
      kout[hist[b]] = kin[i];
      vout[hist[b]] = vin[i];
      ++hist[b];
    }
    std::swap(kin, kout);
    std::swap(vin, vout);
  }
  if (kin != keys.data()) {
    std::memcpy(keys.data(), kin, n * sizeof(Key));
    std::memcpy(values.data(), vin, n * sizeof(int));
  }
  // Sort is ~O(n) per pass; account it as one logical kernel.
  dev.record_kernel(n, KernelCost{.flops_per_elem = 4.0 * kPasses,
                                  .bytes_per_elem = 8.0 * kPasses},
                    timer.seconds());
}

}  // namespace

void sort_pairs(Device& dev, std::vector<std::uint32_t>& keys, std::vector<int>& values) {
  radix_sort_impl(dev, keys, values);
}

void sort_pairs64(Device& dev, std::vector<std::uint64_t>& keys, std::vector<int>& values) {
  radix_sort_impl(dev, keys, values);
}

void sort_pairs_by_float(Device& dev, std::vector<float>& keys, std::vector<int>& values) {
  // Map IEEE-754 floats to order-preserving unsigned keys: flip all bits of
  // negatives, flip only the sign bit of non-negatives.
  std::vector<std::uint32_t> ukeys(keys.size());
  for_each(
      dev, keys.size(),
      [&](std::size_t i) {
        std::uint32_t u = bit_cast<std::uint32_t>(keys[i]);
        ukeys[i] = (u & 0x80000000u) ? ~u : (u | 0x80000000u);
      },
      KernelCost{.flops_per_elem = 3, .bytes_per_elem = 8});
  radix_sort_impl(dev, ukeys, values);
  for_each(
      dev, keys.size(),
      [&](std::size_t i) {
        const std::uint32_t u = ukeys[i];
        const std::uint32_t f = (u & 0x80000000u) ? (u & 0x7FFFFFFFu) : ~u;
        keys[i] = bit_cast<float>(f);
      },
      KernelCost{.flops_per_elem = 3, .bytes_per_elem = 8});
}

std::vector<int> compact_indices(Device& dev, const std::uint8_t* flags, std::size_t n) {
  // The paper's chain (Algorithm 2, lines 18-22): reduce to count survivors,
  // exclusive scan for destinations, reverse-index to build the gather map.
  const int count = transform_reduce(
      dev, n, 0, [flags](std::size_t i) { return flags[i] ? 1 : 0; },
      [](int a, int b) { return a + b; }, KernelCost{.flops_per_elem = 1, .bytes_per_elem = 1});
  std::vector<int> scan(n);
  std::vector<int> ones(n);
  for_each(
      dev, n, [&](std::size_t i) { ones[i] = flags[i] ? 1 : 0; },
      KernelCost{.flops_per_elem = 1, .bytes_per_elem = 5});
  scan_exclusive(dev, ones.data(), scan.data(), n,
                 KernelCost{.flops_per_elem = 1, .bytes_per_elem = 8});
  std::vector<int> out(static_cast<std::size_t>(count));
  reverse_index(dev, flags, scan.data(), n, out.data());
  return out;
}

}  // namespace isr::dpp
