#include "common.hpp"

#include <algorithm>

#include "core/env.hpp"
#include "mesh/fields.hpp"
#include "mesh/tetrahedralize.hpp"

namespace isr::bench {

double scale() { return core::env_double("ISR_BENCH_SCALE", 0.35); }

int scaled(int paper_value, int min_value) {
  const int v = static_cast<int>(paper_value * scale());
  return v < min_value ? min_value : v;
}

void print_header(const std::string& table, const std::string& caption) {
  std::printf("\n==== %s ====\n%s\n(ISR_BENCH_SCALE=%.2f; paper sizes = 1.0)\n",
              table.c_str(), caption.c_str(), scale());
  print_rule();
}

void print_rule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

mesh::TetMesh ch3_dataset(const std::string& name) {
  // Grid edges chosen so tet counts scale like the paper's 1.3M / 10.5M /
  // 50M / 83.9M (6 tets per cell).
  int edge = 60;
  int blobs = 8;
  if (name == "Enzo-1M") edge = 60;
  if (name == "Enzo-10M") edge = 120;
  if (name == "Nek5000") { edge = 204; blobs = 20; }
  if (name == "Enzo-80M") edge = 241;
  const int n = scaled(edge, 10);
  mesh::StructuredGrid grid(n, n, n, {0, 0, 0},
                            {1.0f / n, 1.0f / n, 1.0f / n});
  mesh::fields::fill_blobs(grid, blobs, 0xE420u + static_cast<unsigned>(edge));
  return mesh::tetrahedralize(grid);
}

std::vector<std::string> ch3_dataset_names() {
  return {"Enzo-1M", "Enzo-10M", "Nek5000", "Enzo-80M"};
}

Camera far_camera(const AABB& bounds, int width, int height) {
  return Camera::framing(bounds, width, height, 0.45f);
}

Camera close_camera(const AABB& bounds, int width, int height) {
  return Camera::framing(bounds, width, height, 1.6f);
}

namespace {

// Seconds per run of one side: its runs repeat until their timed seconds
// sum to kSideBudgetSeconds, and the side reads as its median run. A run
// the host descheduled (10-90 ms among 2 ms runs, seen on a 4-vCPU guest)
// then moves neither the side nor the pair, where it would dominate a mean.
double side_seconds(const std::function<double()>& side) {
  std::vector<double> runs;
  double total = 0.0;
  while (total < kSideBudgetSeconds) {
    runs.push_back(side());
    total += runs.back();
  }
  const auto mid = runs.begin() + static_cast<std::ptrdiff_t>(runs.size() / 2);
  std::nth_element(runs.begin(), mid, runs.end());
  return *mid;
}

}  // namespace

PairedRatio paired_ratio(const std::function<double()>& a, const std::function<double()>& b) {
  std::vector<double> ratios;
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };
  while (static_cast<int>(ratios.size()) < kMinPairs || elapsed() < kLegBudgetSeconds) {
    double ta = 0.0, tb = 0.0;
    if (ratios.size() % 2 == 0) {
      ta = side_seconds(a);
      tb = side_seconds(b);
    } else {
      tb = side_seconds(b);
      ta = side_seconds(a);
    }
    ratios.push_back(ta > 0.0 ? tb / ta : 0.0);
  }
  const auto mid = ratios.begin() + static_cast<std::ptrdiff_t>(ratios.size() / 2);
  std::nth_element(ratios.begin(), mid, ratios.end());
  return {*mid, static_cast<int>(ratios.size())};
}

}  // namespace isr::bench
