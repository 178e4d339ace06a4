// Shared helpers for the table/figure reproduction benches.
//
// Every binary prints the corresponding paper table's rows. Because the
// suite runs on small machines, all data/image sizes are multiplied by
// ISR_BENCH_SCALE (default 0.35; the paper's sizes correspond to 1.0).
// Absolute numbers therefore differ from the paper; the reproduction target
// is the *shape* (orderings, ratios, crossovers) — see docs/PAPER_MAP.md.
#pragma once

#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "dpp/device.hpp"
#include "math/camera.hpp"
#include "mesh/structured.hpp"
#include "mesh/trimesh.hpp"
#include "mesh/unstructured.hpp"

namespace isr::bench {

// ISR_BENCH_SCALE env var; default 0.35. Non-numeric, non-finite, or
// non-positive values warn on stderr (once) and fall back to the default.
double scale();

// Scales a paper dimension (grid edge, image edge) by scale().
int scaled(int paper_value, int min_value = 16);

void print_header(const std::string& table, const std::string& caption);
void print_rule(int width = 78);

// A blobs-field tet mesh standing in for the Chapter III data sets
// (Enzo-1M/10M, Nek5000, Enzo-80M): `edge` is the grid edge before scaling.
mesh::TetMesh ch3_dataset(const std::string& name);
std::vector<std::string> ch3_dataset_names();

// "Zoomed out" (fill 0.45) and "close up" (fill 1.6) cameras, as in the
// studies.
Camera far_camera(const AABB& bounds, int width, int height);
Camera close_camera(const AABB& bounds, int width, int height);

// Wall seconds of one call to `fn`.
template <class Fn>
double seconds_of(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// A ratio leg's result: the median over pairs of seconds(B) / seconds(A),
// i.e. A's throughput relative to B's (above 1 means A is faster).
struct PairedRatio {
  double median = 0.0;
  int pairs = 0;
};

// The time-bounded repeat loop (goma's RenderingBenchmark::run idiom): runs
// side A and side B in alternating pairs, swapping which side goes first
// each pair, until kLegBudgetSeconds of wall time is spent and at least
// kMinPairs pairs ran. Each side runs once per call and returns the seconds
// of its own timed region, so per-run set-up (a fresh cluster) stays out of
// the ratio but inside the budget.
constexpr double kLegBudgetSeconds = 0.1;
constexpr int kMinPairs = 3;
PairedRatio paired_ratio(const std::function<double()>& a, const std::function<double()>& b);

}  // namespace isr::bench
