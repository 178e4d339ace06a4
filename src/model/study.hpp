// The SC16 performance study driver (§5.4): runs the cross product of
// architecture x renderer x simulation x task count over stratified
// (data size, image size) samples, measures the model input variables and
// phase times of the slowest rank, composites the rank images over the
// virtual MPI layer, and returns the observation corpus the models are
// fitted from.
//
// The paper ran 1350 tests at up to 2880^2 images and 320^3 cells/node on
// Surface; defaults here are scaled so the suite completes on a laptop
// core. Set scale > 1 (or the ISR_STUDY_SCALE env var in the benches) for
// larger corpora.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model/perfmodel.hpp"

namespace isr::model {

struct StudyConfig {
  std::vector<std::string> archs = {"CPU1", "GPU1"};
  std::vector<RendererKind> renderers = {RendererKind::kRayTrace, RendererKind::kRasterize,
                                         RendererKind::kVolume};
  std::vector<std::string> sims = {"cloverleaf", "kripke", "lulesh"};
  std::vector<int> tasks = {1, 2, 4, 8};

  int samples_per_config = 3;  // stratified (image, data size) pairs
  int min_image = 192, max_image = 448;  // square image edge
  int min_n = 24, max_n = 52;            // per-task N (N^3 cells)
  int vr_samples = 300;                  // volume sampling density
  int sim_steps = 3;                     // cycles to advance each proxy
  std::uint64_t seed = 77;

  // Worker threads for the study fan-out: 0 defers to the ISR_THREADS env
  // var (default: all hardware threads), 1 forces serial. Every stratified
  // jitter and Device seed is a counter-based hash of its grid coordinate
  // (math/rng.hpp hash_seed), so the observation corpus is bit-identical
  // at any thread count.
  int threads = 0;
};

struct Observation {
  std::string arch;
  RendererKind renderer = RendererKind::kRayTrace;
  std::string sim;
  int tasks = 1;
  int image_size = 0;  // edge of the square image
  int n_per_task = 0;

  RenderSample sample;          // slowest rank: inputs + build/render times
  double avg_active_pixels = 0; // across ranks (compositing model input)
  double composite_seconds = 0; // simulated radix-k time
  double total_seconds = 0;     // max local + composite (Eq. 5.4 measured)
};

// Runs the study across config.threads pool workers (src/core/). With
// verbose=true, per-observation lines are buffered and printed in
// deterministic grid order (sims x tasks x samples x archs x renderers)
// regardless of execution order.
std::vector<Observation> run_study(const StudyConfig& config, bool verbose = false);

// Exact equality of two observations, every field — the determinism
// contract run_study guarantees across thread counts. The single source of
// truth for the determinism gtest (StudyDeterminism in test_study);
// extend it when adding fields to Observation.
bool observations_identical(const Observation& a, const Observation& b);

// Convenience filters for fitting.
std::vector<RenderSample> samples_for(const std::vector<Observation>& obs,
                                      const std::string& arch, RendererKind kind);
std::vector<CompositeSample> composite_samples(const std::vector<Observation>& obs);

// Env-based scale factor used by benches: ISR_STUDY_SCALE (default 1.0)
// multiplies image and data sizes.
double study_scale_from_env();

}  // namespace isr::model
