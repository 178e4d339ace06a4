// The calibrate workload: the §5.4 study plus the §5.5 fit, repeated —
// the work behind cold start, lazy corpus residency and every refit. Set-up
// runs the study serially (the reference every repetition must reproduce
// bit for bit); the timed loop runs it on a 2-thread study pool.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "comm/compositor.hpp"
#include "conduit/blueprint.hpp"
#include "dpp/device.hpp"
#include "dpp/profiles.hpp"
#include "math/camera.hpp"
#include "math/colormap.hpp"
#include "math/rng.hpp"
#include "mesh/external_faces.hpp"
#include "model/study.hpp"
#include "render/rast/rasterizer.hpp"
#include "render/rt/raytracer.hpp"
#include "render/vr/volume.hpp"
#include "serve/advisor.hpp"
#include "serve/registry.hpp"
#include "sims/cloverleaf.hpp"
#include "sims/lulesh.hpp"

namespace perfbench {
namespace {

using isr::model::Observation;
using isr::model::RendererKind;
using isr::model::StudyConfig;
using isr::serve::FittedModels;
using Clock = std::chrono::steady_clock;

constexpr int kStudyThreads = 2;

// The fixed 2-sim study: cloverleaf (structured, all three renderers) and
// lulesh (unstructured, surface renderers), CPU1/GPU1, tasks {1,2,4,8}, at
// the advisor's default calibration sizes; only the sampling seed follows
// --seed.
StudyConfig calibrate_config(std::uint64_t seed, int threads) {
  StudyConfig cfg = isr::serve::default_calibration();
  cfg.sims = {"cloverleaf", "lulesh"};
  cfg.archs = {"CPU1", "GPU1"};
  cfg.renderers = {RendererKind::kRayTrace, RendererKind::kRasterize, RendererKind::kVolume};
  cfg.tasks = {1, 2, 4, 8};
  cfg.samples_per_config = 1;
  cfg.min_n = cfg.max_n = 16;
  cfg.min_image = cfg.max_image = 96;
  cfg.seed = seed;
  cfg.threads = threads;
  return cfg;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// Exact equality of two fitted bundles: every coefficient, bit for bit.
bool bundles_identical(const FittedModels& a, const FittedModels& b) {
  if (a.fingerprint != b.fingerprint || a.epoch != b.epoch || a.corpus_size != b.corpus_size ||
      a.entries.size() != b.entries.size())
    return false;
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    const FittedModels::Entry& x = a.entries[i];
    const FittedModels::Entry& y = b.entries[i];
    if (x.arch != y.arch || x.kind != y.kind || x.model.ok() != y.model.ok() ||
        !same_bits(x.model.paper_coefficients(), y.model.paper_coefficients()) ||
        !same_bits(x.model.r_squared(), y.model.r_squared()) ||
        !same_bits(x.model.residual_std(), y.model.residual_std()))
      return false;
  }
  return a.composite.ok() == b.composite.ok() &&
         same_bits(a.composite.coefficients(), b.composite.coefficients()) &&
         same_bits(a.composite.r_squared(), b.composite.r_squared());
}

bool corpora_identical(const std::vector<Observation>& a, const std::vector<Observation>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!isr::model::observations_identical(a[i], b[i])) return false;
  return true;
}

// One representative study job per sim, rebuilt from the layers' public
// calls with a span around each. It follows run_study's job: the tasks=4,
// sample-0 grid point at the config's sizes, the same hash_seed device
// seeds, lulesh's cross-rank scalar normalization, every arch x renderer
// rendered and composited. It runs serially, so its figures are one job's
// layer costs on one thread, not an attribution of the 2-thread cycle.
void representative_job(const StudyConfig& cfg, const std::string& sim, SpanLog& log) {
  const int tasks = 4;
  const int n = cfg.min_n;          // min == max: the study's only size
  const int image = cfg.min_image;
  const bool grid = sim == "cloverleaf";
  const std::uint64_t job_hash =
      isr::hash_seed(cfg.seed, sim, static_cast<std::uint64_t>(tasks), std::uint64_t{0});
  ScopedSpan job(log, grid ? "job.cloverleaf" : "job.lulesh", -1, 0);

  std::vector<isr::mesh::StructuredGrid> grids(tasks);
  std::vector<isr::mesh::TriMesh> surfaces(tasks);
  std::vector<isr::AABB> bounds(tasks);
  for (int r = 0; r < tasks; ++r) {
    isr::conduit::Node data;
    if (grid) {
      int span = log.open("sims.cloverleaf.step", job.id(), 0);
      isr::sims::CloverLeaf proxy(n, n, n, r, tasks);
      for (int s = 0; s < cfg.sim_steps; ++s) proxy.step();
      log.close(span);
      span = log.open("conduit.blueprint", job.id(), 0);
      proxy.describe(data);
      grids[r] = isr::conduit::blueprint::to_structured(data, "energy");
      grids[r].normalize_scalars();
      log.close(span);
      span = log.open("mesh.external_faces", job.id(), 0);
      surfaces[r] = isr::mesh::external_faces(grids[r]);
      log.close(span);
      bounds[r] = grids[r].bounds();
    } else {
      int span = log.open("sims.lulesh.step", job.id(), 0);
      isr::sims::Lulesh proxy(n, r, tasks);
      for (int s = 0; s < cfg.sim_steps; ++s) proxy.step();
      log.close(span);
      span = log.open("conduit.blueprint", job.id(), 0);
      proxy.describe(data);
      const isr::mesh::HexMesh hexes = isr::conduit::blueprint::to_hex_mesh(data, "e");
      log.close(span);
      span = log.open("mesh.external_faces", job.id(), 0);
      surfaces[r] = isr::mesh::external_faces(hexes);
      log.close(span);
      bounds[r] = surfaces[r].bounds();
    }
  }
  if (!grid) {
    // Surface-only scalars are normalized across ranks, as run_study does.
    ScopedSpan span(log, "mesh.normalize", job.id(), 0);
    float lo = 1e30f, hi = -1e30f;
    for (const isr::mesh::TriMesh& m : surfaces)
      for (const float v : m.scalars) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
    if (hi > lo)
      for (isr::mesh::TriMesh& m : surfaces)
        for (float& v : m.scalars) v = (v - lo) / (hi - lo);
  }

  isr::AABB global;
  for (const isr::AABB& b : bounds) global.expand(b);
  const isr::Camera camera = isr::Camera::framing(global, image, image, 0.8f);
  const isr::ColorTable colors = isr::ColorTable::cool_warm();
  const isr::TransferFunction tf(colors, 0.05f, 0.3f);
  for (const std::string& arch : cfg.archs)
    for (const RendererKind kind : cfg.renderers) {
      if (kind == RendererKind::kVolume && !grid) continue;
      std::vector<isr::comm::RankImage> images(tasks);
      for (int r = 0; r < tasks; ++r) {
        isr::dpp::Device dev = isr::dpp::Device::simulated(
            isr::dpp::profile_by_name(arch),
            isr::hash_seed(job_hash, arch, static_cast<std::uint64_t>(kind),
                           static_cast<std::size_t>(r)));
        images[r].view_depth = isr::length(bounds[r].center() - camera.position);
        if (kind == RendererKind::kRayTrace) {
          int build = log.open("render.rt.build", job.id(), 0);
          isr::render::RayTracer rt(surfaces[r], dev);
          log.close(build);
          ScopedSpan render(log, "render.rt.render", job.id(), 0);
          rt.render(camera, colors, images[r].image);
        } else if (kind == RendererKind::kRasterize) {
          ScopedSpan render(log, "render.rast.render", job.id(), 0);
          isr::render::Rasterizer rast(surfaces[r], dev);
          rast.render(camera, colors, images[r].image);
        } else {
          ScopedSpan render(log, "render.vr.render", job.id(), 0);
          isr::render::StructuredVolumeRenderer vr(grids[r], dev);
          isr::render::VolumeRenderOptions opt;
          opt.samples = cfg.vr_samples;
          vr.render(camera, tf, images[r].image, opt);
        }
      }
      ScopedSpan comp(log, "comm.composite", job.id(), 0);
      isr::comm::Comm comm(tasks);
      isr::comm::composite(comm, images,
                           kind == RendererKind::kVolume ? isr::comm::CompositeMode::kVolume
                                                         : isr::comm::CompositeMode::kSurface,
                           isr::comm::CompositeAlgorithm::kRadixK, 8);
    }
}

}  // namespace

Result run_calibrate(const Options& opt) {
  Result result;
  const StudyConfig serial = calibrate_config(opt.seed, 1);
  const StudyConfig parallel = calibrate_config(opt.seed, kStudyThreads);

  // Set-up: the 1-thread reference study + fit, kCalibrateSetupReps times;
  // every repetition must agree with the first.
  std::vector<Observation> reference;
  FittedModels reference_fit;
  CycleStats st(1, HostReading::kAll);
  for (int rep = 0; rep < kCalibrateSetupReps; ++rep) {
    st.probe();
    const Clock::time_point t0 = Clock::now();
    std::vector<Observation> obs = isr::model::run_study(serial);
    FittedModels fit = isr::serve::fit_bundle(serial, obs);
    st.add_setup(seconds_since(t0));
    if (rep == 0) {
      reference = std::move(obs);
      reference_fit = std::move(fit);
    } else if (!corpora_identical(obs, reference) || !bundles_identical(fit, reference_fit)) {
      result.fail("serial reference study is not reproducible");
    }
  }
  if (reference.empty()) result.fail("the reference study produced no observations");

  // One window spanning the whole run: a repetition is long enough that
  // 1-second windows would hold too few for the p90 rule.
  SpanLog log(false);
  const Clock::time_point start = Clock::now();
  for (std::uint64_t i = 0; keep_running(seconds_since(start), opt, st); ++i) {
    const bool traced = opt.trace && i % 2 == 0;
    log.set_enabled(traced);
    st.probe();
    const Clock::time_point t0 = Clock::now();
    const int top = log.open("cycle", -1, i);
    int span = log.open("model.run_study", top, i);
    const std::vector<Observation> obs = isr::model::run_study(parallel);
    log.close(span);
    span = log.open("serve.fit_bundle", top, i);
    const FittedModels fit = isr::serve::fit_bundle(parallel, obs);
    log.close(span);
    log.close(top);
    st.add(traced, 0, seconds_since(t0), static_cast<long>(obs.size()));
    ++result.attempted;
    if (!corpora_identical(obs, reference) || !bundles_identical(fit, reference_fit)) {
      ++result.failed;
      result.fail("repetition " + std::to_string(i) +
                  " differs from the 1-thread reference corpus or fit");
    }
  }
  log.set_enabled(false);

  report_cycles(st, opt, result);
  auto& v = result.values;
  result.stamp["observations_per_cycle"] = std::to_string(reference.size());
  result.stamp["study_threads"] = std::to_string(kStudyThreads);

  if (opt.trace) {
    log.set_enabled(true);
    representative_job(serial, "cloverleaf", log);
    representative_job(serial, "lulesh", log);
    log.set_enabled(false);
    const std::map<std::string, LayerTime> t = layer_times(log.spans());
    const auto total_ms = [&](const char* name) {
      const auto it = t.find(name);
      return it == t.end() ? 0.0 : it->second.total_us / 1e3;
    };
    const double cycles = static_cast<double>(std::max(1L, st.traced_cycles));
    const double cycle_ms = total_ms("cycle");
    if (cycle_ms > 0)
      v["trace.child_coverage"] =
          (total_ms("model.run_study") + total_ms("serve.fit_bundle")) / cycle_ms;
    v["model.run_study.ms"] = total_ms("model.run_study") / cycles;
    v["serve.fit_bundle.ms"] = total_ms("serve.fit_bundle") / cycles;
    // Pool efficiency: the 2-thread study rate over twice the serial
    // set-up rate (1.0 = perfect scaling).
    const double serial_rate =
        static_cast<double>(reference.size()) / quantile(st.raw_setup_s, 0.5);
    if (st.raw_busy_s > 0)
      v["core.pool.efficiency"] =
          (static_cast<double>(st.ops) / st.raw_busy_s) / (kStudyThreads * serial_rate);
    v["sims.cloverleaf.step_ms"] = total_ms("sims.cloverleaf.step");
    v["sims.lulesh.step_ms"] = total_ms("sims.lulesh.step");
    v["conduit.blueprint_ms"] = total_ms("conduit.blueprint");
    v["mesh.external_faces_ms"] = total_ms("mesh.external_faces");
    v["render.rt.build_ms"] = total_ms("render.rt.build");
    v["render.rt.render_ms"] = total_ms("render.rt.render");
    v["render.rast.render_ms"] = total_ms("render.rast.render");
    v["render.vr.render_ms"] = total_ms("render.vr.render");
    v["comm.composite_ms"] = total_ms("comm.composite");
    const double job_ms = total_ms("job.cloverleaf") + total_ms("job.lulesh");
    v["calibrate.job_ms"] = job_ms;
    // Each layer group's share of the two serial jobs.
    if (job_ms > 0) {
      v["job.share.sims"] =
          (total_ms("sims.cloverleaf.step") + total_ms("sims.lulesh.step")) / job_ms;
      v["job.share.conduit"] = total_ms("conduit.blueprint") / job_ms;
      v["job.share.mesh"] = (total_ms("mesh.external_faces") + total_ms("mesh.normalize")) / job_ms;
      v["job.share.render"] = (total_ms("render.rt.build") + total_ms("render.rt.render") +
                               total_ms("render.rast.render") + total_ms("render.vr.render")) /
                              job_ms;
      v["job.share.comm"] = total_ms("comm.composite") / job_ms;
    }
  }
  result.spans = log.spans();
  return result;
}

}  // namespace perfbench
