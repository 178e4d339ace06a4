#include "model/study.hpp"

#include <cmath>
#include <cstdio>

#include "comm/compositor.hpp"
#include "conduit/blueprint.hpp"
#include "core/env.hpp"
#include "core/parallel_for.hpp"
#include "core/thread_pool.hpp"
#include "dpp/profiles.hpp"
#include "math/camera.hpp"
#include "math/colormap.hpp"
#include "math/rng.hpp"
#include "mesh/external_faces.hpp"
#include "render/rast/rasterizer.hpp"
#include "render/rt/raytracer.hpp"
#include "render/vr/volume.hpp"
#include "sims/cloverleaf.hpp"
#include "sims/kripke.hpp"
#include "sims/lulesh.hpp"

namespace isr::model {

namespace {

// Below this rank count a configuration's per-rank work is dispatched
// serially: the items are too few for pool traffic to pay off, and the
// job-level fan-out already keeps the machine busy.
constexpr int kRankFanout = 4;

// Sims that produce a structured grid; everything else (lulesh, unknown
// names) takes the surface-only path. Single source of truth: both the
// grid-enumeration skip of the structured volume renderer and the
// generation dispatch in generate_rank_data branch on this.
bool sim_has_grid(const std::string& sim) {
  return sim == "cloverleaf" || sim == "kripke";
}

// Per-rank data for one (sim, tasks, n) configuration: a structured grid
// (only when sim_has_grid) plus a triangle surface from external faces
// (all sims).
struct RankData {
  mesh::StructuredGrid grid;
  mesh::TriMesh surface;
  AABB bounds;
};

std::vector<RankData> generate_rank_data(const std::string& sim, int tasks, int n,
                                         int steps, core::ThreadPool& pool) {
  std::vector<RankData> ranks(static_cast<std::size_t>(tasks));
  const auto build_rank = [&](std::size_t ri) {
    const int r = static_cast<int>(ri);
    RankData& rd = ranks[ri];
    conduit::Node data;
    if (!sim_has_grid(sim)) {  // lulesh (and any surface-only sim)
      sims::Lulesh proxy(n, r, tasks);
      for (int s = 0; s < steps; ++s) proxy.step();
      proxy.describe(data);
      const mesh::HexMesh hexes = conduit::blueprint::to_hex_mesh(data, "e");
      rd.surface = mesh::external_faces(hexes);
      rd.bounds = rd.surface.bounds();
      return;
    }
    if (sim == "cloverleaf") {
      sims::CloverLeaf proxy(n, n, n, r, tasks);
      for (int s = 0; s < steps; ++s) proxy.step();
      proxy.describe(data);
      rd.grid = conduit::blueprint::to_structured(data, "energy");
    } else {  // kripke
      sims::Kripke proxy(n, n, n, r, tasks);
      for (int s = 0; s < steps; ++s) proxy.step();
      proxy.describe(data);
      rd.grid = conduit::blueprint::to_structured(data, "phi");
    }
    rd.grid.normalize_scalars();
    rd.surface = mesh::external_faces(rd.grid);
    rd.bounds = rd.grid.bounds();
  };
  if (tasks >= kRankFanout && pool.size() > 1)
    core::parallel_for(pool, ranks.size(), build_rank);
  else
    for (std::size_t r = 0; r < ranks.size(); ++r) build_rank(r);

  // Normalize surface-only scalars across ranks (rank order: the min/max
  // reduction over floats must not depend on scheduling).
  if (!sim_has_grid(sim)) {
    float lo = 1e30f, hi = -1e30f;
    for (const RankData& rd : ranks)
      for (const float v : rd.surface.scalars) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
    if (hi > lo)
      for (RankData& rd : ranks)
        for (float& v : rd.surface.scalars) v = (v - lo) / (hi - lo);
  }
  return ranks;
}

// One point of the (sim, tasks, sample) grid: generates rank data once,
// renders it once per renderer and prices every render on every arch.
struct Job {
  std::size_t sim = 0;  // index into config.sims
  int tasks = 1;
  int sample = 0;
  int image = 0;            // stratified-jittered image edge
  int n = 0;                // stratified-jittered per-task N
  std::uint64_t hash = 0;   // hash_seed(seed, sim, tasks, sample)
  // Observation slots [first_slot, first_slot + archs x kinds), arch-major
  // (grid order); kinds counts the renderers valid for the sim.
  std::size_t first_slot = 0;
  std::size_t kinds = 0;
};

}  // namespace

bool observations_identical(const Observation& a, const Observation& b) {
  return a.arch == b.arch && a.renderer == b.renderer && a.sim == b.sim &&
         a.tasks == b.tasks && a.image_size == b.image_size &&
         a.n_per_task == b.n_per_task &&
         a.sample.inputs.objects == b.sample.inputs.objects &&
         a.sample.inputs.active_pixels == b.sample.inputs.active_pixels &&
         a.sample.inputs.visible_objects == b.sample.inputs.visible_objects &&
         a.sample.inputs.pixels_per_tri == b.sample.inputs.pixels_per_tri &&
         a.sample.inputs.samples_per_ray == b.sample.inputs.samples_per_ray &&
         a.sample.inputs.cells_spanned == b.sample.inputs.cells_spanned &&
         a.sample.build_seconds == b.sample.build_seconds &&
         a.sample.render_seconds == b.sample.render_seconds &&
         a.avg_active_pixels == b.avg_active_pixels &&
         a.composite_seconds == b.composite_seconds &&
         a.total_seconds == b.total_seconds;
}

std::vector<RenderSample> samples_for(const std::vector<Observation>& obs,
                                      const std::string& arch, RendererKind kind) {
  std::vector<RenderSample> out;
  for (const Observation& o : obs)
    if (o.arch == arch && o.renderer == kind) out.push_back(o.sample);
  return out;
}

std::vector<CompositeSample> composite_samples(const std::vector<Observation>& obs) {
  std::vector<CompositeSample> out;
  for (const Observation& o : obs) {
    CompositeSample s;
    s.avg_active_pixels = o.avg_active_pixels;
    s.pixels = static_cast<double>(o.image_size) * o.image_size;
    s.seconds = o.composite_seconds;
    out.push_back(s);
  }
  return out;
}

double study_scale_from_env() { return core::env_double("ISR_STUDY_SCALE", 1.0); }

std::vector<Observation> run_study(const StudyConfig& config, bool verbose) {
  // ---- Enumerate the whole grid up front. -------------------------------
  // Each job's stratified jitter and every Device seed derive from
  // hash_seed over the grid coordinate, so the corpus is a pure function
  // of the config — bit-identical at any thread count and in any
  // execution order.
  std::vector<Job> jobs;
  std::size_t slots = 0;
  jobs.reserve(config.sims.size() * config.tasks.size() *
               static_cast<std::size_t>(config.samples_per_config));
  for (std::size_t si = 0; si < config.sims.size(); ++si) {
    const std::string& sim = config.sims[si];
    // The paper excluded meaningless combinations (structured volume
    // renderer on unstructured data).
    const bool has_grid = sim_has_grid(sim);
    for (const int tasks : config.tasks) {
      for (int s = 0; s < config.samples_per_config; ++s) {
        Job job;
        job.sim = si;
        job.tasks = tasks;
        job.sample = s;
        job.hash = hash_seed(config.seed, sim, static_cast<std::uint64_t>(tasks),
                             static_cast<std::uint64_t>(s));
        // Stratified sampling over (image size, data size): divide each
        // range into samples_per_config strata and jitter inside them.
        Rng jitter(job.hash);
        const double stratum = (static_cast<double>(s) + jitter.next_double()) /
                               static_cast<double>(config.samples_per_config);
        const double stratum_n =
            (static_cast<double>(config.samples_per_config - 1 - s) + jitter.next_double()) /
            static_cast<double>(config.samples_per_config);
        job.image =
            config.min_image +
            static_cast<int>(stratum * static_cast<double>(config.max_image - config.min_image));
        job.n = config.min_n +
                static_cast<int>(stratum_n * static_cast<double>(config.max_n - config.min_n));
        job.first_slot = slots;
        for (const RendererKind kind : config.renderers)
          if (kind != RendererKind::kVolume || has_grid) ++job.kinds;
        slots += config.archs.size() * job.kinds;
        jobs.push_back(job);
      }
    }
  }

  if (slots == 0) return {};  // no arch, or no renderer valid for any sim

  // Pre-sized slots: jobs write disjoint ranges, so the hot path takes no
  // locks; slot order is the serial harness's grid order.
  std::vector<Observation> observations(slots);
  std::vector<std::string> lines(verbose ? slots : 0);

  core::ThreadPool pool(config.threads);

  const auto run_job = [&](std::size_t ji) {
    const Job& job = jobs[ji];
    const std::string& sim = config.sims[job.sim];
    const std::vector<RankData> ranks =
        generate_rank_data(sim, job.tasks, job.n, config.sim_steps, pool);
    AABB global_bounds;
    for (const RankData& rd : ranks) global_bounds.expand(rd.bounds);
    const Camera camera = Camera::framing(global_bounds, job.image, job.image, 0.8f);
    const ColorTable colors = ColorTable::cool_warm();
    const TransferFunction tf(colors, 0.05f, 0.3f);

    const std::size_t tasks = static_cast<std::size_t>(job.tasks);
    const std::size_t archs = config.archs.size();
    std::size_t k = 0;  // position among the job's valid renderers
    for (const RendererKind kind : config.renderers) {
      if (kind == RendererKind::kVolume && !sim_has_grid(sim)) continue;

      std::vector<comm::RankImage> images(tasks);
      // Arch-major: rank_samples[a * tasks + r] is rank r priced on arch a.
      std::vector<RenderSample> rank_samples(archs * tasks);

      const auto render_rank = [&](std::size_t r) {
        const RankData& rd = ranks[r];
        // Each rank renders once, live on the first arch, with a kernel
        // tape that every other arch replays. A Device's jitter seed is a
        // function of the grid coordinate, arch and rank — never of how
        // many renders ran before it — and a replay draws it in the live
        // kernel order, so every arch's times equal a live render's.
        const auto seed = [&](const std::string& arch) {
          return hash_seed(job.hash, arch, static_cast<std::uint64_t>(kind), r);
        };
        dpp::Device dev =
            dpp::Device::simulated(dpp::profile_by_name(config.archs[0]), seed(config.archs[0]));
        dpp::KernelTape tape;  // private to this rank's pool task
        if (archs > 1) dev.attach_tape(&tape);
        render::Image& img = images[r].image;
        images[r].view_depth = length(rd.bounds.center() - camera.position);
        render::RenderStats stats;
        double build_seconds = 0.0;

        if (kind == RendererKind::kRayTrace) {
          render::RayTracer rt(rd.surface, dev);
          build_seconds = rt.bvh_build_stats().total_seconds();
          stats = rt.render(camera, colors, img);
        } else if (kind == RendererKind::kRasterize) {
          render::Rasterizer rast(rd.surface, dev);
          stats = rast.render(camera, colors, img);
        } else {
          render::StructuredVolumeRenderer vr(rd.grid, dev);
          render::VolumeRenderOptions opt;
          opt.samples = config.vr_samples;
          stats = vr.render(camera, tf, img, opt);
        }

        RenderSample& sample = rank_samples[r];
        sample.inputs = {stats.objects,         stats.active_pixels,
                         stats.visible_objects, stats.pixels_per_tri,
                         stats.samples_per_ray, stats.cells_spanned};
        sample.build_seconds = build_seconds;
        sample.render_seconds = stats.total_seconds();

        // A RayTracer's BVH build is its tape's first segment and its
        // render the last.
        for (std::size_t a = 1; a < archs; ++a) {
          const std::string& arch = config.archs[a];
          const std::vector<dpp::TimingLog> segments =
              dpp::Device::replay(tape, dpp::profile_by_name(arch), seed(arch));
          RenderSample& priced = rank_samples[a * tasks + r];
          priced.inputs = sample.inputs;
          if (kind == RendererKind::kRayTrace)
            priced.build_seconds = segments.front().total_seconds();
          priced.render_seconds = segments.back().total_seconds();
        }
      };
      if (job.tasks >= kRankFanout && pool.size() > 1)
        core::parallel_for(pool, tasks, render_rank);
      else
        for (std::size_t r = 0; r < tasks; ++r) render_rank(r);

      // The images are the same on every arch, and compositing is priced
      // by the virtual MPI layer, not by a Device: composite once.
      comm::Comm comm(job.tasks);
      const comm::CompositeMode mode = kind == RendererKind::kVolume
                                           ? comm::CompositeMode::kVolume
                                           : comm::CompositeMode::kSurface;
      // The per-round blend fan-out nests on the study pool (idle workers
      // drain it); blends fold in a fixed order, so the corpus stays
      // bit-identical at any thread count.
      const comm::CompositeResult comp = comm::composite(
          comm, images, mode, comm::CompositeAlgorithm::kRadixK, /*radix=*/8, &pool);

      for (std::size_t a = 0; a < archs; ++a) {
        const std::string& arch = config.archs[a];
        // Slowest-rank reduction in rank order (ties keep the later rank,
        // matching the serial harness).
        RenderSample slowest;
        for (std::size_t r = 0; r < tasks; ++r) {
          const RenderSample& sample = rank_samples[a * tasks + r];
          if (sample.total_seconds() >= slowest.total_seconds()) slowest = sample;
        }

        const std::size_t slot = job.first_slot + a * job.kinds + k;
        Observation& obs = observations[slot];
        obs.arch = arch;
        obs.renderer = kind;
        obs.sim = sim;
        obs.tasks = job.tasks;
        obs.image_size = job.image;
        obs.n_per_task = job.n;
        obs.sample = slowest;
        obs.avg_active_pixels = comp.avg_active_pixels;
        obs.composite_seconds = comp.simulated_seconds;
        obs.total_seconds = slowest.total_seconds() + comp.simulated_seconds;

        if (verbose) {
          const char* fmt =
              "study %-10s %-13s %-5s tasks=%-3d img=%-4d n=%-3d local=%.4fs comp=%.4fs\n";
          // Two-pass snprintf: sims/archs are arbitrary strings, so the line
          // length is unbounded and a fixed buffer could truncate.
          const int len =
              std::snprintf(nullptr, 0, fmt, sim.c_str(), renderer_name(kind), arch.c_str(),
                            job.tasks, job.image, job.n, slowest.total_seconds(),
                            comp.simulated_seconds);
          std::string line(static_cast<std::size_t>(len > 0 ? len : 0), '\0');
          std::snprintf(&line[0], line.size() + 1, fmt, sim.c_str(), renderer_name(kind),
                        arch.c_str(), job.tasks, job.image, job.n, slowest.total_seconds(),
                        comp.simulated_seconds);
          lines[slot] = std::move(line);
        }
      }
      ++k;
    }
  };

  core::parallel_for(pool, jobs.size(), run_job);

  // Buffered verbose output, emitted in deterministic grid order.
  if (verbose)
    for (const std::string& line : lines) std::fputs(line.c_str(), stdout);

  return observations;
}

}  // namespace isr::model
