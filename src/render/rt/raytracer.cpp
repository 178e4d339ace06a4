#include "render/rt/raytracer.hpp"

#include <cmath>

#include "dpp/primitives.hpp"
#include "math/morton.hpp"
#include "math/rng.hpp"

namespace isr::render {

namespace {

// Jittered 2x2 sub-pixel offsets for the anti-aliasing workload.
constexpr Vec2f kAaOffsets[4] = {{0.25f, 0.25f}, {0.75f, 0.25f}, {0.25f, 0.75f}, {0.75f, 0.75f}};

struct Shading {
  Vec3f light_dir;       // toward the light
  Vec3f view_pos;
  float ambient = 0.25f;
  float diffuse = 0.65f;
  float specular = 0.20f;
  float shininess = 24.0f;
};

Vec3f blinn_phong(const Shading& sh, Vec3f point, Vec3f normal, Vec3f base_color,
                  float occlusion, float shadow) {
  Vec3f n = normal;
  const Vec3f view = normalize(sh.view_pos - point);
  if (dot(n, view) < 0.0f) n = -n;  // two-sided shading for surfaces
  const float diff = std::max(0.0f, dot(n, sh.light_dir));
  const Vec3f half = normalize(sh.light_dir + view);
  const float spec = std::pow(std::max(0.0f, dot(n, half)), sh.shininess);
  const float direct = shadow * (sh.diffuse * diff + sh.specular * spec);
  const float lit = sh.ambient * occlusion + direct;
  return {clamp01(base_color.x * lit), clamp01(base_color.y * lit), clamp01(base_color.z * lit)};
}

}  // namespace

RayTracer::RayTracer(const mesh::TriMesh& mesh, dpp::Device& dev) : mesh_(mesh), dev_(dev) {
  dev_.reset_timings();
  {
    dpp::ScopedPhase phase(dev_, "bvh_build");
    bvh_ = build_lbvh(dev_, mesh_);
  }
  build_stats_.objects = static_cast<double>(mesh_.triangle_count());
  build_stats_.timings = dev_.timings();
  dev_.reset_timings();
}

RenderStats RayTracer::render(const Camera& camera, const ColorTable& colors, Image& out,
                              const RayTracerOptions& options) {
  using Workload = RayTracerOptions::Workload;
  const bool full = options.workload == Workload::kFull;
  const bool aa = full && options.anti_alias;
  const int rays_per_pixel = aa ? 4 : 1;

  dev_.reset_timings();
  out.resize(camera.width, camera.height);
  out.clear(options.background);

  const std::size_t n_pixels = static_cast<std::size_t>(camera.pixel_count());
  const std::size_t n_rays = n_pixels * static_cast<std::size_t>(rays_per_pixel);
  const std::size_t n_objects = mesh_.triangle_count();
  RenderStats stats;
  stats.objects = static_cast<double>(n_objects);
  if (n_objects == 0) {
    stats.timings = dev_.timings();
    return stats;
  }

  // --- Ray generation (map over rays, Morton pixel order) -----------------
  std::vector<Vec3f> dirs(n_rays);
  std::vector<int> ray_pixel(n_rays);
  {
    dpp::ScopedPhase phase(dev_, "trace");
    // Pixel traversal order follows the Morton curve.
    std::vector<int> pixel_order;
    morton_pixel_order(camera.width, camera.height, pixel_order);

    const Camera::RayFrame frame = camera.ray_frame();
    dpp::for_each(
        dev_, n_rays,
        [&](std::size_t r) {
          const std::size_t p = r / static_cast<std::size_t>(rays_per_pixel);
          const int sub = static_cast<int>(r % static_cast<std::size_t>(rays_per_pixel));
          const int pixel = pixel_order[p];
          const int px = pixel % camera.width;
          const int py = pixel / camera.width;
          const Vec2f off = aa ? kAaOffsets[sub] : Vec2f{0.5f, 0.5f};
          dirs[r] = Camera::ray_direction(frame, static_cast<float>(px),
                                          static_cast<float>(py), off.x, off.y);
          ray_pixel[r] = pixel;
        },
        dpp::KernelCost{.flops_per_elem = 28, .bytes_per_elem = 20});
  }

  // --- Traversal + intersection (map; cost measured from real work) -------
  std::vector<HitResult> hits(n_rays);
  {
    dpp::ScopedPhase phase(dev_, "trace");
    dpp::for_each_tally(
        dev_, n_rays,
        [&](std::size_t r) {
          long long steps = 0;
          hits[r] = intersect_closest(bvh_, mesh_, camera.position, dirs[r], camera.znear,
                                      camera.zfar, steps);
          return steps;
        },
        [&](long long total_steps) {
          const double avg = static_cast<double>(total_steps) /
                             static_cast<double>(std::max<std::size_t>(n_rays, 1));
          // ~12 flops per node visit / triangle test; divergence reflects
          // the incoherent control flow of the if-if traversal.
          return dpp::KernelCost{.flops_per_elem = 12.0 * avg,
                                 .bytes_per_elem = 24.0 + 4.0 * avg,
                                 .divergence = 1.6};
        });
  }

  // Active pixels: pixels whose primary ray(s) hit anything.
  std::size_t n_hit_rays = 0;
  {
    std::vector<std::uint8_t> pixel_hit(n_pixels, 0);
    for (std::size_t r = 0; r < n_rays; ++r)
      if (hits[r].hit()) {
        ++n_hit_rays;
        pixel_hit[static_cast<std::size_t>(ray_pixel[r])] = 1;
      }
    std::size_t ap = 0;
    for (const std::uint8_t h : pixel_hit) ap += h;
    stats.active_pixels = static_cast<double>(ap);
  }

  if (options.workload == Workload::kIntersect) {
    // WORKLOAD1: distance-only output (normalized inverse depth as gray).
    dpp::ScopedPhase phase(dev_, "shade");
    dpp::for_each(
        dev_, n_rays,
        [&](std::size_t r) {
          if (!hits[r].hit()) return;
          const float g = 1.0f / (1.0f + 0.1f * hits[r].t);
          const std::size_t p = static_cast<std::size_t>(ray_pixel[r]);
          out.pixels()[p] = {g, g, g, 1.0f};
          out.depths()[p] = hits[r].t;
        },
        dpp::KernelCost{.flops_per_elem = 6, .bytes_per_elem = 28});
    stats.timings = dev_.timings();
    return stats;
  }

  // --- Optional stream compaction of dead rays ----------------------------
  // Compacted indices into the ray arrays; without compaction every ray is
  // live and ray k is ray k.
  const bool compacted = full && options.stream_compaction;
  std::vector<int> live;
  if (compacted) {
    dpp::ScopedPhase phase(dev_, "trace");
    std::vector<std::uint8_t> alive(n_rays);
    dpp::for_each(
        dev_, n_rays, [&](std::size_t r) { alive[r] = hits[r].hit() ? 1 : 0; },
        dpp::KernelCost{.flops_per_elem = 1, .bytes_per_elem = 9});
    live = dpp::compact_indices(dev_, alive.data(), n_rays);
  }
  const std::size_t n_live = compacted ? live.size() : n_rays;
  const auto ray_of = [&](std::size_t k) {
    return compacted ? static_cast<std::size_t>(live[k]) : k;
  };
  const double live_fraction =
      n_live > 0 ? static_cast<double>(n_hit_rays) / static_cast<double>(n_live) : 1.0;

  // --- Hit attributes: position, interpolated normal / scalar -------------
  std::vector<Vec3f> hit_points(n_live);
  std::vector<Vec3f> hit_normals(n_live);
  std::vector<float> hit_scalars(n_live);
  {
    dpp::ScopedPhase phase(dev_, "shade");
    dpp::for_each(
        dev_, n_live,
        [&](std::size_t k) {
          const HitResult& h = hits[ray_of(k)];
          if (!h.hit()) {
            hit_normals[k] = {0, 0, 1};
            return;
          }
          const std::size_t tri = static_cast<std::size_t>(h.prim);
          const int i0 = mesh_.tris[tri * 3 + 0];
          const int i1 = mesh_.tris[tri * 3 + 1];
          const int i2 = mesh_.tris[tri * 3 + 2];
          const float w0 = 1.0f - h.u - h.v;
          hit_points[k] = camera.position + dirs[ray_of(k)] * h.t;
          if (!mesh_.normals.empty()) {
            hit_normals[k] = normalize(mesh_.normals[static_cast<std::size_t>(i0)] * w0 +
                                       mesh_.normals[static_cast<std::size_t>(i1)] * h.u +
                                       mesh_.normals[static_cast<std::size_t>(i2)] * h.v);
          } else {
            const Vec3f a = mesh_.points[static_cast<std::size_t>(i0)];
            const Vec3f b = mesh_.points[static_cast<std::size_t>(i1)];
            const Vec3f c = mesh_.points[static_cast<std::size_t>(i2)];
            hit_normals[k] = normalize(cross(b - a, c - a));
          }
          if (!mesh_.scalars.empty())
            hit_scalars[k] = mesh_.scalars[static_cast<std::size_t>(i0)] * w0 +
                             mesh_.scalars[static_cast<std::size_t>(i1)] * h.u +
                             mesh_.scalars[static_cast<std::size_t>(i2)] * h.v;
        },
        dpp::KernelCost{.flops_per_elem = 40 * live_fraction,
                        .bytes_per_elem = 12 + 108 * live_fraction});
  }

  // --- Ambient occlusion (scatter to samples, trace, gather) --------------
  // Empty when off: every hit is unoccluded.
  std::vector<float> occlusion;
  if (full && options.ao_samples > 0) {
    occlusion.resize(n_live);
    dpp::ScopedPhase phase(dev_, "trace");
    const std::size_t s_per = static_cast<std::size_t>(options.ao_samples);
    const std::size_t n_occ = n_live * s_per;
    const float max_dist =
        options.ao_distance_fraction * length(bvh_.scene_bounds.extent());
    std::vector<Vec3f> occ_dirs(n_occ);
    dpp::for_each(
        dev_, n_occ,
        [&](std::size_t s) {
          const std::size_t k = s / s_per;
          Rng rng(0x9E3779B9u * (static_cast<std::uint64_t>(ray_of(k)) + 1) + s % s_per);
          occ_dirs[s] = sample_hemisphere(hit_normals[k], rng.next_float(), rng.next_float());
        },
        dpp::KernelCost{.flops_per_elem = 30, .bytes_per_elem = 28});

    std::vector<std::uint8_t> occluded(n_occ, 0);
    dpp::for_each_tally(
        dev_, n_occ,
        [&](std::size_t s) {
          const std::size_t k = s / s_per;
          long long steps = 0;
          if (!hits[ray_of(k)].hit()) return steps;
          const Vec3f origin = hit_points[k] + hit_normals[k] * (1e-4f * max_dist);
          occluded[s] =
              intersect_any(bvh_, mesh_, origin, occ_dirs[s], 0.0f, max_dist, steps) ? 1 : 0;
          return steps;
        },
        [&](long long occ_steps) {
          const double avg = static_cast<double>(occ_steps) /
                             static_cast<double>(std::max<std::size_t>(n_occ, 1));
          return dpp::KernelCost{.flops_per_elem = 12.0 * avg,
                                 .bytes_per_elem = 24.0 + 4.0 * avg,
                                 .divergence = 1.8};
        });

    dpp::for_each(
        dev_, n_live,
        [&](std::size_t k) {
          int hits_count = 0;
          for (std::size_t s = 0; s < s_per; ++s) hits_count += occluded[k * s_per + s];
          occlusion[k] =
              1.0f - static_cast<float>(hits_count) / static_cast<float>(s_per);
        },
        dpp::KernelCost{.flops_per_elem = static_cast<double>(s_per) + 2.0,
                        .bytes_per_elem = static_cast<double>(s_per) + 8.0});
  }

  // --- Shadows -------------------------------------------------------------
  const Vec3f light_dir = normalize(camera.forward() * -1.0f +
                                    normalize(cross(camera.forward(), camera.up)) * 0.5f +
                                    camera.up * 0.8f);
  // Empty when off: every hit is lit.
  std::vector<float> shadow;
  if (full && options.shadows) {
    shadow.assign(n_live, 1.0f);
    dpp::ScopedPhase phase(dev_, "trace");
    dpp::for_each_tally(
        dev_, n_live,
        [&](std::size_t k) {
          long long steps = 0;
          if (!hits[ray_of(k)].hit()) return steps;
          const Vec3f origin = hit_points[k] + hit_normals[k] * 1e-4f;
          if (intersect_any(bvh_, mesh_, origin, light_dir, 1e-4f, camera.zfar, steps))
            shadow[k] = 0.35f;  // attenuated, not black: direct term only
          return steps;
        },
        [&](long long sh_steps) {
          const double avg = static_cast<double>(sh_steps) /
                             static_cast<double>(std::max<std::size_t>(n_live, 1));
          return dpp::KernelCost{.flops_per_elem = 12.0 * avg,
                                 .bytes_per_elem = 24.0 + 4.0 * avg,
                                 .divergence = 1.6};
        });
  }

  // --- Shading (map) + optional one-generation specular reflection --------
  std::vector<Vec3f> ray_color(n_rays, {0, 0, 0});
  std::vector<std::uint8_t> ray_valid(n_rays, 0);
  const Shading sh{light_dir, camera.position};
  {
    dpp::ScopedPhase phase(dev_, "shade");
    dpp::for_each(
        dev_, n_live,
        [&](std::size_t k) {
          const std::size_t r = ray_of(k);
          if (!hits[r].hit()) return;
          const Vec3f base = colors.sample(hit_scalars[k]);
          ray_color[r] = blinn_phong(sh, hit_points[k], hit_normals[k], base,
                                     occlusion.empty() ? 1.0f : occlusion[k],
                                     shadow.empty() ? 1.0f : shadow[k]);
          ray_valid[r] = 1;
        },
        dpp::KernelCost{.flops_per_elem = 45 * live_fraction,
                        .bytes_per_elem = 8 + 72 * live_fraction});
  }

  if (options.max_specular_depth > 0 && options.specular_reflectance > 0.0f) {
    // One reflection generation per depth level; rays are regenerated from
    // the previous hit set (paper: reflected rays processed per generation).
    dpp::ScopedPhase phase(dev_, "trace");
    dpp::for_each_tally(
        dev_, n_live,
        [&](std::size_t k) {
          const std::size_t r = ray_of(k);
          long long steps = 0;
          if (!hits[r].hit()) return steps;
          const Vec3f in_dir = dirs[r];
          const Vec3f n = hit_normals[k];
          const Vec3f refl = in_dir - n * (2.0f * dot(in_dir, n));
          const Vec3f origin = hit_points[k] + n * 1e-4f;
          HitResult h2 = intersect_closest(bvh_, mesh_, origin, refl, 1e-4f, camera.zfar, steps);
          if (!h2.hit()) return steps;
          const std::size_t tri = static_cast<std::size_t>(h2.prim);
          const int i0 = mesh_.tris[tri * 3];
          float s2 = mesh_.scalars.empty() ? 0.5f : mesh_.scalars[static_cast<std::size_t>(i0)];
          const Vec3f c2 = colors.sample(s2);
          ray_color[r] = lerp(ray_color[r], c2, options.specular_reflectance);
          return steps;
        },
        [&](long long rf_steps) {
          const double avg = static_cast<double>(rf_steps) /
                             static_cast<double>(std::max<std::size_t>(n_live, 1));
          return dpp::KernelCost{.flops_per_elem = 12.0 * avg,
                                 .bytes_per_elem = 24.0 + 4.0 * avg,
                                 .divergence = 2.0};
        });
  }

  // --- Resolve to the framebuffer (gather for anti-aliasing) --------------
  {
    dpp::ScopedPhase phase(dev_, "shade");
    // Accumulate per-pixel; serial-safe because each ray maps to one pixel
    // and we iterate rays grouped by pixel below.
    std::vector<Vec3f> accum(n_pixels, {0, 0, 0});
    std::vector<float> weight(n_pixels, 0.0f);
    std::vector<float> min_t(n_pixels, kFarDepth);
    for (std::size_t r = 0; r < n_rays; ++r) {
      const std::size_t p = static_cast<std::size_t>(ray_pixel[r]);
      if (!ray_valid[r]) continue;
      accum[p] += ray_color[r];
      weight[p] += 1.0f;
      min_t[p] = std::min(min_t[p], hits[r].t);
    }
    dpp::for_each(
        dev_, n_pixels,
        [&](std::size_t p) {
          if (weight[p] <= 0.0f) return;
          // Blend hit coverage against the background for edge anti-aliasing.
          const float cov = weight[p] / static_cast<float>(rays_per_pixel);
          const Vec3f c = accum[p] / weight[p];
          const Vec4f bg = options.background;
          out.pixels()[p] = {c.x * cov + bg.x * (1 - cov), c.y * cov + bg.y * (1 - cov),
                             c.z * cov + bg.z * (1 - cov), std::max(cov, bg.w)};
          out.depths()[p] = min_t[p];
        },
        dpp::KernelCost{.flops_per_elem = 12, .bytes_per_elem = 44});
  }

  stats.timings = dev_.timings();
  return stats;
}

}  // namespace isr::render
