#include "render/rast/rasterizer.hpp"

#include <atomic>
#include <cmath>

#include "dpp/primitives.hpp"
#include "math/bitcast.hpp"

namespace isr::render {

namespace {

constexpr std::uint64_t kFarPacked = ~0ull;

std::uint32_t pack_rgba8(Vec3f c, float a) {
  const auto b = [](float v) { return static_cast<std::uint32_t>(clamp01(v) * 255.0f + 0.5f); };
  return (b(a) << 24) | (b(c.z) << 16) | (b(c.y) << 8) | b(c.x);
}

Vec4f unpack_rgba8(std::uint32_t p) {
  return {static_cast<float>(p & 0xFF) / 255.0f, static_cast<float>((p >> 8) & 0xFF) / 255.0f,
          static_cast<float>((p >> 16) & 0xFF) / 255.0f,
          static_cast<float>((p >> 24) & 0xFF) / 255.0f};
}

}  // namespace

RenderStats Rasterizer::render(const Camera& camera, const ColorTable& colors, Image& out,
                               const RasterizerOptions& options) {
  dev_.reset_timings();
  out.resize(camera.width, camera.height);
  out.clear(options.background);

  RenderStats stats;
  const std::size_t n_tris = mesh_.triangle_count();
  stats.objects = static_cast<double>(n_tris);
  if (n_tris == 0) {
    stats.timings = dev_.timings();
    return stats;
  }

  const Mat4 vp = camera.view_projection();
  const float w = static_cast<float>(camera.width);
  const float h = static_cast<float>(camera.height);

  // --- Cull stage: transform and flag (map), then compact ----------------
  struct ScreenTri {
    Vec2f p[3];
    float depth[3];   // eye-space w (distance along view axis)
    float inv_w[3];
  };
  std::vector<ScreenTri> screen(n_tris);
  std::vector<std::uint8_t> visible(n_tris, 0);
  {
    dpp::ScopedPhase phase(dev_, "cull");
    dpp::for_each(
        dev_, n_tris,
        [&](std::size_t t) {
          ScreenTri st;
          bool ok = true;
          for (int c = 0; c < 3 && ok; ++c) {
            const Vec4f s = camera.world_to_screen(mesh_.vertex(t, c), vp);
            if (s.w <= camera.znear) {
              ok = false;
              break;
            }
            st.p[c] = {s.x, s.y};
            st.depth[c] = s.z;
            st.inv_w[c] = 1.0f / s.w;
          }
          if (!ok) return;
          // Viewport reject.
          const float min_x = std::min({st.p[0].x, st.p[1].x, st.p[2].x});
          const float max_x = std::max({st.p[0].x, st.p[1].x, st.p[2].x});
          const float min_y = std::min({st.p[0].y, st.p[1].y, st.p[2].y});
          const float max_y = std::max({st.p[0].y, st.p[1].y, st.p[2].y});
          if (max_x < 0 || min_x >= w || max_y < 0 || min_y >= h) return;
          if (options.backface_cull) {
            const float area = (st.p[1].x - st.p[0].x) * (st.p[2].y - st.p[0].y) -
                               (st.p[2].x - st.p[0].x) * (st.p[1].y - st.p[0].y);
            if (area <= 0) return;
          }
          screen[t] = st;
          visible[t] = 1;
        },
        dpp::KernelCost{.flops_per_elem = 190, .bytes_per_elem = 300});
  }

  std::vector<int> vis_ids;
  {
    dpp::ScopedPhase phase(dev_, "cull");
    vis_ids = dpp::compact_indices(dev_, visible.data(), n_tris);
  }
  stats.visible_objects = static_cast<double>(vis_ids.size());

  // --- Raster stage: barycentric sampling with atomic depth test ---------
  const std::size_t n_pixels = out.pixel_count();
  std::vector<std::atomic<std::uint64_t>> fb(n_pixels);
  for (auto& c : fb) c.store(kFarPacked, std::memory_order_relaxed);

  // Shading setup shared with the ray tracer's Blinn-Phong so the two
  // renderers produce comparable pictures.
  const Vec3f light_dir = normalize(camera.forward() * -1.0f +
                                    normalize(cross(camera.forward(), camera.up)) * 0.5f +
                                    camera.up * 0.8f);

  long long pixels_considered = 0;
  {
    dpp::ScopedPhase phase(dev_, "raster");
    dpp::for_each_tally(
        dev_, vis_ids.size(),
        [&](std::size_t k) {
          const std::size_t t = static_cast<std::size_t>(vis_ids[k]);
          const ScreenTri& st = screen[t];
          const int x0 = std::max(0, static_cast<int>(std::floor(
                                         std::min({st.p[0].x, st.p[1].x, st.p[2].x}))));
          const int x1 = std::min(camera.width - 1,
                                  static_cast<int>(std::ceil(
                                      std::max({st.p[0].x, st.p[1].x, st.p[2].x}))));
          const int y0 = std::max(0, static_cast<int>(std::floor(
                                         std::min({st.p[0].y, st.p[1].y, st.p[2].y}))));
          const int y1 = std::min(camera.height - 1,
                                  static_cast<int>(std::ceil(
                                      std::max({st.p[0].y, st.p[1].y, st.p[2].y}))));
          if (x1 < x0 || y1 < y0) return 0ll;
          const long long considered = static_cast<long long>(x1 - x0 + 1) * (y1 - y0 + 1);

          const Vec2f a = st.p[0], b = st.p[1], c = st.p[2];
          const float area = (b.x - a.x) * (c.y - a.y) - (c.x - a.x) * (b.y - a.y);
          if (std::abs(area) < 1e-12f) return considered;
          const float inv_area = 1.0f / area;

          const int i0 = mesh_.tris[t * 3 + 0];
          const int i1 = mesh_.tris[t * 3 + 1];
          const int i2 = mesh_.tris[t * 3 + 2];

          for (int y = y0; y <= y1; ++y) {
            for (int x = x0; x <= x1; ++x) {
              const Vec2f p = {static_cast<float>(x) + 0.5f, static_cast<float>(y) + 0.5f};
              // Edge functions -> screen-space barycentrics.
              const float w0 =
                  ((b.x - p.x) * (c.y - p.y) - (c.x - p.x) * (b.y - p.y)) * inv_area;
              const float w1 =
                  ((c.x - p.x) * (a.y - p.y) - (a.x - p.x) * (c.y - p.y)) * inv_area;
              const float w2 = 1.0f - w0 - w1;
              if (w0 < 0 || w1 < 0 || w2 < 0) continue;
              // Perspective-correct depth.
              const float iw = w0 * st.inv_w[0] + w1 * st.inv_w[1] + w2 * st.inv_w[2];
              const float depth = 1.0f / iw;

              // Atomic min on packed (depth | rgba8): positive float bits
              // are monotonic, so integer compare orders by depth. A
              // fragment whose depth half alone exceeds the stored value
              // can never win the min, so it is rejected before shading;
              // stored values only fall, so a stale read rejects nothing
              // that could win.
              const std::uint64_t depth_key =
                  static_cast<std::uint64_t>(bit_cast<std::uint32_t>(depth)) << 32;
              auto& cell = fb[static_cast<std::size_t>(y) * static_cast<std::size_t>(camera.width) + x];
              std::uint64_t cur = cell.load(std::memory_order_relaxed);
              if (depth_key > cur) continue;

              // Perspective-correct weights.
              const float pw0 = w0 * st.inv_w[0] / iw;
              const float pw1 = w1 * st.inv_w[1] / iw;
              const float pw2 = 1.0f - pw0 - pw1;

              // Interpolate attributes and shade.
              float scalar = 0.5f;
              if (!mesh_.scalars.empty())
                scalar = pw0 * mesh_.scalars[static_cast<std::size_t>(i0)] +
                         pw1 * mesh_.scalars[static_cast<std::size_t>(i1)] +
                         pw2 * mesh_.scalars[static_cast<std::size_t>(i2)];
              Vec3f normal{0, 0, 1};
              if (!mesh_.normals.empty())
                normal = normalize(mesh_.normals[static_cast<std::size_t>(i0)] * pw0 +
                                   mesh_.normals[static_cast<std::size_t>(i1)] * pw1 +
                                   mesh_.normals[static_cast<std::size_t>(i2)] * pw2);
              const Vec3f world = mesh_.points[static_cast<std::size_t>(i0)] * pw0 +
                                  mesh_.points[static_cast<std::size_t>(i1)] * pw1 +
                                  mesh_.points[static_cast<std::size_t>(i2)] * pw2;

              Vec3f n = normal;
              const Vec3f view = normalize(camera.position - world);
              if (dot(n, view) < 0.0f) n = -n;
              const float diff = std::max(0.0f, dot(n, light_dir));
              const Vec3f half = normalize(light_dir + view);
              const float spec = std::pow(std::max(0.0f, dot(n, half)), 24.0f);
              const Vec3f base = colors.sample(scalar);
              const float lit = 0.25f + 0.65f * diff + 0.20f * spec;
              const Vec3f rgb = {clamp01(base.x * lit), clamp01(base.y * lit),
                                 clamp01(base.z * lit)};

              const std::uint64_t packed = depth_key | pack_rgba8(rgb, 1.0f);
              while (packed < cur &&
                     !cell.compare_exchange_weak(cur, packed, std::memory_order_relaxed)) {
              }
            }
          }
          return considered;
        },
        [&](long long total) {
          pixels_considered = total;
          const double vo = static_cast<double>(std::max<std::size_t>(vis_ids.size(), 1));
          const double ppt = static_cast<double>(total) / vo;
          return dpp::KernelCost{.flops_per_elem = 20.0 + 60.0 * ppt,
                                 .bytes_per_elem = 60.0 + 24.0 * ppt,
                                 .divergence = 1.25};
        });
  }

  stats.pixels_per_tri =
      stats.visible_objects > 0
          ? static_cast<double>(pixels_considered) / stats.visible_objects
          : 0.0;

  // --- Resolve packed buffer into the image -------------------------------
  std::size_t active = 0;
  {
    dpp::ScopedPhase phase(dev_, "raster");
    std::atomic<std::size_t> active_atomic{0};
    dpp::for_each(
        dev_, n_pixels,
        [&](std::size_t p) {
          const std::uint64_t v = fb[p].load(std::memory_order_relaxed);
          if (v == kFarPacked) return;
          out.pixels()[p] = unpack_rgba8(static_cast<std::uint32_t>(v & 0xFFFFFFFFu));
          out.depths()[p] = bit_cast<float>(static_cast<std::uint32_t>(v >> 32));
          active_atomic.fetch_add(1, std::memory_order_relaxed);
        },
        dpp::KernelCost{.flops_per_elem = 4, .bytes_per_elem = 28});
    active = active_atomic.load();
  }
  stats.active_pixels = static_cast<double>(active);
  stats.timings = dev_.timings();
  return stats;
}

}  // namespace isr::render
