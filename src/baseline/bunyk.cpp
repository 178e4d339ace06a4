#include "baseline/bunyk.hpp"

#include <algorithm>
#include <atomic>
#include <unordered_map>

#include "dpp/primitives.hpp"
#include "dpp/timer.hpp"

namespace isr::baseline {

namespace {

// Corners of the face opposite corner f, wound consistently.
constexpr int kFaceCorners[4][3] = {{1, 2, 3}, {0, 3, 2}, {0, 1, 3}, {0, 2, 1}};

std::uint64_t face_key(int a, int b, int c) {
  int v[3] = {a, b, c};
  std::sort(v, v + 3);
  return (static_cast<std::uint64_t>(v[0]) << 42) ^ (static_cast<std::uint64_t>(v[1]) << 21) ^
         static_cast<std::uint64_t>(v[2]);
}

}  // namespace

BunykRayCaster::BunykRayCaster(const mesh::TetMesh& mesh, dpp::Device& dev)
    : mesh_(mesh), dev_(dev) {
  dpp::WallTimer timer;
  const std::size_t n = mesh_.cell_count();
  neighbor_.assign(n * 4, -1);

  // Serial face-connectivity trace (deliberately mirrors the VTK
  // implementation's serial preprocessing).
  std::unordered_map<std::uint64_t, std::pair<int, int>> open_faces;  // key -> (tet, face)
  open_faces.reserve(n * 2);
  for (std::size_t t = 0; t < n; ++t) {
    for (int f = 0; f < 4; ++f) {
      const int a = mesh_.conn[t * 4 + static_cast<std::size_t>(kFaceCorners[f][0])];
      const int b = mesh_.conn[t * 4 + static_cast<std::size_t>(kFaceCorners[f][1])];
      const int c = mesh_.conn[t * 4 + static_cast<std::size_t>(kFaceCorners[f][2])];
      const std::uint64_t key = face_key(a, b, c);
      const auto it = open_faces.find(key);
      if (it == open_faces.end()) {
        open_faces.emplace(key, std::make_pair(static_cast<int>(t), f));
      } else {
        const auto [ot, of] = it->second;
        neighbor_[t * 4 + static_cast<std::size_t>(f)] = ot;
        neighbor_[static_cast<std::size_t>(ot) * 4 + static_cast<std::size_t>(of)] =
            static_cast<int>(t);
        open_faces.erase(it);
      }
    }
  }

  // Remaining open faces are the boundary; build the entry-search mesh.
  for (const auto& [key, tf] : open_faces) {
    const auto [t, f] = tf;
    const int base = static_cast<int>(boundary_.points.size());
    for (int i = 0; i < 3; ++i) {
      const int pid =
          mesh_.conn[static_cast<std::size_t>(t) * 4 + static_cast<std::size_t>(kFaceCorners[f][i])];
      boundary_.points.push_back(mesh_.points[static_cast<std::size_t>(pid)]);
      boundary_.scalars.push_back(0.0f);
    }
    boundary_.tris.insert(boundary_.tris.end(), {base, base + 1, base + 2});
    boundary_tet_.push_back(t);
  }
  boundary_bvh_ = render::build_lbvh(dev_, boundary_);
  dev_.reset_timings();
  preprocess_seconds_ = timer.seconds();
}

render::RenderStats BunykRayCaster::render(const Camera& camera, const TransferFunction& tf,
                                           render::Image& out, int reference_samples) {
  dev_.reset_timings();
  out.resize(camera.width, camera.height);
  out.clear();

  render::RenderStats stats;
  stats.objects = static_cast<double>(mesh_.cell_count());
  if (mesh_.cell_count() == 0) {
    stats.timings = dev_.timings();
    return stats;
  }

  const float diag = length(mesh_.bounds().extent());
  const float unit = diag / static_cast<float>(reference_samples);
  const std::size_t n_pixels = static_cast<std::size_t>(camera.pixel_count());
  std::atomic<long long> total_cells{0};
  std::atomic<long long> active{0};
  const Camera::RayFrame frame = camera.ray_frame();

  {
    dpp::ScopedPhase phase(dev_, "trace");
    dpp::for_each_dyn(
        dev_, n_pixels,
        [&](std::size_t p) {
          const int px = static_cast<int>(p) % camera.width;
          const int py = static_cast<int>(p) / camera.width;
          const Vec3f dir =
              Camera::ray_direction(frame, static_cast<float>(px), static_cast<float>(py));
          long long steps = 0;
          const render::HitResult entry = render::intersect_closest(
              boundary_bvh_, boundary_, camera.position, dir, camera.znear, camera.zfar,
              steps);
          if (!entry.hit()) return;

          int tet = boundary_tet_[static_cast<std::size_t>(entry.prim)];
          float t_in = entry.t;
          float v_in;
          Vec4f acc{0, 0, 0, 0};
          long long cells = 0;
          const long long max_cells = 8 * reference_samples;

          // Entry scalar via the entry face's opposite-corner barycentric.
          auto scalar_at = [&](int cell, Vec3f pos) {
            // Barycentric by solving edge matrix each time; cells are small
            // so a local solve is acceptable for a comparator.
            const Vec3f a = mesh_.vertex(static_cast<std::size_t>(cell), 0);
            const Vec3f e1 = mesh_.vertex(static_cast<std::size_t>(cell), 1) - a;
            const Vec3f e2 = mesh_.vertex(static_cast<std::size_t>(cell), 2) - a;
            const Vec3f e3 = mesh_.vertex(static_cast<std::size_t>(cell), 3) - a;
            const Vec3f d = pos - a;
            const float det = dot(e1, cross(e2, e3));
            if (std::abs(det) < 1e-20f) return mesh_.scalar(static_cast<std::size_t>(cell), 0);
            const float b1 = dot(d, cross(e2, e3)) / det;
            const float b2 = dot(e1, cross(d, e3)) / det;
            const float b3 = dot(e1, cross(e2, d)) / det;
            const float b0 = 1.0f - b1 - b2 - b3;
            return b0 * mesh_.scalar(static_cast<std::size_t>(cell), 0) +
                   b1 * mesh_.scalar(static_cast<std::size_t>(cell), 1) +
                   b2 * mesh_.scalar(static_cast<std::size_t>(cell), 2) +
                   b3 * mesh_.scalar(static_cast<std::size_t>(cell), 3);
          };
          v_in = scalar_at(tet, camera.position + dir * t_in);
          float first_t = -1.0f;

          while (tet >= 0 && cells < max_cells) {
            ++cells;
            // Exit: smallest positive intersection with the 4 face planes.
            float t_exit = camera.zfar;
            int exit_face = -1;
            for (int f = 0; f < 4; ++f) {
              const Vec3f a = mesh_.points[static_cast<std::size_t>(
                  mesh_.conn[static_cast<std::size_t>(tet) * 4 +
                             static_cast<std::size_t>(kFaceCorners[f][0])])];
              const Vec3f b = mesh_.points[static_cast<std::size_t>(
                  mesh_.conn[static_cast<std::size_t>(tet) * 4 +
                             static_cast<std::size_t>(kFaceCorners[f][1])])];
              const Vec3f c = mesh_.points[static_cast<std::size_t>(
                  mesh_.conn[static_cast<std::size_t>(tet) * 4 +
                             static_cast<std::size_t>(kFaceCorners[f][2])])];
              const Vec3f n = cross(b - a, c - a);
              const float denom = dot(n, dir);
              if (std::abs(denom) < 1e-12f) continue;
              const float t = dot(n, a - camera.position) / denom;
              if (t > t_in + 1e-5f && t < t_exit) {
                t_exit = t;
                exit_face = f;
              }
            }
            if (exit_face < 0) break;

            const float v_out = scalar_at(tet, camera.position + dir * t_exit);
            const float seg = t_exit - t_in;
            const Vec4f color = tf.sample(0.5f * (v_in + v_out));
            const float alpha =
                TransferFunction::correct_alpha(color.w, seg / unit) * (1.0f - acc.w);
            acc.x += color.x * alpha;
            acc.y += color.y * alpha;
            acc.z += color.z * alpha;
            acc.w += alpha;
            if (first_t < 0.0f && alpha > 0.001f) first_t = t_in;
            if (acc.w >= 0.98f) break;

            tet = neighbor_[static_cast<std::size_t>(tet) * 4 +
                            static_cast<std::size_t>(exit_face)];
            t_in = t_exit;
            v_in = v_out;
          }

          total_cells.fetch_add(cells, std::memory_order_relaxed);
          if (acc.w > 0.0f) {
            active.fetch_add(1, std::memory_order_relaxed);
            out.pixels()[p] = acc;
            out.depths()[p] = first_t >= 0.0f ? first_t : entry.t;
          }
        },
        [&] {
          const double per_ray = static_cast<double>(total_cells.load()) /
                                 static_cast<double>(std::max<std::size_t>(n_pixels, 1));
          // Cell march: 4 plane tests + 2 barycentric solves per cell.
          return dpp::KernelCost{.flops_per_elem = 260.0 * per_ray + 60.0,
                                 .bytes_per_elem = 200.0 * per_ray + 32.0,
                                 .divergence = 1.5};
        });
  }

  stats.active_pixels = static_cast<double>(active.load());
  stats.cells_spanned = stats.active_pixels > 0
                            ? static_cast<double>(total_cells.load()) / stats.active_pixels
                            : 0.0;
  stats.timings = dev_.timings();
  return stats;
}

}  // namespace isr::baseline
