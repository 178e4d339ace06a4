#include "baseline/tuned_rt.hpp"

#include "render/rt/bvh.hpp"

#include <algorithm>
#include <atomic>

#include "dpp/primitives.hpp"
#include "dpp/timer.hpp"

namespace isr::baseline {

namespace {
constexpr int kLeafSize = 4;
}

TunedRayTracer::TunedRayTracer(const mesh::TriMesh& mesh, dpp::Device& dev)
    : mesh_(mesh), dev_(dev) {
  dpp::WallTimer timer;
  const std::size_t n = mesh_.triangle_count();
  prim_bounds_.resize(n);
  prim_order_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    prim_bounds_[i] = mesh_.triangle_bounds(i);
    prim_order_[i] = static_cast<int>(i);
  }
  if (n > 0) {
    nodes_.reserve(2 * n);
    std::vector<int> prims = prim_order_;
    build_recursive(prims, 0, static_cast<int>(n));
    prim_order_ = std::move(prims);
  }
  build_seconds_ = timer.seconds();
}

int TunedRayTracer::build_recursive(std::vector<int>& prims, int lo, int hi) {
  const int node_id = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  AABB bounds;
  AABB centroid_bounds;
  for (int i = lo; i < hi; ++i) {
    bounds.expand(prim_bounds_[static_cast<std::size_t>(prims[static_cast<std::size_t>(i)])]);
    centroid_bounds.expand(
        prim_bounds_[static_cast<std::size_t>(prims[static_cast<std::size_t>(i)])].center());
  }
  nodes_[static_cast<std::size_t>(node_id)].bounds = bounds;

  if (hi - lo <= kLeafSize) {
    nodes_[static_cast<std::size_t>(node_id)].first = lo;
    nodes_[static_cast<std::size_t>(node_id)].count = hi - lo;
    return node_id;
  }

  // Split at the centroid median along the widest axis.
  const Vec3f ext = centroid_bounds.extent();
  int axis = 0;
  if (ext.y > ext.x) axis = 1;
  if (ext.z > ext[axis]) axis = 2;
  const int mid = (lo + hi) / 2;
  std::nth_element(prims.begin() + lo, prims.begin() + mid, prims.begin() + hi,
                   [&](int a, int b) {
                     return prim_bounds_[static_cast<std::size_t>(a)].center()[axis] <
                            prim_bounds_[static_cast<std::size_t>(b)].center()[axis];
                   });

  const int left = build_recursive(prims, lo, mid);
  const int right = build_recursive(prims, mid, hi);
  nodes_[static_cast<std::size_t>(node_id)].left = left;
  nodes_[static_cast<std::size_t>(node_id)].right = right;
  return node_id;
}

bool TunedRayTracer::intersect(Vec3f orig, Vec3f dir, float tmin, float& tmax, int& prim,
                               long long& steps) const {
  if (nodes_.empty()) return false;
  const Vec3f inv = {1.0f / dir.x, 1.0f / dir.y, 1.0f / dir.z};
  int stack[64];
  int sp = 0;
  stack[sp++] = 0;
  bool hit = false;
  while (sp > 0) {
    const Node& node = nodes_[static_cast<std::size_t>(stack[--sp])];
    ++steps;
    float t0, t1;
    if (!node.bounds.intersect(orig, inv, tmin, tmax, t0, t1)) continue;
    if (node.left < 0) {
      for (int i = 0; i < node.count; ++i) {
        const int p = prim_order_[static_cast<std::size_t>(node.first + i)];
        float t, u, v;
        ++steps;
        if (render::intersect_triangle(orig, dir,
                                       mesh_.vertex(static_cast<std::size_t>(p), 0),
                                       mesh_.vertex(static_cast<std::size_t>(p), 1),
                                       mesh_.vertex(static_cast<std::size_t>(p), 2), tmin,
                                       tmax, t, u, v)) {
          tmax = t;
          prim = p;
          hit = true;
        }
      }
    } else if (sp + 2 <= 64) {
      stack[sp++] = node.left;
      stack[sp++] = node.right;
    }
  }
  return hit;
}

render::RenderStats TunedRayTracer::render_intersect(const Camera& camera,
                                                     render::Image* out) {
  dev_.reset_timings();
  render::RenderStats stats;
  stats.objects = static_cast<double>(mesh_.triangle_count());
  const std::size_t n_pixels = static_cast<std::size_t>(camera.pixel_count());
  if (out) {
    out->resize(camera.width, camera.height);
    out->clear();
  }

  std::atomic<long long> total_steps{0};
  std::atomic<long long> active{0};
  const Camera::RayFrame frame = camera.ray_frame();
  {
    dpp::ScopedPhase phase(dev_, "trace");
    dpp::for_each_dyn(
        dev_, n_pixels,
        [&](std::size_t p) {
          // Fused kernel: generate, traverse, record — no intermediate
          // arrays between pipeline stages.
          const int px = static_cast<int>(p) % camera.width;
          const int py = static_cast<int>(p) / camera.width;
          const Vec3f dir =
              Camera::ray_direction(frame, static_cast<float>(px), static_cast<float>(py));
          float tmax = camera.zfar;
          int prim = -1;
          long long steps = 0;
          if (intersect(camera.position, dir, camera.znear, tmax, prim, steps)) {
            active.fetch_add(1, std::memory_order_relaxed);
            if (out) {
              const float g = 1.0f / (1.0f + 0.1f * tmax);
              out->pixels()[p] = {g, g, g, 1.0f};
              out->depths()[p] = tmax;
            }
          }
          total_steps.fetch_add(steps, std::memory_order_relaxed);
        },
        [&] {
          const double avg = static_cast<double>(total_steps.load()) /
                             static_cast<double>(std::max<std::size_t>(n_pixels, 1));
          // Vendor-tuned SIMD traversal: lower per-step cost than the DPP
          // kernels and no divergence penalty (packetized/warp-coherent).
          return dpp::KernelCost{.flops_per_elem = 7.0 * avg + 18.0,
                                 .bytes_per_elem = 2.5 * avg + 16.0,
                                 .divergence = 1.0};
        });
    avg_steps_ = static_cast<double>(total_steps.load()) /
                 static_cast<double>(std::max<std::size_t>(n_pixels, 1));
  }
  stats.active_pixels = static_cast<double>(active.load());
  stats.timings = dev_.timings();
  return stats;
}

}  // namespace isr::baseline
