#include "render/vr/volume.hpp"

#include <atomic>
#include <cmath>

#include "dpp/primitives.hpp"

namespace isr::render {

RenderStats StructuredVolumeRenderer::render(const Camera& camera,
                                             const TransferFunction& tf, Image& out,
                                             const VolumeRenderOptions& options) {
  dev_.reset_timings();
  out.resize(camera.width, camera.height);
  out.clear(options.background);

  RenderStats stats;
  stats.objects = static_cast<double>(grid_.cell_count());
  if (grid_.cell_count() == 0) {
    stats.timings = dev_.timings();
    return stats;
  }

  const AABB bounds = grid_.bounds();
  const float diag = length(bounds.extent());
  const float dt = diag / static_cast<float>(std::max(options.samples, 1));
  const std::size_t n_pixels = static_cast<std::size_t>(camera.pixel_count());

  std::atomic<long long> total_samples{0};
  std::atomic<long long> total_cell_steps{0};
  std::atomic<long long> active{0};
  std::atomic<long long> max_cells{0};
  const Camera::RayFrame frame = camera.ray_frame();
  // Opacity correction against the 400-sample reference shared by all
  // volume renderers (so images are comparable across them). It depends
  // only on the LUT entry, so each entry is corrected once per frame.
  float corrected_alpha[TransferFunction::kLutSize];
  for (int i = 0; i < TransferFunction::kLutSize; ++i)
    corrected_alpha[i] = TransferFunction::correct_alpha(
        tf.entry(i).w, 400.0f / static_cast<float>(options.samples));

  {
    dpp::ScopedPhase phase(dev_, "volume_render");
    dpp::for_each_dyn(
        dev_, n_pixels,
        [&](std::size_t p) {
          const int px = static_cast<int>(p) % camera.width;
          const int py = static_cast<int>(p) / camera.width;
          const Vec3f dir =
              Camera::ray_direction(frame, static_cast<float>(px), static_cast<float>(py));
          const Vec3f inv_dir = {1.0f / dir.x, 1.0f / dir.y, 1.0f / dir.z};
          float t0, t1;
          if (!bounds.intersect(camera.position, inv_dir, camera.znear, camera.zfar, t0, t1))
            return;

          Vec4f accum{0, 0, 0, 0};
          long long samples = 0;
          long long cell_steps = 0;
          // Track the integer cell so cell-frequency work can be counted.
          int last_cx = -1, last_cy = -1, last_cz = -1;
          float first_t = -1.0f;
          for (float t = t0 + 0.5f * dt; t < t1; t += dt) {
            // Grid coordinates locate both the sample and its cell
            // (bounds.lo is the grid origin: spacing is positive).
            const Vec3f local = grid_.grid_coords(camera.position + dir * t);
            float value;
            if (!grid_.sample_grid(local, value)) continue;
            ++samples;
            const int cx = static_cast<int>(local.x);
            const int cy = static_cast<int>(local.y);
            const int cz = static_cast<int>(local.z);
            if (cx != last_cx || cy != last_cy || cz != last_cz) {
              ++cell_steps;
              last_cx = cx;
              last_cy = cy;
              last_cz = cz;
            }
            // Corrected opacity, then front-to-back "over".
            const int entry = TransferFunction::lut_index(value);
            const Vec4f s = tf.entry(entry);
            const float alpha = corrected_alpha[entry] * (1.0f - accum.w);
            accum.x += s.x * alpha;
            accum.y += s.y * alpha;
            accum.z += s.z * alpha;
            accum.w += alpha;
            if (first_t < 0.0f && alpha > 0.001f) first_t = t;
            if (options.early_termination && accum.w >= options.termination_alpha) break;
          }
          total_samples.fetch_add(samples, std::memory_order_relaxed);
          total_cell_steps.fetch_add(cell_steps, std::memory_order_relaxed);
          long long prev = max_cells.load(std::memory_order_relaxed);
          while (cell_steps > prev &&
                 !max_cells.compare_exchange_weak(prev, cell_steps, std::memory_order_relaxed)) {
          }
          if (accum.w > 0.0f) {
            active.fetch_add(1, std::memory_order_relaxed);
            const Vec4f bg = options.background;
            const float rem = 1.0f - accum.w;
            out.pixels()[p] = {accum.x + bg.x * rem, accum.y + bg.y * rem,
                               accum.z + bg.z * rem, accum.w + bg.w * rem};
            out.depths()[p] = first_t >= 0.0f ? first_t : t0;
          }
        },
        [&] {
          const double np = static_cast<double>(std::max<std::size_t>(n_pixels, 1));
          const double spr = static_cast<double>(total_samples.load()) / np;
          const double cells = static_cast<double>(total_cell_steps.load()) / np;
          // Sample-frequency work: LUT lookup + blend. Cell-frequency work:
          // locate + load 8 corners.
          return dpp::KernelCost{.flops_per_elem = 30.0 * spr + 18.0 * cells + 20.0,
                                 .bytes_per_elem = 20.0 * spr + 44.0 * cells + 24.0,
                                 .divergence = 1.2};
        });
  }

  stats.active_pixels = static_cast<double>(active.load());
  stats.samples_per_ray = stats.active_pixels > 0
                              ? static_cast<double>(total_samples.load()) / stats.active_pixels
                              : 0.0;
  // Mean cells crossed per active ray: AP*CS is then exactly the total
  // cell-frequency work. (The paper's mapping estimates CS with the upper
  // bound N; the max is tracked too but too noisy to regress on.)
  stats.cells_spanned = stats.active_pixels > 0
                            ? static_cast<double>(total_cell_steps.load()) / stats.active_pixels
                            : static_cast<double>(max_cells.load());
  stats.timings = dev_.timings();
  return stats;
}

}  // namespace isr::render
