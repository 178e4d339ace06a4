// Pinhole camera shared by every renderer.
//
// The ray tracer consumes generated ray directions; the rasterizer and the
// volume renderers consume the view-projection transform. Both views of the
// camera are derived from the same basis so all renderers agree on what is
// on screen (required for the paper's cross-renderer comparisons).
#pragma once

#include "math/aabb.hpp"
#include "math/mat4.hpp"
#include "math/vec.hpp"

namespace isr {

struct Camera {
  Vec3f position{0, 0, 5};
  Vec3f look_at{0, 0, 0};
  Vec3f up{0, 1, 0};
  float fov_y_degrees = 30.0f;
  float znear = 0.01f;
  float zfar = 1000.0f;
  int width = 512;
  int height = 512;

  int pixel_count() const { return width * height; }
  float aspect() const { return static_cast<float>(width) / static_cast<float>(height); }

  Vec3f forward() const { return normalize(look_at - position); }

  // The per-frame constants of ray generation: the view basis and the
  // screen scale. Renderers compute it once per render, not once per ray.
  struct RayFrame {
    Vec3f forward, side, up;
    float tan_half = 0.0f;
    float aspect = 1.0f;
    float width = 1.0f, height = 1.0f;
  };

  RayFrame ray_frame() const {
    RayFrame fr;
    fr.forward = forward();
    fr.side = normalize(cross(fr.forward, up));
    fr.up = cross(fr.side, fr.forward);
    fr.tan_half = std::tan(fov_y_degrees * 3.14159265358979f / 360.0f);
    fr.aspect = aspect();
    fr.width = static_cast<float>(width);
    fr.height = static_cast<float>(height);
    return fr;
  }

  // Direction through pixel (px, py); sub-pixel offsets in [0,1) support the
  // 4-ray anti-aliasing workload. The one copy of the ray math: the member
  // form below delegates here, so both round identically.
  static Vec3f ray_direction(const RayFrame& fr, float px, float py, float sub_x = 0.5f,
                             float sub_y = 0.5f) {
    const float ndc_x = (2.0f * (px + sub_x) / fr.width - 1.0f) * fr.tan_half * fr.aspect;
    const float ndc_y = (1.0f - 2.0f * (py + sub_y) / fr.height) * fr.tan_half;
    return normalize(fr.forward + fr.side * ndc_x + fr.up * ndc_y);
  }

  Vec3f ray_direction(float px, float py, float sub_x = 0.5f, float sub_y = 0.5f) const {
    return ray_direction(ray_frame(), px, py, sub_x, sub_y);
  }

  Mat4 view() const { return Mat4::look_at(position, look_at, up); }

  Mat4 projection() const {
    return Mat4::perspective(fov_y_degrees * 3.14159265358979f / 180.0f, aspect(), znear,
                             zfar);
  }

  Mat4 view_projection() const { return projection() * view(); }

  // Projects a world-space point to (screen_x, screen_y, depth, clip_w).
  // depth is the eye-space distance along the view axis (positive in front
  // of the camera); callers use it for depth tests and visibility ordering.
  // Returns w <= 0 for points behind the camera.
  Vec4f world_to_screen(Vec3f p, const Mat4& vp) const {
    const Vec4f clip = vp * Vec4f(p, 1.0f);
    if (clip.w <= 0.0f) return {0, 0, 0, clip.w};
    const float inv_w = 1.0f / clip.w;
    const float sx = (clip.x * inv_w * 0.5f + 0.5f) * static_cast<float>(width);
    const float sy = (0.5f - clip.y * inv_w * 0.5f) * static_cast<float>(height);
    return {sx, sy, clip.w, clip.w};
  }

  // Places the camera so `bounds` fills roughly `fill` of the vertical field
  // of view. fill > 1 is the study's "close up" view (data overflows the
  // screen); fill < 1 is "zoomed out" (data surrounded by background).
  static Camera framing(const AABB& bounds, int width, int height, float fill = 0.75f,
                        Vec3f view_dir = {0.4f, 0.3f, 1.0f}) {
    Camera cam;
    cam.width = width;
    cam.height = height;
    const Vec3f c = bounds.center();
    const float radius = 0.5f * length(bounds.extent());
    const float tan_half = std::tan(cam.fov_y_degrees * 3.14159265358979f / 360.0f);
    const float dist = radius / (tan_half * std::max(fill, 1e-3f));
    cam.look_at = c;
    cam.position = c + normalize(view_dir) * dist;
    cam.znear = std::max(0.05f * radius, dist - 4.0f * radius);
    cam.zfar = dist + 4.0f * radius;
    return cam;
  }
};

}  // namespace isr
