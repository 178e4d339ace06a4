// Color tables and transfer functions.
//
// Rendering maps interpolated scalars through a color table (Chapter II
// WORKLOAD2 "additional color using interpolated scalars that are indexed
// into a color map") and the volume renderers map samples through a
// color + opacity transfer function (Chapter III).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "math/vec.hpp"

namespace isr {

// A color table sampled into a fixed LUT; lookup is a single index
// computation so it stays cheap inside rendering kernels.
class ColorTable {
 public:
  static constexpr int kLutSize = 256;

  // Piecewise-linear table from control points (position in [0,1], rgb).
  struct ControlPoint {
    float t;
    Vec3f rgb;
  };

  explicit ColorTable(const std::vector<ControlPoint>& points);

  // Common presets.
  static ColorTable cool_warm();
  static ColorTable viridis_like();
  static ColorTable grayscale();

  Vec3f sample(float t) const {
    int i = static_cast<int>(clamp01(t) * (kLutSize - 1));
    return lut_[static_cast<std::size_t>(i)];
  }

 private:
  std::array<Vec3f, kLutSize> lut_{};
};

// Color + opacity transfer function for volume rendering. Opacity is stored
// per unit distance; the renderer corrects it for the actual sample spacing.
class TransferFunction {
 public:
  static constexpr int kLutSize = 256;

  TransferFunction(const ColorTable& colors, float min_alpha, float max_alpha);

  // Piecewise opacity ramp: alpha(t) = min + (max-min) * t.
  Vec4f sample(float t) const { return entry(lut_index(t)); }

  // The LUT entry sample(t) reads; renderers that derive per-entry values
  // (e.g. corrected opacities) once per frame index them with it.
  static int lut_index(float t) { return static_cast<int>(clamp01(t) * (kLutSize - 1)); }
  Vec4f entry(int i) const { return lut_[static_cast<std::size_t>(i)]; }

  // Opacity correction: alpha for a sample of length `dt` relative to the
  // reference spacing the LUT was built for.
  static float correct_alpha(float alpha, float dt_ratio);

 private:
  std::array<Vec4f, kLutSize> lut_{};
};

}  // namespace isr
