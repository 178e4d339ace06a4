#include "mesh/structured.hpp"

#include <algorithm>
#include <limits>

namespace isr::mesh {

StructuredGrid::StructuredGrid(int nx, int ny, int nz, Vec3f origin, Vec3f spacing)
    : nx_(nx), ny_(ny), nz_(nz), origin_(origin), spacing_(spacing) {
  scalars_.assign(point_count(), 0.0f);
}

AABB StructuredGrid::bounds() const {
  AABB b;
  b.expand(origin_);
  b.expand(origin_ + Vec3f{spacing_.x * nx_, spacing_.y * ny_, spacing_.z * nz_});
  return b;
}

void StructuredGrid::scalar_range(float& lo, float& hi) const {
  lo = 0.0f;
  hi = 0.0f;
  if (scalars_.empty()) return;
  lo = std::numeric_limits<float>::max();
  hi = std::numeric_limits<float>::lowest();
  for (const float v : scalars_) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
}

void StructuredGrid::normalize_scalars() {
  float lo, hi;
  scalar_range(lo, hi);
  const float span = hi - lo;
  if (span <= 0.0f) return;
  for (float& v : scalars_) v = (v - lo) / span;
}

}  // namespace isr::mesh
