// Structured (uniform) grids — the mesh type Kripke and CloverLeaf3D publish
// and the structured volume renderer consumes.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "math/aabb.hpp"
#include "math/vec.hpp"

namespace isr::mesh {

// A uniform grid of nx*ny*nz cells ((nx+1)*(ny+1)*(nz+1) points) with one
// named point-centered scalar field. Scalars are stored x-fastest.
class StructuredGrid {
 public:
  StructuredGrid() = default;
  StructuredGrid(int nx, int ny, int nz, Vec3f origin, Vec3f spacing);

  int nx() const { return nx_; }
  int ny() const { return ny_; }
  int nz() const { return nz_; }
  std::size_t cell_count() const {
    return static_cast<std::size_t>(nx_) * ny_ * nz_;
  }
  std::size_t point_count() const {
    return static_cast<std::size_t>(nx_ + 1) * (ny_ + 1) * (nz_ + 1);
  }

  Vec3f origin() const { return origin_; }
  Vec3f spacing() const { return spacing_; }
  AABB bounds() const;

  std::size_t point_index(int i, int j, int k) const {
    return static_cast<std::size_t>(i) +
           static_cast<std::size_t>(nx_ + 1) *
               (static_cast<std::size_t>(j) + static_cast<std::size_t>(ny_ + 1) * k);
  }

  Vec3f point(int i, int j, int k) const {
    return origin_ + Vec3f{spacing_.x * i, spacing_.y * j, spacing_.z * k};
  }

  std::vector<float>& scalars() { return scalars_; }
  const std::vector<float>& scalars() const { return scalars_; }
  float scalar_at(int i, int j, int k) const { return scalars_[point_index(i, j, k)]; }

  // Grid-space coordinates of a world-space position: cell (i, j, k) spans
  // [i, i + 1) x [j, j + 1) x [k, k + 1).
  Vec3f grid_coords(Vec3f p) const {
    return {(p.x - origin_.x) / spacing_.x, (p.y - origin_.y) / spacing_.y,
            (p.z - origin_.z) / spacing_.z};
  }

  // Trilinear interpolation at grid-space coordinates (grid_coords());
  // returns false outside the grid. Inline: it runs once per volume sample.
  bool sample_grid(Vec3f local, float& value) const {
    if (local.x < 0 || local.y < 0 || local.z < 0 || local.x > static_cast<float>(nx_) ||
        local.y > static_cast<float>(ny_) || local.z > static_cast<float>(nz_))
      return false;
    const int i = std::min(static_cast<int>(local.x), nx_ - 1);
    const int j = std::min(static_cast<int>(local.y), ny_ - 1);
    const int k = std::min(static_cast<int>(local.z), nz_ - 1);
    const float fx = local.x - static_cast<float>(i);
    const float fy = local.y - static_cast<float>(j);
    const float fz = local.z - static_cast<float>(k);

    const float c000 = scalar_at(i, j, k);
    const float c100 = scalar_at(i + 1, j, k);
    const float c010 = scalar_at(i, j + 1, k);
    const float c110 = scalar_at(i + 1, j + 1, k);
    const float c001 = scalar_at(i, j, k + 1);
    const float c101 = scalar_at(i + 1, j, k + 1);
    const float c011 = scalar_at(i, j + 1, k + 1);
    const float c111 = scalar_at(i + 1, j + 1, k + 1);

    const float c00 = c000 + (c100 - c000) * fx;
    const float c10 = c010 + (c110 - c010) * fx;
    const float c01 = c001 + (c101 - c001) * fx;
    const float c11 = c011 + (c111 - c011) * fx;
    const float c0 = c00 + (c10 - c00) * fy;
    const float c1 = c01 + (c11 - c01) * fy;
    value = c0 + (c1 - c0) * fz;
    return true;
  }

  // Trilinear interpolation at a world-space position; returns false when p
  // is outside the grid.
  bool sample(Vec3f p, float& value) const { return sample_grid(grid_coords(p), value); }

  // Min/max of the scalar field (0,0 when empty).
  void scalar_range(float& lo, float& hi) const;

  // Rescales the field to [0, 1].
  void normalize_scalars();

 private:
  int nx_ = 0, ny_ = 0, nz_ = 0;
  Vec3f origin_{0, 0, 0};
  Vec3f spacing_{1, 1, 1};
  std::vector<float> scalars_;
};

}  // namespace isr::mesh
