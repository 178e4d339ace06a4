#include "mesh/external_faces.hpp"

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace isr::mesh {

namespace {

// Adds the quad (a, b, c, d) as two triangles.
void add_quad(TriMesh& out, int a, int b, int c, int d) {
  out.tris.insert(out.tris.end(), {a, b, c});
  out.tris.insert(out.tris.end(), {a, c, d});
}

}  // namespace

TriMesh external_faces(const StructuredGrid& grid) {
  TriMesh out;
  const int nx = grid.nx(), ny = grid.ny(), nz = grid.nz();

  // Map from grid point index to compact output index (-1: not emitted
  // yet), filled lazily; only boundary points are emitted.
  std::vector<int> remap(grid.point_count(), -1);
  auto point_id = [&](int i, int j, int k) {
    const std::size_t gid = grid.point_index(i, j, k);
    int& id = remap[gid];
    if (id < 0) {
      id = static_cast<int>(out.points.size());
      out.points.push_back(grid.point(i, j, k));
      out.scalars.push_back(grid.scalars()[gid]);
    }
    return id;
  };

  // Six boundary planes; quads wound so normals point outward.
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i) {
      add_quad(out, point_id(i, j, 0), point_id(i, j + 1, 0), point_id(i + 1, j + 1, 0),
               point_id(i + 1, j, 0));  // z = 0 (normal -z)
      add_quad(out, point_id(i, j, nz), point_id(i + 1, j, nz), point_id(i + 1, j + 1, nz),
               point_id(i, j + 1, nz));  // z = max (+z)
    }
  for (int k = 0; k < nz; ++k)
    for (int i = 0; i < nx; ++i) {
      add_quad(out, point_id(i, 0, k), point_id(i + 1, 0, k), point_id(i + 1, 0, k + 1),
               point_id(i, 0, k + 1));  // y = 0 (-y)
      add_quad(out, point_id(i, ny, k), point_id(i, ny, k + 1), point_id(i + 1, ny, k + 1),
               point_id(i + 1, ny, k));  // y = max (+y)
    }
  for (int k = 0; k < nz; ++k)
    for (int j = 0; j < ny; ++j) {
      add_quad(out, point_id(0, j, k), point_id(0, j, k + 1), point_id(0, j + 1, k + 1),
               point_id(0, j + 1, k));  // x = 0 (-x)
      add_quad(out, point_id(nx, j, k), point_id(nx, j + 1, k), point_id(nx, j + 1, k + 1),
               point_id(nx, j, k + 1));  // x = max (+x)
    }

  out.compute_vertex_normals();
  return out;
}

TriMesh external_faces(const HexMesh& hexes) {
  // VTK hex ordering: bottom 0-1-2-3 (CCW seen from below), top 4-5-6-7.
  static constexpr std::array<std::array<int, 4>, 6> kFaces = {{
      {0, 3, 2, 1},  // bottom
      {4, 5, 6, 7},  // top
      {0, 1, 5, 4},  // front
      {1, 2, 6, 5},  // right
      {2, 3, 7, 6},  // back
      {3, 0, 4, 7},  // left
  }};

  struct FaceInfo {
    std::array<int, 4> verts;
    int count = 0;
  };
  auto face_key = [](std::array<int, 4> v) {
    std::array<int, 4> s = v;
    std::sort(s.begin(), s.end());
    return (static_cast<std::uint64_t>(s[0]) << 42) ^ (static_cast<std::uint64_t>(s[1]) << 28) ^
           (static_cast<std::uint64_t>(s[2]) << 14) ^ static_cast<std::uint64_t>(s[3]);
  };

  std::unordered_map<std::uint64_t, FaceInfo> faces;
  faces.reserve(hexes.cell_count() * 3);
  for (std::size_t c = 0; c < hexes.cell_count(); ++c) {
    for (const auto& f : kFaces) {
      std::array<int, 4> v;
      for (int i = 0; i < 4; ++i)
        v[static_cast<std::size_t>(i)] =
            hexes.conn[c * 8 + static_cast<std::size_t>(f[static_cast<std::size_t>(i)])];
      FaceInfo& info = faces[face_key(v)];
      if (info.count == 0) info.verts = v;
      ++info.count;
    }
  }

  // Output ids are assigned in first-use order; a dense table over the
  // input points finds them without hashing.
  TriMesh out;
  std::vector<int> remap(hexes.points.size(), -1);
  auto point_id = [&](int gid) {
    int& id = remap[static_cast<std::size_t>(gid)];
    if (id < 0) {
      id = static_cast<int>(out.points.size());
      out.points.push_back(hexes.points[static_cast<std::size_t>(gid)]);
      out.scalars.push_back(hexes.scalars.empty()
                                ? 0.0f
                                : hexes.scalars[static_cast<std::size_t>(gid)]);
    }
    return id;
  };
  for (const auto& [key, info] : faces) {
    if (info.count != 1) continue;
    add_quad(out, point_id(info.verts[0]), point_id(info.verts[1]), point_id(info.verts[2]),
             point_id(info.verts[3]));
  }
  out.compute_vertex_normals();
  return out;
}

}  // namespace isr::mesh
