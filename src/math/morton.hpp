// Morton (Z-order) codes. 30-bit 3-D codes drive the LBVH build and 2-D
// codes order camera rays for memory coherence, as in the paper's ray
// tracer (Chapter II: "rays ordered by a Morton-curve traversal of the
// framebuffer").
#pragma once

#include <cstdint>
#include <vector>

namespace isr {

// Spreads the low 10 bits of v so there are two zero bits between each.
inline std::uint32_t morton_expand_bits_10(std::uint32_t v) {
  v = (v * 0x00010001u) & 0xFF0000FFu;
  v = (v * 0x00000101u) & 0x0F00F00Fu;
  v = (v * 0x00000011u) & 0xC30C30C3u;
  v = (v * 0x00000005u) & 0x49249249u;
  return v;
}

// 30-bit 3-D Morton code from coordinates already scaled to [0, 1023].
inline std::uint32_t morton3d(std::uint32_t x, std::uint32_t y, std::uint32_t z) {
  return (morton_expand_bits_10(x) << 2) | (morton_expand_bits_10(y) << 1) |
         morton_expand_bits_10(z);
}

// Spreads the low 16 bits of v with one zero bit between each.
inline std::uint32_t morton_expand_bits_16(std::uint32_t v) {
  v = (v | (v << 8)) & 0x00FF00FFu;
  v = (v | (v << 4)) & 0x0F0F0F0Fu;
  v = (v | (v << 2)) & 0x33333333u;
  v = (v | (v << 1)) & 0x55555555u;
  return v;
}

// 32-bit 2-D Morton code for framebuffer traversal order.
inline std::uint32_t morton2d(std::uint32_t x, std::uint32_t y) {
  return morton_expand_bits_16(x) | (morton_expand_bits_16(y) << 1);
}

// Inverse of morton_expand_bits_16.
inline std::uint32_t morton_compact_bits_16(std::uint32_t v) {
  v &= 0x55555555u;
  v = (v | (v >> 1)) & 0x33333333u;
  v = (v | (v >> 2)) & 0x0F0F0F0Fu;
  v = (v | (v >> 4)) & 0x00FF00FFu;
  v = (v | (v >> 8)) & 0x0000FFFFu;
  return v;
}

inline void morton2d_decode(std::uint32_t code, std::uint32_t& x, std::uint32_t& y) {
  x = morton_compact_bits_16(code);
  y = morton_compact_bits_16(code >> 1);
}

// Pixel indices (y * width + x) of a width x height screen in Morton order:
// the order of increasing morton2d(x, y), as if every code of the enclosing
// power-of-two square were decoded and the off-screen ones skipped. The
// low six code bits index a pixel inside its 8x8 tile and the high bits the
// tile, so whole tiles are visited in Morton order and only the tiles that
// straddle an edge check their pixels.
inline void morton_pixel_order(int width, int height, std::vector<int>& out) {
  out.clear();
  if (width <= 0 || height <= 0) return;
  out.reserve(static_cast<std::size_t>(width) * static_cast<std::size_t>(height));
  std::uint32_t side = 1;
  while (side < static_cast<std::uint32_t>(width > height ? width : height)) side <<= 1;
  const std::uint32_t tiles_side = side >= 8 ? side / 8 : 1;
  int tile_lx[64], tile_ly[64], tile_off[64];
  for (std::uint32_t code = 0; code < 64; ++code) {
    std::uint32_t lx, ly;
    morton2d_decode(code, lx, ly);
    tile_lx[code] = static_cast<int>(lx);
    tile_ly[code] = static_cast<int>(ly);
    tile_off[code] = static_cast<int>(ly) * width + static_cast<int>(lx);
  }
  for (std::uint32_t tile = 0; tile < tiles_side * tiles_side; ++tile) {
    std::uint32_t tx, ty;
    morton2d_decode(tile, tx, ty);
    const int x0 = static_cast<int>(tx) * 8;
    const int y0 = static_cast<int>(ty) * 8;
    if (x0 >= width || y0 >= height) continue;
    const int base = y0 * width + x0;
    if (x0 + 8 <= width && y0 + 8 <= height) {
      for (int k = 0; k < 64; ++k) out.push_back(base + tile_off[k]);
    } else {
      for (int k = 0; k < 64; ++k)
        if (x0 + tile_lx[k] < width && y0 + tile_ly[k] < height)
          out.push_back(base + tile_off[k]);
    }
  }
}

}  // namespace isr
