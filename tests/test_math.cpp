// Unit tests for the math substrate: vectors, matrices, camera, AABB,
// Morton codes, RNG, color tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "math/aabb.hpp"
#include "math/camera.hpp"
#include "math/colormap.hpp"
#include "math/mat4.hpp"
#include "math/morton.hpp"
#include "math/rng.hpp"
#include "math/vec.hpp"

namespace isr {
namespace {

TEST(Vec3, BasicOps) {
  const Vec3f a{1, 2, 3}, b{4, 5, 6};
  EXPECT_EQ(a + b, (Vec3f{5, 7, 9}));
  EXPECT_EQ(b - a, (Vec3f{3, 3, 3}));
  EXPECT_EQ(a * 2.0f, (Vec3f{2, 4, 6}));
  EXPECT_FLOAT_EQ(dot(a, b), 32.0f);
}

TEST(Vec3, CrossIsOrthogonal) {
  const Vec3f a{1, 2, 3}, b{-2, 1, 4};
  const Vec3f c = cross(a, b);
  EXPECT_NEAR(dot(c, a), 0.0f, 1e-5f);
  EXPECT_NEAR(dot(c, b), 0.0f, 1e-5f);
}

TEST(Vec3, NormalizeUnitLength) {
  const Vec3f v = normalize(Vec3f{3, 4, 12});
  EXPECT_NEAR(length(v), 1.0f, 1e-6f);
}

TEST(Vec3, NormalizeZeroIsSafe) {
  const Vec3f v = normalize(Vec3f{0, 0, 0});
  EXPECT_EQ(v, (Vec3f{0, 0, 0}));
}

TEST(Vec3, MinMaxLerp) {
  const Vec3f a{1, 5, 2}, b{3, 2, 8};
  EXPECT_EQ(vmin(a, b), (Vec3f{1, 2, 2}));
  EXPECT_EQ(vmax(a, b), (Vec3f{3, 5, 8}));
  EXPECT_EQ(lerp(a, b, 0.0f), a);
  EXPECT_EQ(lerp(a, b, 1.0f), b);
}

TEST(Mat4, IdentityTransform) {
  const Mat4 id = Mat4::identity();
  const Vec3f p{1, 2, 3};
  EXPECT_EQ(id.transform_point(p), p);
}

TEST(Mat4, MultiplyAssociatesWithTransform) {
  const Mat4 a = Mat4::look_at({0, 0, 5}, {0, 0, 0}, {0, 1, 0});
  const Mat4 b = Mat4::perspective(0.8f, 1.5f, 0.1f, 100.0f);
  const Vec3f p{0.3f, -0.2f, 1.0f};
  const Vec4f lhs = (b * a) * Vec4f(p, 1.0f);
  const Vec4f rhs = b * (a * Vec4f(p, 1.0f));
  EXPECT_NEAR(lhs.x, rhs.x, 1e-4f);
  EXPECT_NEAR(lhs.y, rhs.y, 1e-4f);
  EXPECT_NEAR(lhs.z, rhs.z, 1e-4f);
  EXPECT_NEAR(lhs.w, rhs.w, 1e-4f);
}

TEST(Mat4, InverseRoundTrip) {
  const Mat4 m = Mat4::look_at({1, 2, 3}, {0, 0, 0}, {0, 1, 0});
  const Mat4 r = m.inverse() * m;
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j)
      EXPECT_NEAR(r.m[i][j], i == j ? 1.0f : 0.0f, 1e-4f) << i << "," << j;
}

TEST(Mat4, LookAtMovesEyeToOrigin) {
  const Vec3f eye{3, -2, 7};
  const Mat4 v = Mat4::look_at(eye, {0, 0, 0}, {0, 1, 0});
  const Vec3f at_origin = v.transform_point(eye);
  EXPECT_NEAR(length(at_origin), 0.0f, 1e-4f);
  // The look target lands on the -z axis.
  const Vec3f target = v.transform_point({0, 0, 0});
  EXPECT_NEAR(target.x, 0.0f, 1e-4f);
  EXPECT_NEAR(target.y, 0.0f, 1e-4f);
  EXPECT_LT(target.z, 0.0f);
}

TEST(Camera, CenterRayPointsAtLookAt) {
  Camera cam;
  cam.position = {1, 2, 10};
  cam.look_at = {0, 0, 0};
  cam.width = 101;
  cam.height = 101;
  const Vec3f dir = cam.ray_direction(50.0f, 50.0f);
  const Vec3f expect = normalize(cam.look_at - cam.position);
  EXPECT_NEAR(dir.x, expect.x, 1e-2f);
  EXPECT_NEAR(dir.y, expect.y, 1e-2f);
  EXPECT_NEAR(dir.z, expect.z, 1e-2f);
}

TEST(Camera, WorldToScreenCenterMapsToImageCenter) {
  Camera cam;
  cam.position = {0, 0, 5};
  cam.look_at = {0, 0, 0};
  cam.width = 200;
  cam.height = 100;
  const Vec4f s = cam.world_to_screen({0, 0, 0}, cam.view_projection());
  EXPECT_NEAR(s.x, 100.0f, 0.5f);
  EXPECT_NEAR(s.y, 50.0f, 0.5f);
  EXPECT_NEAR(s.z, 5.0f, 1e-3f);  // eye-space distance
}

TEST(Camera, ScreenAndRayAgree) {
  // A point projected to pixel (px, py) must lie on the ray through that
  // pixel: the consistency contract between the rasterizer and ray tracer.
  Camera cam;
  cam.position = {2, 1, 8};
  cam.look_at = {0.2f, -0.1f, 0};
  cam.width = 256;
  cam.height = 256;
  const Vec3f world{0.4f, 0.3f, 0.5f};
  const Vec4f s = cam.world_to_screen(world, cam.view_projection());
  ASSERT_GT(s.w, 0.0f);
  const Vec3f dir = cam.ray_direction(s.x - 0.5f, s.y - 0.5f);
  // The ray from the camera through that pixel should pass near the point.
  const Vec3f to_point = world - cam.position;
  const float t = dot(to_point, dir);
  const Vec3f closest = cam.position + dir * t;
  EXPECT_LT(length(closest - world), 0.05f);
}

TEST(Camera, FramingContainsBounds) {
  AABB box;
  box.expand({0, 0, 0});
  box.expand({1, 2, 3});
  const Camera cam = Camera::framing(box, 128, 128, 0.6f);
  const Mat4 vp = cam.view_projection();
  for (const Vec3f corner : {Vec3f{0, 0, 0}, Vec3f{1, 2, 3}, Vec3f{1, 0, 3}}) {
    const Vec4f s = cam.world_to_screen(corner, vp);
    EXPECT_GT(s.w, 0.0f);
    EXPECT_GE(s.x, 0.0f);
    EXPECT_LT(s.x, 128.0f);
    EXPECT_GE(s.y, 0.0f);
    EXPECT_LT(s.y, 128.0f);
  }
}

TEST(AABB, ExpandAndContains) {
  AABB box;
  EXPECT_FALSE(box.valid());
  box.expand({0, 0, 0});
  box.expand({1, 1, 1});
  EXPECT_TRUE(box.valid());
  EXPECT_TRUE(box.contains({0.5f, 0.5f, 0.5f}));
  EXPECT_FALSE(box.contains({1.5f, 0.5f, 0.5f}));
  EXPECT_FLOAT_EQ(box.surface_area(), 6.0f);
}

TEST(AABB, RayIntersection) {
  AABB box;
  box.expand({0, 0, 0});
  box.expand({1, 1, 1});
  float t0, t1;
  const Vec3f dir{0, 0, 1};
  const Vec3f inv{1e30f, 1e30f, 1.0f};
  EXPECT_TRUE(box.intersect({0.5f, 0.5f, -1.0f}, inv, 0.0f, 100.0f, t0, t1));
  EXPECT_NEAR(t0, 1.0f, 1e-5f);
  EXPECT_NEAR(t1, 2.0f, 1e-5f);
  EXPECT_FALSE(box.intersect({2.0f, 0.5f, -1.0f}, inv, 0.0f, 100.0f, t0, t1));
  (void)dir;
}

TEST(AABB, RayFromInside) {
  AABB box;
  box.expand({0, 0, 0});
  box.expand({1, 1, 1});
  float t0, t1;
  EXPECT_TRUE(box.intersect({0.5f, 0.5f, 0.5f}, {1e30f, 1e30f, 1.0f}, 0.0f, 100.0f, t0, t1));
  EXPECT_FLOAT_EQ(t0, 0.0f);
  EXPECT_NEAR(t1, 0.5f, 1e-5f);
}

TEST(Morton, Morton2dRoundTrip) {
  for (std::uint32_t x : {0u, 1u, 17u, 255u, 1000u, 65535u})
    for (std::uint32_t y : {0u, 3u, 128u, 999u, 65535u}) {
      std::uint32_t rx, ry;
      morton2d_decode(morton2d(x, y), rx, ry);
      EXPECT_EQ(rx, x);
      EXPECT_EQ(ry, y);
    }
}

// The tiled pixel order against its definition: decode every code of the
// enclosing power-of-two square and keep the on-screen ones.
TEST(Morton, PixelOrderMatchesDecodingEveryCode) {
  for (const auto& [w, h] : {std::pair{1, 1}, {5, 3}, {8, 8}, {9, 16}, {96, 96}, {120, 90},
                            {17, 200}, {256, 7}}) {
    std::uint32_t side = 1;
    while (side < static_cast<std::uint32_t>(std::max(w, h))) side <<= 1;
    std::vector<int> expected;
    for (std::uint32_t code = 0; code < side * side; ++code) {
      std::uint32_t x, y;
      morton2d_decode(code, x, y);
      if (x < static_cast<std::uint32_t>(w) && y < static_cast<std::uint32_t>(h))
        expected.push_back(static_cast<int>(y) * w + static_cast<int>(x));
    }
    std::vector<int> order = {42};  // stale contents are replaced
    morton_pixel_order(w, h, order);
    EXPECT_EQ(order, expected) << w << "x" << h;
  }
}

TEST(Morton, Morton3dDistinctAndBounded) {
  std::set<std::uint32_t> seen;
  for (std::uint32_t x = 0; x < 8; ++x)
    for (std::uint32_t y = 0; y < 8; ++y)
      for (std::uint32_t z = 0; z < 8; ++z) {
        const std::uint32_t code = morton3d(x * 128, y * 128, z * 128);
        EXPECT_LT(code, 1u << 30);
        EXPECT_TRUE(seen.insert(code).second) << "collision";
      }
}

TEST(Morton, LocalityProperty) {
  // Adjacent cells along x differ less in code than distant cells (on
  // average) — the property that makes Morton order cache-friendly.
  double near_sum = 0, far_sum = 0;
  for (std::uint32_t x = 0; x < 100; ++x) {
    near_sum += std::abs(static_cast<double>(morton3d(x + 1, 5, 5)) - morton3d(x, 5, 5));
    far_sum += std::abs(static_cast<double>(morton3d(x + 500, 5, 5)) - morton3d(x, 5, 5));
  }
  EXPECT_LT(near_sum, far_sum);
}

TEST(Rng, DeterministicAndInRange) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    const float fa = a.next_float();
    EXPECT_EQ(fa, b.next_float());
    EXPECT_GE(fa, 0.0f);
    EXPECT_LT(fa, 1.0f);
  }
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng(7);
  std::set<int> seen;
  for (int i = 0; i < 200; ++i) {
    const int v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, HemisphereSamplesAreUnitAndOriented) {
  Rng rng(11);
  const Vec3f n = normalize(Vec3f{1, 2, -1});
  for (int i = 0; i < 500; ++i) {
    const Vec3f s = sample_hemisphere(n, rng.next_float(), rng.next_float());
    EXPECT_NEAR(length(s), 1.0f, 1e-4f);
    EXPECT_GE(dot(s, n), -1e-4f);
  }
}

TEST(ColorTable, EndpointsMatchControlPoints) {
  const ColorTable ct = ColorTable::grayscale();
  EXPECT_NEAR(ct.sample(0.0f).x, 0.0f, 0.01f);
  EXPECT_NEAR(ct.sample(1.0f).x, 1.0f, 0.01f);
  EXPECT_NEAR(ct.sample(0.5f).x, 0.5f, 0.01f);
}

TEST(ColorTable, ClampsOutOfRange) {
  const ColorTable ct = ColorTable::cool_warm();
  EXPECT_EQ(ct.sample(-1.0f).x, ct.sample(0.0f).x);
  EXPECT_EQ(ct.sample(2.0f).x, ct.sample(1.0f).x);
}

TEST(TransferFunction, AlphaRampIsMonotonic) {
  const TransferFunction tf(ColorTable::cool_warm(), 0.0f, 0.5f);
  float prev = -1.0f;
  for (int i = 0; i <= 10; ++i) {
    const float a = tf.sample(static_cast<float>(i) / 10.0f).w;
    EXPECT_GE(a, prev);
    prev = a;
  }
}

TEST(TransferFunction, AlphaCorrection) {
  EXPECT_NEAR(TransferFunction::correct_alpha(0.5f, 1.0f), 0.5f, 1e-6f);
  EXPECT_NEAR(TransferFunction::correct_alpha(0.5f, 2.0f), 0.75f, 1e-6f);
  // Shorter segments are more transparent.
  EXPECT_LT(TransferFunction::correct_alpha(0.5f, 0.5f), 0.5f);
}

}  // namespace
}  // namespace isr
