// Table 6 (Chapter III): per-kernel time, registers per thread, and
// achieved occupancy of the unstructured volume renderer on the GPU
// (Enzo-10M, close view, 4 passes). Times are measured (simulated device);
// register counts and occupancy are the paper's nvprof values, reproduced
// as documented constants of the CUDA kernels we model (docs/PAPER_MAP.md).
#include <cstdio>

#include "common.hpp"
#include "dpp/profiles.hpp"
#include "math/colormap.hpp"
#include "render/uvr/unstructured.hpp"

using namespace isr;

int main() {
  bench::print_header("Table 6: UVR kernel statistics on GPU1 (Enzo-10M close, 4 passes)",
                      "Times measured; registers/occupancy are modeled kernel attributes.");

  const mesh::TetMesh tets = bench::ch3_dataset("Enzo-10M");
  const int edge = bench::scaled(1024, 96);
  const Camera cam = bench::close_camera(tets.bounds(), edge, edge);
  dpp::Device dev = dpp::Device::simulated(dpp::profile_gpu1());
  render::UnstructuredVolumeRenderer uvr(tets, dev);
  const TransferFunction tf(ColorTable::cool_warm(), 0.0f, 0.25f);
  render::Image img;
  render::UnstructuredVROptions opt;
  opt.num_passes = 4;
  opt.samples_in_depth = bench::scaled(1000, 64);
  const render::RenderStats stats = uvr.render(cam, tf, img, opt);

  struct KernelInfo {
    const char* phase;
    const char* label;
    int registers;
    int occupancy;
  };
  const KernelInfo kernels[] = {{"screen_space", "Screen Space", 70, 38},
                                {"sampling", "Sampling", 57, 47},
                                {"compositing", "Compositing", 37, 68}};

  std::printf("%-14s %10s %10s %10s\n", "Kernel", "Time", "Registers", "Occupancy");
  bench::print_rule();
  for (const KernelInfo& k : kernels)
    std::printf("%-14s %9.4fs %10d %9d%%\n", k.label, stats.phase_seconds(k.phase),
                k.registers, k.occupancy);
  std::printf("\n(tets=%zu, image=%dx%d; pass selection omitted as in the paper —\n"
              "it spans multiple primitives/CUDA kernels.)\n"
              "Expected shape: compositing dominates on the GPU despite its higher\n"
              "occupancy (scattered per-sample memory traffic).\n",
              tets.cell_count(), edge, edge);
  return 0;
}
