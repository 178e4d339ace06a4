// Device abstraction for the data-parallel primitive layer.
//
// A Device is where primitives "execute" and where their time is accounted.
// Two kinds exist:
//
//  * real devices (host CPU, serial or OpenMP): kernels are timed with the
//    wall clock;
//  * simulated devices (the GPU/MIC/large-CPU stand-ins; see DESIGN.md §3):
//    kernels still execute on the host so results are bit-exact, but the
//    reported time comes from a throughput cost model
//        t = launch_overhead + max(flops·divergence/peak, bytes/bandwidth)
//    with small multiplicative jitter so downstream statistics (regression,
//    cross-validation) behave like measurements instead of exact functions.
//
// Devices also keep the per-phase timing log the performance-model study
// consumes — the "data gathering infrastructure" of the dissertation's
// Chapter VI.
//
// Simulated devices differ only in how they price a kernel, so a render can
// be taped once (KernelTape) and priced on any other profile by replaying
// the tape (Device::replay) instead of rendering again.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "math/rng.hpp"

namespace isr::dpp {

// Per-kernel cost annotation supplied by algorithm authors. Values are
// per-element estimates; the defaults describe a light streaming kernel.
struct KernelCost {
  double flops_per_elem = 8.0;
  double bytes_per_elem = 32.0;
  // > 1 penalizes irregular control flow on wide-SIMD simulated devices
  // (e.g., BVH traversal); real devices ignore it.
  double divergence = 1.0;
};

struct DeviceProfile {
  std::string name = "host";
  bool simulated = false;
  int threads = 0;  // real devices: OpenMP threads (0 = all available)

  // Simulated-device parameters.
  double gflops = 50.0;         // effective elementwise compute throughput
  double bandwidth_gbs = 40.0;  // effective memory bandwidth
  double launch_us = 5.0;       // per-kernel launch overhead
  double clock_ghz = 2.5;       // used for IPC-style derived metrics
  double jitter_sigma = 0.05;   // relative measurement noise
};

struct PhaseRecord {
  double seconds = 0.0;
  double est_ops = 0.0;    // estimated arithmetic operations (PAPI stand-in)
  double est_bytes = 0.0;  // estimated bytes moved
  std::size_t kernels = 0;
};

struct TimingLog {
  std::map<std::string, PhaseRecord> phases;

  double total_seconds() const {
    double t = 0.0;
    for (const auto& [name, p] : phases) t += p.seconds;
    return t;
  }
  double phase_seconds(const std::string& name) const {
    auto it = phases.find(name);
    return it == phases.end() ? 0.0 : it->second.seconds;
  }
  // Estimated instructions-per-cycle for a phase given a device clock.
  double phase_ipc(const std::string& name, double clock_ghz) const {
    auto it = phases.find(name);
    if (it == phases.end() || it->second.seconds <= 0.0) return 0.0;
    return it->second.est_ops / (it->second.seconds * clock_ghz * 1e9);
  }
};

// The kernels a Device recorded while the tape was attached, in order, and
// a segment mark per reset_timings(). Segment i holds the kernels from mark
// i up to the next mark (or the end): exactly what the live device's
// timings() held when a renderer read it, e.g. a RayTracer's BVH build is
// the first segment and its render the last.
struct KernelTape {
  struct Kernel {
    std::string phase;
    std::size_t n = 0;
    KernelCost cost;
  };
  std::vector<Kernel> kernels;
  std::vector<std::size_t> marks;  // kernels.size() at each reset_timings()
};

class Device {
 public:
  explicit Device(DeviceProfile profile, std::uint64_t jitter_seed = 0x5EEDu);

  // The host CPU with OpenMP threading (threads = 0 uses all cores).
  static Device host(int threads = 0);
  // The host CPU, single thread, no OpenMP.
  static Device serial();
  // A simulated device from a profile (see profiles.hpp).
  static Device simulated(DeviceProfile profile, std::uint64_t jitter_seed = 0x5EEDu);

  // Prices a tape on a fresh simulated(profile, jitter_seed) and returns one
  // TimingLog per segment. Jitter is drawn in tape order, so the logs equal,
  // bit for bit, the ones a live render on that device would have reported.
  // Kernels before the first mark are priced but belong to no segment, as
  // the live device's first reset_timings() discards them.
  static std::vector<TimingLog> replay(const KernelTape& tape, DeviceProfile profile,
                                       std::uint64_t jitter_seed);

  const DeviceProfile& profile() const { return profile_; }
  bool is_simulated() const { return profile_.simulated; }
  int thread_count() const;

  // --- Phase accounting -------------------------------------------------
  void begin_phase(std::string name);
  void end_phase();
  const std::string& current_phase() const;
  TimingLog& timings() { return log_; }
  const TimingLog& timings() const { return log_; }
  void reset_timings() {
    log_ = TimingLog{};
    if (tape_) tape_->marks.push_back(tape_->kernels.size());
  }

  // While a tape is attached, every record_kernel() and reset_timings() is
  // appended to it (nullptr detaches). The tape is not owned.
  void attach_tape(KernelTape* tape) { tape_ = tape; }

  // Called by every primitive after executing a kernel over n elements.
  // wall_seconds is the measured host time; simulated devices replace it
  // with the cost model.
  void record_kernel(std::size_t n, const KernelCost& cost, double wall_seconds);

  // Simulated time for a kernel without executing it (used by the virtual
  // MPI layer for per-rank local work it does not replay).
  double model_kernel_seconds(std::size_t n, const KernelCost& cost);

 private:
  void account(const std::string& phase, std::size_t n, const KernelCost& cost,
               double seconds);

  DeviceProfile profile_;
  TimingLog log_;
  std::vector<std::string> phase_stack_;
  Rng jitter_;
  KernelTape* tape_ = nullptr;
};

// RAII phase scope: `ScopedPhase p(dev, "sampling");`
class ScopedPhase {
 public:
  ScopedPhase(Device& dev, std::string name) : dev_(dev) {
    dev_.begin_phase(std::move(name));
  }
  ~ScopedPhase() { dev_.end_phase(); }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  Device& dev_;
};

}  // namespace isr::dpp
