#include "dpp/device.hpp"

#include <algorithm>
#include <cmath>
#include <thread>

#ifdef ISR_HAVE_OPENMP
#include <omp.h>
#endif

namespace isr::dpp {

namespace {
const std::string kDefaultPhase = "other";
}

Device::Device(DeviceProfile profile, std::uint64_t jitter_seed)
    : profile_(std::move(profile)), jitter_(jitter_seed) {}

Device Device::host(int threads) {
  DeviceProfile p;
  p.name = "host";
  p.simulated = false;
  p.threads = threads;
  p.clock_ghz = 2.5;
  return Device(p);
}

Device Device::serial() {
  DeviceProfile p;
  p.name = "host-serial";
  p.simulated = false;
  p.threads = 1;
  p.clock_ghz = 2.5;
  return Device(p);
}

Device Device::simulated(DeviceProfile profile, std::uint64_t jitter_seed) {
  profile.simulated = true;
  return Device(std::move(profile), jitter_seed);
}

int Device::thread_count() const {
  if (profile_.threads > 0) return profile_.threads;
#ifdef ISR_HAVE_OPENMP
  return omp_get_max_threads();
#else
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
#endif
}

void Device::begin_phase(std::string name) { phase_stack_.push_back(std::move(name)); }

void Device::end_phase() {
  if (!phase_stack_.empty()) phase_stack_.pop_back();
}

const std::string& Device::current_phase() const {
  return phase_stack_.empty() ? kDefaultPhase : phase_stack_.back();
}

double Device::model_kernel_seconds(std::size_t n, const KernelCost& cost) {
  const double nd = static_cast<double>(n);
  const double compute = nd * cost.flops_per_elem * cost.divergence / (profile_.gflops * 1e9);
  const double memory = nd * cost.bytes_per_elem / (profile_.bandwidth_gbs * 1e9);
  double t = profile_.launch_us * 1e-6 + std::max(compute, memory);
  if (profile_.jitter_sigma > 0.0) {
    // Multiplicative noise so larger kernels have proportionally larger
    // variance, as real measurements do.
    const double u = jitter_.next_double() * 2.0 - 1.0;
    t *= std::max(0.05, 1.0 + profile_.jitter_sigma * u);
  }
  return t;
}

void Device::record_kernel(std::size_t n, const KernelCost& cost, double wall_seconds) {
  const std::string& phase = current_phase();
  if (tape_) tape_->kernels.push_back({phase, n, cost});
  account(phase, n, cost, profile_.simulated ? model_kernel_seconds(n, cost) : wall_seconds);
}

void Device::account(const std::string& phase, std::size_t n, const KernelCost& cost,
                     double seconds) {
  PhaseRecord& rec = log_.phases[phase];
  rec.seconds += seconds;
  rec.est_ops += static_cast<double>(n) * cost.flops_per_elem;
  rec.est_bytes += static_cast<double>(n) * cost.bytes_per_elem;
  rec.kernels += 1;
}

std::vector<TimingLog> Device::replay(const KernelTape& tape, DeviceProfile profile,
                                      std::uint64_t jitter_seed) {
  Device dev = Device::simulated(std::move(profile), jitter_seed);
  std::vector<TimingLog> segments;
  std::size_t k = 0;
  // Pass m prices the kernels up to mark m (the last pass: to the end) and
  // closes the segment mark m - 1 opened.
  for (std::size_t m = 0; m <= tape.marks.size(); ++m) {
    const std::size_t end = m < tape.marks.size() ? tape.marks[m] : tape.kernels.size();
    for (; k < end; ++k) {
      const KernelTape::Kernel& kernel = tape.kernels[k];
      dev.account(kernel.phase, kernel.n, kernel.cost,
                  dev.model_kernel_seconds(kernel.n, kernel.cost));
    }
    if (m > 0) segments.push_back(std::move(dev.log_));
    dev.log_ = TimingLog{};
  }
  return segments;
}

}  // namespace isr::dpp
