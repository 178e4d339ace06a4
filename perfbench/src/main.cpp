// perfbench: runs one closed-loop workload against the insitu_perf library
// and prints one JSON object on stdout — correctness, attempted/failed
// operation counts, every measured value and the run's stamp. run.py turns
// it into the benchmark's result line; see README.md.
//
//   perfbench --workload api_cold|wire_zipf_recal|calibrate --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>

#include "bench.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload api_cold|wire_zipf_recal|calibrate "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n",
               why);
  std::exit(2);
}

bool parse_u64(const char* s, std::uint64_t& out) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
  out = v;
  return true;
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const char* val = argv[++i];
    std::uint64_t n = 0;
    if (arg == "--workload") {
      opt.workload = val;
      if (opt.workload != "api_cold" && opt.workload != "wire_zipf_recal" &&
          opt.workload != "calibrate")
        usage(("unknown workload " + opt.workload).c_str());
      have_workload = true;
    } else if (arg == "--seed") {
      if (!parse_u64(val, n)) usage("--seed must be a non-negative integer");
      opt.seed = n;
      have_seed = true;
    } else if (arg == "--seconds") {
      if (!parse_u64(val, n) || n == 0 || n > 3600) usage("--seconds must be in 1..3600");
      opt.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (arg == "--trace") {
      if (!parse_u64(val, n) || n > 1) usage("--trace must be 0 or 1");
      opt.trace = n == 1;
      have_trace = true;
    } else if (arg == "--out-dir") {
      opt.out_dir = val;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    usage("--workload, --seed, --seconds and --trace are required");

  // The serving loops hand work between threads thousands of times a
  // second, so they run with idle spinners (README.md); calibrate is
  // compute-bound and runs without them.
  std::unique_ptr<perfbench::IdleSpinners> spinners;
  if (opt.workload != "calibrate") spinners = std::make_unique<perfbench::IdleSpinners>();
  perfbench::Result result;
  try {
    if (opt.workload == "api_cold")
      result = perfbench::run_api_cold(opt);
    else if (opt.workload == "wire_zipf_recal")
      result = perfbench::run_wire_zipf_recal(opt);
    else
      result = perfbench::run_calibrate(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  result.values["peak_rss_mb"] = perfbench::peak_rss_mb();
  result.values["ok_frac"] =
      result.attempted > 0
          ? static_cast<double>(result.attempted - result.failed) / static_cast<double>(result.attempted)
          : 0.0;
  if (result.attempted == 0) result.fail("no operation was attempted");

  result.stamp["nproc"] = std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  result.stamp["compiler"] = "\"" PERFBENCH_COMPILER "\"";
  result.stamp["build_type"] = "\"" PERFBENCH_BUILD_TYPE "\"";
  result.stamp["idle_spinners"] = std::to_string(spinners ? spinners->active() : 0);

  if (opt.trace) {
    mkdir(opt.out_dir.c_str(), 0755);
    const std::string path = opt.out_dir + "/spans_" + opt.workload + "_seed" +
                             std::to_string(opt.seed) + ".jsonl";
    if (perfbench::write_spans(path, result.spans))
      result.stamp["spans_file"] = "\"" + path + "\"";
    else
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }

  for (const std::string& why : result.failures)
    std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());

  std::string line = "{\"workload\":\"" + opt.workload + "\",\"correct\":" +
                     (result.correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(result.attempted) +
                     ",\"failed\":" + std::to_string(result.failed) + ",\"values\":{";
  bool first = true;
  for (const auto& [name, value] : result.values) {
    line += (first ? "\"" : ",\"") + name + "\":" + json_number(value);
    first = false;
  }
  line += "},\"stamp\":{";
  first = true;
  for (const auto& [name, value] : result.stamp) {
    line += (first ? "\"" : ",\"") + name + "\":" + value;
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
