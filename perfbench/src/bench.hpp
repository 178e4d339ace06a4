// Shared declarations of the perfbench program: the run options parsed from
// the command line, the per-run result every workload fills, and the three
// closed-loop workloads (README.md says why each exists).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

struct Result {
  // False once any correctness check failed; perfbench then exits 1.
  bool correct = true;
  long attempted = 0;
  long failed = 0;  // attempted operations not kOk or failing a check
  // Measured values by metric name. run.py prints the end-to-end set
  // (untraced run) or the per-layer set (traced run) from these; a
  // per-layer metric a workload does not exercise is absent and prints 0.
  std::map<std::string, double> values;
  // Extra stamp fields (raw JSON values): sample counts behind each
  // percentile, cycle counts, configuration.
  std::map<std::string, std::string> stamp;
  std::vector<Span> spans;
  // One line per failed check, printed to stderr.
  std::vector<std::string> failures;

  void fail(std::string why);
};

// Each workload sets itself up (timed as setup_s), runs closed-loop cycles
// for opt.seconds (longer only when a reported percentile still lacks its
// samples), checks its outputs, and fills a Result.
Result run_api_cold(const Options& opt);
Result run_wire_zipf_recal(const Options& opt);
Result run_calibrate(const Options& opt);

// Set-up runs several times per run and setup_s is their median: 3 times
// for the serving workloads (about 4 s each), 7 for calibrate (about 0.4 s
// each, so more of them are needed for a steady median).
constexpr int kServingSetupReps = 3;
constexpr int kCalibrateSetupReps = 7;

// A run measures at least opt.seconds and, when a summary still lacks its
// samples, keeps going up to kMaxStretch * opt.seconds.
constexpr double kMaxStretch = 3.0;

// The probe reading a workload's cycles are corrected by: the part whose
// work is most like the workload's own. kText is the sort-and-format part
// alone, for wire_zipf_recal, whose cycles are parsing and formatting;
// kAll is the geometric mean of the three parts, for the other workloads
// and for every set-up (calibration fits).
enum class HostReading { kAll, kText };

// The reference readings that define the host speed the end-to-end figures
// are expressed at: about the fast-state readings on the 4-vCPU guest the
// benchmark was tuned on.
constexpr double kReferenceAllUs = 3200.0;
constexpr double kReferenceTextUs = 2900.0;

// How often the serving loops take a host-probe sample between cycles.
constexpr double kProbeEveryS = 0.25;

// Two consecutive host-probe samples whose factors differ by more than this
// ratio saw the host switch state between them.
constexpr double kHostAgree = 1.15;

// The closed loop's set-ups and cycle timings, corrected to the reference
// host speed (README.md, "Host-speed correction"). A set-up is divided by
// the factor of the sample before it. A cycle waits for the next sample: if
// the two samples around it agree, it is divided by their mean factor; if
// they do not, the host switched state at some unknown point between them,
// and the cycle is dropped from the summaries (its outputs were still
// checked). Untraced cycles feed the end-to-end summary; in a traced run
// every other cycle is traced, and the two halves' rates give the tracing
// overhead. A run needs `min_windows` windows that hold enough cycles for
// the p90 rule.
struct CycleStats {
  CycleStats(std::size_t min_windows, HostReading reading)
      : min_windows(min_windows), reading(reading) {}

  // Takes a host-probe sample outside any timed section.
  void probe();
  void add_setup(double seconds);
  void add(bool traced, std::size_t window, double cycle_s, long ops);
  std::size_t full_windows() const;

  struct Cycle {
    bool traced;
    std::size_t window;
    double cycle_s;
    long ops;
  };
  void record(const Cycle& c, double host_factor);

  std::size_t min_windows;
  HostReading reading;
  HostProbe host_probe;
  double host = 1.0;                 // the latest sample's reading over the reference
  double setup_host = 1.0;           // the same for kAll, which set-ups use
  std::vector<double> host_factors;  // every sample's `host`
  std::vector<Cycle> pending;        // cycles since the latest sample
  long dropped_cycles = 0;
  std::vector<double> setup_s;       // corrected
  std::vector<double> raw_setup_s;
  Windows windows;                   // untraced cycles, corrected
  std::vector<double> cycle_ms;      // untraced cycles, corrected, whole run
  std::vector<double> raw_cycle_ms;  // the same, as measured
  double busy_s = 0.0;               // corrected
  double raw_busy_s = 0.0;
  long ops = 0;
  double traced_busy_s = 0.0;
  long traced_ops = 0;
  long traced_cycles = 0;
};

// The timed loop's stopping rule: true while the run is shorter than
// opt.seconds, or (untraced, below the stretch cap) while the windows are
// still short of st.min_windows.
bool keep_running(double elapsed_s, const Options& opt, const CycleStats& st);

// Fills the end-to-end values of an untraced run: ops_per_s, cycle_p50_ms
// and cycle_p90_ms from the window summary, and setup_s as the median
// set-up. Fails the run when too few windows could be summarized. The stamp
// gets the host factors, the uncorrected figures, the whole-run figures and
// the sample counts. A traced run gets trace.overhead_frac instead of the
// end-to-end values.
void report_cycles(CycleStats& st, const Options& opt, Result& result);

// Keeps every CPU this process may use out of the idle state for the run:
// one SCHED_IDLE thread per CPU, pinned, spinning on a pause loop. On a
// virtual machine an idle vCPU halts, and waking it again goes through the
// hypervisor, whose latency follows the co-tenants' load; the closed loops
// hand work between threads thousands of times a second, so that latency
// would dominate their figures (README.md, "Idle spinners"). A SCHED_IDLE
// thread yields its CPU to any ordinary thread at once, so the program's
// own threads never wait for a spinner.
class IdleSpinners {
 public:
  IdleSpinners();
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

  // Spinners that could be pinned and switched to SCHED_IDLE.
  int active() const { return active_.load(); }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<int> active_{0};
  std::vector<std::thread> threads_;
};

// Peak resident set size of this process in MiB.
double peak_rss_mb();

// Elapsed seconds on the steady clock.
double seconds_since(std::chrono::steady_clock::time_point t0);

}  // namespace perfbench
