#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

/// \file
/// What every workload returns, how it is printed, and the small timing and
/// order-statistics helpers the workloads share.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "checks.h"

namespace perfbench {

/// Command-line arguments of one run.
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Failed operations split by outcome.
struct FailureSplit {
  int64_t shed = 0;
  int64_t timed_out = 0;
  int64_t failed = 0;       ///< no results, allocated
  int64_t unallocated = 0;  ///< no provider could be allocated
  int64_t total() const { return shed + timed_out + failed + unallocated; }
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct WorkloadResult {
  /// Benchmark operations: queries for the serve workloads, whole scenario
  /// runs for the sim workloads.
  std::string operation;
  int64_t attempted = 0;
  FailureSplit failures;
  /// Extra report lines (populations, outcome splits of simulated queries).
  std::vector<std::string> notes;
  CheckLog checks;
  std::vector<Metric> end_to_end;  ///< filled by untraced runs
  std::vector<Metric> per_layer;   ///< filled by traced runs
};

/// Prints the human-readable report, then (as the last line) the JSON
/// object {correct, attempted, failed, metrics}. Returns the exit code.
int PrintResult(const RunArgs& args, const WorkloadResult& result);

// --- Time ----------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

/// Steady-clock instant of process start (taken during static
/// initialization, before main).
Clock::time_point ProcessStart();

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Peak resident set of this process, in MiB.
double PeakRssMiB();

/// Heap allocations of this process so far (the counting allocator lives
/// in main.cc, the one translation unit that may replace operator new).
uint64_t AllocationsSoFar();

// --- Order statistics -----------------------------------------------------------

/// q-quantile (q in [0, 1]) by nearest rank; reorders `values`.
double Quantile(std::vector<float>* values, double q);
double Quantile(std::vector<double>* values, double q);
double Median(std::vector<double> values);

/// Median over consecutive windows of `per_window` samples of each
/// window's q-quantile (all samples when there is no whole window): a host
/// hiccup that spoils a few windows moves it by a rank or two only.
double WindowedQuantile(const std::vector<float>& samples, size_t per_window,
                        double q);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
