/// \file
/// perfbench: one run of one workload of the mediation-engine benchmark.
///
///   perfbench --workload <serve_local|serve_crossshard|sim_boinc|
///                         sim_boinc_sharded>
///             --seed <n> --seconds <s> --trace <0|1>
///
/// Prints a report and, as its last line, one JSON object
/// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
/// with --trace 0, the per-layer metrics with --trace 1.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "util/counting_alloc.h"
#include "workloads.h"

namespace perfbench {

uint64_t AllocationsSoFar() { return sbqa::util::AllocationCount(); }

}  // namespace perfbench

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <serve_local|serve_crossshard|"
               "sim_boinc|sim_boinc_sharded> --seed <n> --seconds <s> "
               "--trace <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      args.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      args.seconds = std::atof(value);
    } else if (std::strcmp(flag, "--trace") == 0) {
      args.trace = std::strcmp(value, "0") != 0;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || args.seconds <= 0) return Usage();

  perfbench::WorkloadResult result;
  if (args.workload == "serve_local") {
    result = perfbench::RunServe(args, /*cross_shard=*/false);
  } else if (args.workload == "serve_crossshard") {
    result = perfbench::RunServe(args, /*cross_shard=*/true);
  } else if (args.workload == "sim_boinc") {
    result = perfbench::RunSim(args, /*sharded=*/false);
  } else if (args.workload == "sim_boinc_sharded") {
    result = perfbench::RunSim(args, /*sharded=*/true);
  } else {
    return Usage();
  }
  return perfbench::PrintResult(args, result);
}
