#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {
namespace {

const Clock::time_point kProcessStart = Clock::now();

template <typename T>
double QuantileOf(std::vector<T>* values, double q) {
  if (values->empty()) return 0;
  const size_t n = values->size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n) - 1;
  std::nth_element(values->begin(), values->begin() + static_cast<long>(rank),
                   values->end());
  return static_cast<double>((*values)[rank]);
}

}  // namespace

Clock::time_point ProcessStart() { return kProcessStart; }

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Quantile(std::vector<float>* values, double q) {
  return QuantileOf(values, q);
}
double Quantile(std::vector<double>* values, double q) {
  return QuantileOf(values, q);
}
double Median(std::vector<double> values) { return Quantile(&values, 0.5); }

double WindowedQuantile(const std::vector<float>& samples, size_t per_window,
                        double q) {
  std::vector<double> per;
  std::vector<float> window;
  for (size_t begin = 0; per_window > 0 && begin + per_window <= samples.size();
       begin += per_window) {
    window.assign(samples.begin() + static_cast<long>(begin),
                  samples.begin() + static_cast<long>(begin + per_window));
    per.push_back(Quantile(&window, q));
  }
  if (per.empty()) {
    window = samples;
    return Quantile(&window, q);
  }
  return Median(per);
}

int PrintResult(const RunArgs& args, const WorkloadResult& r) {
  std::printf("workload %s  seed %llu  seconds %g  trace %d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  for (const std::string& note : r.notes) std::printf("  %s\n", note.c_str());
  std::printf(
      "  operations (%s): attempted %lld, failed %lld "
      "(shed %lld, timed out %lld, failed %lld, unallocated %lld)\n",
      r.operation.c_str(), static_cast<long long>(r.attempted),
      static_cast<long long>(r.failures.total()),
      static_cast<long long>(r.failures.shed),
      static_cast<long long>(r.failures.timed_out),
      static_cast<long long>(r.failures.failed),
      static_cast<long long>(r.failures.unallocated));
  std::printf("  output checks: %d passed, %d failed\n", r.checks.passed(),
              r.checks.failed());
  for (const std::string& failure : r.checks.failures()) {
    std::printf("    FAILED: %s\n", failure.c_str());
  }
  // The report shows both sets (a traced run's end-to-end figures give the
  // tracing overhead); the JSON line carries the requested one.
  for (const std::vector<Metric>* set : {&r.end_to_end, &r.per_layer}) {
    for (const Metric& m : *set) {
      std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  const std::vector<Metric>& metrics = args.trace ? r.per_layer : r.end_to_end;

  std::string json = "{\"correct\": ";
  json += r.checks.ok() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failures.total());
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace perfbench
