#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

/// \file
/// The four workloads. Each builds its population from the seed, drives
/// the library only through its public calls (sbqa::Engine for serve_*,
/// experiments::RunScenario for sim_*), checks the outputs, and fills both
/// metric sets it can measure.

#include "report.h"

namespace perfbench {

/// Live wall-clock serving on the thread-per-shard sbqa::Engine.
/// `cross_shard` adds the hot consumer, the scarce class served only on
/// another shard, federation, and provider joins during the traffic.
WorkloadResult RunServe(const RunArgs& args, bool cross_shard);

/// The paper's autonomous BOINC scenario on the discrete-event simulator:
/// one shard, or four shards with federation.
WorkloadResult RunSim(const RunArgs& args, bool sharded);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
