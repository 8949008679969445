/// \file
/// sim_boinc and sim_boinc_sharded: the paper's autonomous BOINC scenario
/// (three projects, churn, joins, departures) through
/// experiments::RunScenario, on one shard or on four with federation.
///
/// One benchmark operation is one whole simulated run of a scenario. A
/// benchmark run cycles through its scenario seeds (the seed itself, and
/// on four shards three more derived from it) until every one has run and
/// --seconds of wall time have passed; every repetition of a scenario seed
/// must reproduce its first run bit for bit. Set-up ends when the first
/// population is built (the scenario's population hook fires), so set-up
/// is timed apart from the simulation.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/mediation.h"
#include "core/registry.h"
#include "experiments/demo_scenarios.h"
#include "experiments/runner.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using sbqa::core::OutcomeKind;

constexpr size_t kVolunteers = 20000;
constexpr double kDuration = 600;  // simulated seconds
constexpr uint32_t kShardedShards = 4;
constexpr uint32_t kHopBudget = 2;
/// Scenario seeds per benchmark run. On four shards the tail metrics move
/// a lot from one population to the next (one shard's overload decides
/// `response_p99_s`), so the quality metrics are the mean over four
/// scenarios; on one shard they move little and the seed alone is run.
constexpr uint64_t kShardedScenarioSeeds = 4;
/// Simulation step for the latency samples, and the steps per window.
constexpr double kStep = 0.1;  // simulated seconds
constexpr size_t kStepsPerWindow = 1000;
/// Steps per throughput window (10 simulated s, about 0.1 wall s). Rates
/// over short windows, summarized by quantiles, are not moved by a stall
/// of the host the way one whole-run mean is.
constexpr int kStepsPerRateWindow = 100;
constexpr size_t kMaxRateWindows = 1 << 14;

/// Checks every finalized query and counts what the run summary counts,
/// along the observer path.
class OutcomeObserver : public sbqa::core::MediationObserver {
 public:
  void Reset(const sbqa::core::Registry* registry) {
    registry_ = registry;
    last_step_ = 0;
    last_step_ns_ = 0;
    finalized_ = 0;
    finalized_at_step_ = 0;
    window_ns_ = 0;
    window_queries_ = 0;
    window_steps_ = 0;
    taxonomy_ = {};
    split_ = {};
    hops_.assign(8, 0);
    bad_ = 0;
    mask_ = 0;
  }

  void OnQueryCompleted(const sbqa::core::QueryOutcome& o) override {
    ++finalized_;
    const double step = std::floor(o.completed_at / kStep);
    if (step > last_step_) {
      // Wall time the simulator takes per kStep of simulated time, sampled
      // where finalizations cross into a new step.
      // The query at hand is the first of the new step.
      const int64_t now = NowNs();
      if (last_step_ns_ != 0 && step_us_->size() < step_us_->capacity()) {
        step_us_->push_back(static_cast<float>(
            static_cast<double>(now - last_step_ns_) / 1e3 /
            (step - last_step_)));
      }
      if (last_step_ns_ != 0) {
        window_ns_ += now - last_step_ns_;
        window_queries_ += finalized_ - 1 - finalized_at_step_;
        if (++window_steps_ == kStepsPerRateWindow) {
          if (rates_->size() < rates_->capacity()) {
            rates_->push_back(static_cast<double>(window_queries_) * 1e9 /
                              static_cast<double>(window_ns_));
          }
          window_ns_ = 0;
          window_queries_ = 0;
          window_steps_ = 0;
        }
      }
      finalized_at_step_ = finalized_ - 1;
      last_step_ns_ = now;
      last_step_ = step;
    }
    double max_capacity = 0;
    for (const sbqa::model::ProviderId p : o.performers) {
      max_capacity = std::max(max_capacity, registry_->provider(p).capacity());
    }
    ResultRecord record;
    record.submitted_at = o.query.issued_at;
    record.completed_at = o.completed_at;
    record.response_time = o.response_time;
    record.results_required = o.results_required;
    record.results_received = o.results_received;
    record.valid_results = o.valid_results;
    record.satisfaction = o.satisfaction;
    record.cost = o.query.cost;
    record.max_capacity = max_capacity;
    if (const uint32_t bad = CheckResult(record); bad != 0) {
      ++bad_;
      mask_ |= bad;
    }
    const size_t h = static_cast<size_t>(std::max(0, o.hops));
    if (h >= hops_.size()) hops_.resize(h + 1, 0);
    ++hops_[h];
    switch (sbqa::core::ClassifyOutcome(o)) {
      case OutcomeKind::kSatisfied: ++taxonomy_.satisfied; break;
      case OutcomeKind::kRetried: ++taxonomy_.recovered; break;
      case OutcomeKind::kTimedOut:
        ++taxonomy_.timed_out;
        ++split_.timed_out;
        break;
      case OutcomeKind::kFailed:
        ++taxonomy_.failed;
        if (o.unallocated) {
          ++split_.unallocated;
        } else {
          ++split_.failed;
        }
        break;
      case OutcomeKind::kShed: ++split_.shed; break;
    }
  }

  /// Where the per-step wall times and the per-window rates (finalized
  /// queries per wall second) go; reserved by the caller, the observer
  /// never grows them.
  void set_samples(std::vector<float>* step_us, std::vector<double>* rates) {
    step_us_ = step_us;
    rates_ = rates;
  }

  int64_t finalized() const { return finalized_; }
  const Taxonomy& taxonomy() const { return taxonomy_; }
  const FailureSplit& split() const { return split_; }
  const std::vector<int64_t>& hops() const { return hops_; }
  int64_t bad() const { return bad_; }
  uint32_t mask() const { return mask_; }

 private:
  const sbqa::core::Registry* registry_ = nullptr;
  std::vector<float>* step_us_ = nullptr;
  std::vector<double>* rates_ = nullptr;
  double last_step_ = 0;
  int64_t last_step_ns_ = 0;
  int64_t finalized_ = 0;
  int64_t finalized_at_step_ = 0;
  int64_t window_ns_ = 0;
  int64_t window_queries_ = 0;
  int window_steps_ = 0;
  Taxonomy taxonomy_;
  FailureSplit split_;
  std::vector<int64_t> hops_;
  int64_t bad_ = 0;
  uint32_t mask_ = 0;
};

/// The autonomous BOINC scenario as `sbqa_cli --env=autonomous --churn
/// --joins` configures it.
sbqa::experiments::ScenarioConfig BoincConfig(uint64_t seed, bool sharded,
                                              bool trace) {
  sbqa::experiments::ScenarioConfig config =
      sbqa::experiments::WithAutonomousEnvironment(
          sbqa::experiments::BaseDemoConfig(seed, kVolunteers, kDuration));
  config.churn.enabled = true;
  config.churn.mean_online = 400;
  config.churn.mean_offline = 60;
  config.joins.enabled = true;
  config.joins.rate = 0.05 * static_cast<double>(kVolunteers) / 200.0;
  config.joins.max_joins = kVolunteers;
  config.sim.decision_timing = trace;
  if (sharded) {
    config.sim.shard_count = kShardedShards;
    // The calling thread runs the shards in turn: with a worker thread per
    // shard as well the process wants more cores than the host gives it,
    // and 120 000 barrier hand-offs per run then measure the host's
    // scheduler. Both modes produce identical traces.
    config.sim.shard_use_threads = false;
    config.federation.enabled = true;
    config.federation.hop_budget = kHopBudget;
  }
  return config;
}

QualityRecord Quality(const sbqa::metrics::RunSummary& s) {
  QualityRecord q;
  q.consumer_satisfaction = s.consumer_satisfaction;
  q.provider_satisfaction = s.provider_satisfaction;
  q.provider_retention = s.provider_retention;
  q.response_p99 = s.p99_response_time;
  q.queries_finalized = s.queries_finalized;
  q.messages_sent = s.messages_sent;
  return q;
}

void CheckRun(const sbqa::metrics::RunSummary& s,
              const OutcomeObserver& observer, CheckLog* log) {
  log->Expect(observer.bad() == 0,
              std::to_string(observer.bad()) + " results wrong: " +
                  DescribeResultViolations(observer.mask()));
  log->Expect(s.queries_finalized == s.queries_submitted,
              "run summary: " + std::to_string(s.queries_submitted) +
                  " submitted, " + std::to_string(s.queries_finalized) +
                  " finalized");
  log->Expect(observer.finalized() == s.queries_finalized,
              "observer saw " + std::to_string(observer.finalized()) +
                  " finalized queries, run summary " +
                  std::to_string(s.queries_finalized));
  Taxonomy reported;
  reported.satisfied = s.queries_satisfied;
  reported.recovered = s.queries_recovered;
  reported.failed = s.queries_failed;
  reported.timed_out = s.queries_timed_out;
  CheckTaxonomy("run summary", reported, s.queries_finalized, log);
  CheckTaxonomiesAgree(observer.taxonomy(), reported, log);
  CheckBorrowBalance(s.queries_delegated, s.queries_borrowed, log);
  CheckHopHistogram(observer.hops(), s.queries_finalized, s.queries_delegated,
                    s.queries_forwarded, s.queries_multi_hop, log);
}

}  // namespace

WorkloadResult RunSim(const RunArgs& args, bool sharded) {
  const uint64_t scenario_seeds = sharded ? kShardedScenarioSeeds : 1;
  OutcomeObserver observer;
  Clock::time_point population_built;
  auto population_hook = [&](sbqa::core::Registry* registry,
                             const sbqa::boinc::BuiltPopulation&,
                             sbqa::util::Rng*) {
    population_built = Clock::now();
    observer.Reset(registry);
  };

  WorkloadResult result;
  result.operation = "simulated scenario runs";
  std::vector<double> round_qps;
  std::vector<float> step_us;
  step_us.reserve(static_cast<size_t>(kDuration / kStep) * 16);
  std::vector<double> rates;
  rates.reserve(kMaxRateWindows);
  observer.set_samples(&step_us, &rates);
  double setup_s = 0;
  double membership_apply_s = 0;
  sbqa::core::ScoreKernelPhases phases;
  sbqa::experiments::RunResult first;
  std::vector<QualityRecord> quality;  // first run of each scenario seed
  Clock::time_point measure_start;
  do {
    const uint64_t k = round_qps.size() % scenario_seeds;
    sbqa::experiments::ScenarioConfig config = BoincConfig(
        sbqa::util::Rng::StreamSeed(args.seed, k), sharded, args.trace);
    config.population_hook = population_hook;
    config.observers = {&observer};
    sbqa::experiments::RunResult run = sbqa::experiments::RunScenario(config);
    const Clock::time_point done = Clock::now();
    const sbqa::metrics::RunSummary& s = run.summary;
    if (round_qps.empty()) {
      setup_s =
          std::chrono::duration<double>(population_built - ProcessStart())
              .count();
      measure_start = population_built;
    }
    const double simulate_s =
        std::chrono::duration<double>(done - population_built).count();
    round_qps.push_back(static_cast<double>(s.queries_finalized) / simulate_s);
    membership_apply_s += run.membership_apply_seconds;
    phases.Accumulate(run.decision_phases);
    CheckRun(s, observer, &result.checks);
    if (quality.size() == k) {
      quality.push_back(Quality(s));
    } else {
      CheckReproducible(quality[k], Quality(s), &result.checks);
    }
    if (round_qps.size() == 1) {
      const FailureSplit& split = observer.split();
      char line[320];
      std::snprintf(
          line, sizeof(line),
          "simulated queries (seed %llu): %lld finalized; %lld satisfied, "
          "%lld recovered, %lld timed out, %lld failed, %lld unallocated, "
          "%lld shed",
          static_cast<unsigned long long>(args.seed),
          static_cast<long long>(s.queries_finalized),
          static_cast<long long>(s.queries_satisfied),
          static_cast<long long>(s.queries_recovered),
          static_cast<long long>(split.timed_out),
          static_cast<long long>(split.failed),
          static_cast<long long>(split.unallocated),
          static_cast<long long>(split.shed));
      result.notes.push_back(line);
      std::snprintf(line, sizeof(line),
                    "providers: %lld departed, %lld joined, %lld offline "
                    "spells; %lld delegated, %lld forwarded",
                    static_cast<long long>(s.provider_departures),
                    static_cast<long long>(s.provider_joins),
                    static_cast<long long>(s.provider_offline_events),
                    static_cast<long long>(s.queries_delegated),
                    static_cast<long long>(s.queries_forwarded));
      result.notes.push_back(line);
      first = std::move(run);
    }
  } while (round_qps.size() < scenario_seeds ||
           SecondsSince(measure_start) < args.seconds);

  const size_t rounds = round_qps.size();
  char line[200];
  std::snprintf(line, sizeof(line),
                "%zu volunteers, 3 projects, %.0f simulated s, %u shard%s%s; "
                "%llu scenario seed%s, %zu run%s",
                kVolunteers, kDuration, sharded ? kShardedShards : 1u,
                sharded ? "s" : "", sharded ? ", federation on" : "",
                static_cast<unsigned long long>(scenario_seeds),
                scenario_seeds == 1 ? "" : "s", rounds,
                rounds == 1 ? "" : "s");
  result.notes.insert(result.notes.begin(), line);
  std::string per_run = "queries/s per simulated run:";
  for (const double qps : round_qps) {
    std::snprintf(line, sizeof(line), " %.0f", qps);
    per_run += line;
  }
  result.notes.push_back(per_run);
  result.attempted = static_cast<int64_t>(rounds);

  QualityRecord mean;
  for (const QualityRecord& q : quality) {
    mean.consumer_satisfaction += q.consumer_satisfaction;
    mean.provider_satisfaction += q.provider_satisfaction;
    mean.provider_retention += q.provider_retention;
    mean.response_p99 += q.response_p99;
  }
  const double n = static_cast<double>(quality.size());
  const sbqa::metrics::RunSummary& s = first.summary;
  result.end_to_end = {
      {"setup_s", setup_s, "s"},
      {"peak_qps", Quantile(&rates, 0.9), "queries/s"},
      {"latency_p50_us", WindowedQuantile(step_us, kStepsPerWindow, 0.50),
       "us"},
      {"latency_p99_us", WindowedQuantile(step_us, kStepsPerWindow, 0.99),
       "us"},
      {"sim_qps", Median(rates), "queries/s"},
      {"consumer_satisfaction", mean.consumer_satisfaction / n, "1"},
      {"provider_satisfaction", mean.provider_satisfaction / n, "1"},
      {"provider_retention", mean.provider_retention / n, "1"},
      {"response_p99_s", mean.response_p99 / n, "s"},
      {"peak_rss_mb", PeakRssMiB(), "MiB"},
  };

  const double finalized = static_cast<double>(s.queries_finalized);
  const double per_query = finalized > 0 ? 1.0 / finalized : 0;
  const double decisions =
      phases.decisions > 0 ? static_cast<double>(phases.decisions) : 1.0;
  result.per_layer = {
      {"engine.submit_ns", 0, "ns"},
      {"engine.submit_p99_ns", 0, "ns"},
      {"engine.allocs_per_query", 0, "allocs/query"},
      {"load.send_lag_p99_us", 0, "us"},
      {"runtime.barrier_rtt_us", 0, "us"},
      {"runtime.barriers_per_kquery", 0, "1/kquery"},
      {"runtime.early_barriers", 0, "1/kquery"},
      {"runtime.tasks_per_query", 0, "tasks/query"},
      {"runtime.shard_skew", 0, "ratio"},
      {"core.decision_ns", phases.total_ns() / decisions, "ns"},
      {"core.sample_ns", phases.sample_ns / decisions, "ns"},
      {"core.gather_ns", phases.gather_ns / decisions, "ns"},
      {"core.intentions_ns", phases.intentions_ns / decisions, "ns"},
      {"core.score_ns", phases.score_ns / decisions, "ns"},
      {"core.rank_ns", phases.rank_ns / decisions, "ns"},
      {"federation.delegated_per_kquery",
       1000.0 * static_cast<double>(s.queries_delegated) * per_query,
       "1/kquery"},
      {"federation.forwarded_per_kquery",
       1000.0 * static_cast<double>(s.queries_forwarded) * per_query,
       "1/kquery"},
      {"federation.mean_hops", s.mean_borrow_hops, "hops/query"},
      {"sim.messages_per_query", static_cast<double>(s.messages_sent) * per_query,
       "msgs/query"},
      {"sim.membership_apply_s",
       membership_apply_s / static_cast<double>(rounds), "s"},
      {"sim.membership_ops", static_cast<double>(first.membership_ops),
       "count"},
  };
  return result;
}

}  // namespace perfbench
