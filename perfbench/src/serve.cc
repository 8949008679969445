/// \file
/// serve_local and serve_crossshard: live traffic against the wall-clock,
/// thread-per-shard sbqa::Engine, driven by one load thread.
///
/// Timeline of one run: set-up (population, Start) -> warm-up closed loop
/// -> measured closed loop (peak_qps) -> drain -> measured open loop at a
/// fixed rate (latency) -> drain -> checks. Every phase sends a number of
/// queries fixed by --seconds, so a run does the same work however fast
/// the host is. The load thread keeps a ticket
/// ledger of every Submit in a ring of slots; the outcome callback fills
/// the slot and runs the per-query property check, and the load thread
/// retires each slot (ledger check, outcome split, latency sample) before
/// reusing it, so the generator's memory does not grow with the run.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using sbqa::model::ConsumerId;
using sbqa::model::QueryClassId;

constexpr int kConsumersPerShard = 16;
constexpr int kProvidersPerShard = 32;
constexpr int kResults = 2;
constexpr double kMeanCost = 1e-4;  // 0.1 ms on a capacity-1 provider
constexpr double kCapacityLo = 10;
constexpr double kCapacityHi = 20;
/// serve_crossshard: the scarce class and its providers, all on the last
/// shard, and the hot consumer's share of the traffic.
constexpr QueryClassId kScarceClass = 1;
constexpr int kScarceProviders = 4;
constexpr double kScarceCapacity = 40;
constexpr double kScarceShare = 0.1;
constexpr double kHotShare = 0.3;
constexpr uint32_t kHopBudget = 2;
constexpr double kJoinInterval = 0.1;   // one provider join per 100 ms
constexpr double kProbeInterval = 0.01; // traced: one Stats probe per 10 ms
constexpr int kMaxJoins = 1200;

/// Closed loop: queries kept in flight. The admission cap is far above it,
/// so no query is shed; it only bounds the engine's pools.
constexpr int64_t kInFlight = 256;
/// Closed loop: queries sent per second of its half of --seconds, about
/// the 2-shard peak on a 4-core host, so the phase lasts about that long.
/// A count, not a duration: the mediator keeps one timeout-ring entry per
/// query until its timeout sweep runs (see FOUND in CHANGES.md), so peak
/// memory follows the number of queries sent, and a fixed count keeps it
/// from following the host's speed.
constexpr double kClosedLoopQueriesPerSecond = 400000;
constexpr int64_t kWarmupQueries = 200000;
constexpr int64_t kMaxPending = 16384;
/// Open loop: fixed offered rates (the same load on every commit), about
/// 40% of the closed-loop peak at 2 shards on a 4-core host. The loop
/// never holds more than kOpenInFlight queries: when the engine stalls,
/// sends wait, and the wait counts in their latency and in the send lag.
/// Without the cap a stall of a few tens of ms grows into shedding (see
/// README: near capacity the timer core's insertion turns quadratic).
constexpr double kLocalRate = 150000;
constexpr double kCrossRate = 150000;
constexpr int64_t kOpenInFlight = 2048;

constexpr double kWindowSeconds = 0.25;  // throughput/latency windows
constexpr double kDrainSeconds = 30;
constexpr size_t kRingSize = size_t{1} << 16;  // > kMaxPending, see Retire
constexpr size_t kStreamSize = size_t{1} << 14;
constexpr size_t kMaxSubmitSamples = size_t{1} << 22;

/// One query of the pre-generated stream (cycled).
struct StreamEntry {
  ConsumerId consumer = 0;
  QueryClassId query_class = 0;
  double cost = kMeanCost;
  /// Largest capacity among providers that can serve the class, joins
  /// included: the floor on the response time is cost / max_capacity.
  double max_capacity = 0;
};

/// Ledger row of one in-flight query. The callback writes the outcome
/// fields and then bumps `callbacks` (release); the load thread reads them
/// after acquiring `callbacks`.
struct alignas(64) Slot {
  std::atomic<uint32_t> callbacks{0};
  uint32_t violations = 0;
  uint64_t ticket_returned = 0;
  uint64_t ticket_delivered = 0;
  int64_t due_ns = 0;
  int64_t done_ns = 0;
  double response_time = 0;
  int32_t results_received = 0;
  sbqa::core::OutcomeKind outcome = sbqa::core::OutcomeKind::kSatisfied;
  bool shed = false;
  bool unallocated = false;
};

struct Population {
  std::vector<ConsumerId> consumers;
  int providers = 0;
  std::vector<double> join_capacities;
  std::vector<StreamEntry> stream;
};

/// The load generator: one thread submits, shard threads call back.
class Generator {
 public:
  Generator(sbqa::Engine* engine, const std::vector<StreamEntry>* stream,
            bool trace)
      : engine_(engine), stream_(stream), trace_(trace), ring_(kRingSize) {
    if (trace_) submit_ns_.reserve(kMaxSubmitSamples);
  }

  /// Sends `count` queries, keeping kInFlight in flight. With `windows`,
  /// records completed queries per kWindowSeconds window (queries/s).
  void ClosedLoop(int64_t count, std::vector<double>* windows) {
    const int64_t window_ns = static_cast<int64_t>(kWindowSeconds * 1e9);
    const int64_t end = next_ + count;
    int64_t window_start = NowNs();
    int64_t window_done = completed_.load(std::memory_order_acquire);
    while (next_ < end) {
      const int64_t now = NowNs();
      if (windows != nullptr && now - window_start >= window_ns) {
        const int64_t done = completed_.load(std::memory_order_acquire);
        windows->push_back(static_cast<double>(done - window_done) * 1e9 /
                           static_cast<double>(now - window_start));
        window_start = now;
        window_done = done;
      }
      if (next_ - completed_.load(std::memory_order_acquire) < kInFlight) {
        Send(now);
      }
    }
  }

  /// Sizes the open loop's sample buffers ahead of the measured phases.
  void PrepareOpenLoop(int64_t count) {
    latency_us_.assign(static_cast<size_t>(count), kMissingUs);
    response_s_.assign(static_cast<size_t>(count), kMissingS);
    send_lag_us_.assign(static_cast<size_t>(count), 0.0f);
  }

  /// Offers the prepared number of queries at `rate` per second from
  /// `start_ns`, each timed from its scheduled send.
  void OpenLoop(int64_t start_ns, double rate) {
    const int64_t count = static_cast<int64_t>(latency_us_.size());
    open_begin_ = next_;
    open_end_ = next_ + count;
    for (int64_t i = 0; i < count; ++i) {
      const int64_t due =
          start_ns + static_cast<int64_t>(static_cast<double>(i) * 1e9 / rate);
      int64_t now = NowNs();
      while (now < due ||
             next_ - completed_.load(std::memory_order_acquire) >=
                 kOpenInFlight) {
        now = NowNs();
      }
      send_lag_us_[static_cast<size_t>(i)] =
          static_cast<float>(static_cast<double>(now - due) / 1e3);
      Send(due);
    }
  }

  /// Waits until every sent query called back (or the budget ran out).
  bool WaitAllDone(double budget_seconds) {
    const Clock::time_point start = Clock::now();
    while (completed_.load(std::memory_order_acquire) < next_) {
      if (SecondsSince(start) > budget_seconds) return false;
      std::this_thread::yield();
    }
    return true;
  }

  /// Retires every slot still held (after the final drain).
  void RetireAll() {
    while (retired_ < next_) Retire(retired_);
  }

  /// Outcome callback body (shard threads; the load thread for shed).
  void OnOutcome(int64_t seq, const sbqa::QueryResult& r) {
    Slot& slot = ring_[static_cast<size_t>(seq) & (kRingSize - 1)];
    const StreamEntry& q = Query(seq);
    if (!r.shed) {
      ResultRecord record;
      record.submitted_at = r.submitted_at;
      record.completed_at = r.completed_at;
      record.response_time = r.response_time;
      record.results_required = r.results_required;
      record.results_received = r.results_received;
      record.valid_results = r.valid_results;
      record.satisfaction = r.satisfaction;
      record.cost = q.cost;
      record.max_capacity = q.max_capacity;
      slot.violations = CheckResult(record);
    }
    slot.ticket_delivered = r.ticket;
    slot.shed = r.shed;
    slot.unallocated = r.unallocated;
    slot.outcome = r.outcome;
    slot.results_received = r.results_received;
    slot.response_time = r.response_time;
    slot.done_ns = NowNs();
    slot.callbacks.fetch_add(1, std::memory_order_release);
    completed_.fetch_add(1, std::memory_order_release);
  }

  int64_t sent() const { return next_; }
  int64_t accepted() const { return accepted_; }
  int64_t outcomes() const { return outcomes_; }
  int64_t shed_seen() const { return split_.shed; }
  int64_t results_received() const { return results_received_; }
  const FailureSplit& split() const { return split_; }
  const Taxonomy& taxonomy() const { return taxonomy_; }
  int64_t ledger_bad() const { return ledger_bad_; }
  uint32_t ledger_mask() const { return ledger_mask_; }
  int64_t result_bad() const { return result_bad_; }
  uint32_t result_mask() const { return result_mask_; }
  std::vector<float>& latency_us() { return latency_us_; }
  std::vector<float>& response_s() { return response_s_; }
  std::vector<float>& send_lag_us() { return send_lag_us_; }
  std::vector<float>& submit_ns() { return submit_ns_; }
  int64_t last_done_ns() const { return last_done_ns_; }

 private:
  /// Sample of a failed operation: later than the generator ever waits,
  /// so it misses any latency limit.
  static constexpr float kMissingUs = kDrainSeconds * 1e6;
  static constexpr float kMissingS = kDrainSeconds;

  const StreamEntry& Query(int64_t seq) const {
    return (*stream_)[static_cast<size_t>(seq) & (kStreamSize - 1)];
  }

  void Send(int64_t due_ns) {
    const int64_t seq = next_;
    // The slot's previous occupant was sent kRingSize queries ago. At most
    // kMaxPending queries are ever in flight, so it has called back by now
    // unless the engine lost it (Retire waits a bounded time for it).
    if (seq >= static_cast<int64_t>(kRingSize)) {
      Retire(seq - static_cast<int64_t>(kRingSize));
    }
    Slot& slot = ring_[static_cast<size_t>(seq) & (kRingSize - 1)];
    slot.due_ns = due_ns;
    const StreamEntry& q = Query(seq);
    sbqa::QueryRequest request;
    request.consumer = q.consumer;
    request.query_class = q.query_class;
    request.n_results = kResults;
    request.cost = q.cost;
    ++next_;
    uint64_t ticket = 0;
    auto callback = [this, seq](const sbqa::QueryResult& r) {
      OnOutcome(seq, r);
    };
    if (trace_) {
      const int64_t t0 = NowNs();
      ticket = engine_->Submit(request, callback);
      if (submit_ns_.size() < submit_ns_.capacity()) {
        submit_ns_.push_back(static_cast<float>(NowNs() - t0));
      }
    } else {
      ticket = engine_->Submit(request, callback);
    }
    slot.ticket_returned = ticket;
    if (ticket != 0) ++accepted_;
  }

  void Retire(int64_t seq) {
    Slot& slot = ring_[static_cast<size_t>(seq) & (kRingSize - 1)];
    uint32_t calls = slot.callbacks.load(std::memory_order_acquire);
    if (calls == 0) {
      const Clock::time_point start = Clock::now();
      while ((calls = slot.callbacks.load(std::memory_order_acquire)) == 0 &&
             SecondsSince(start) < kDrainSeconds) {
        std::this_thread::yield();
      }
    }
    LedgerEntry entry;
    entry.ticket_returned = slot.ticket_returned;
    entry.ticket_delivered = slot.ticket_delivered;
    entry.callbacks = calls;
    entry.shed = calls > 0 && slot.shed;
    if (const uint32_t bad = CheckLedgerEntry(entry); bad != 0) {
      ++ledger_bad_;
      ledger_mask_ |= bad;
    }
    if (calls > 0) {
      if (slot.violations != 0) {
        ++result_bad_;
        result_mask_ |= slot.violations;
      }
      Classify(slot);
      last_done_ns_ = std::max(last_done_ns_, slot.done_ns);
      if (seq >= open_begin_ && seq < open_end_ && !slot.shed &&
          slot.outcome != sbqa::core::OutcomeKind::kFailed &&
          slot.outcome != sbqa::core::OutcomeKind::kTimedOut) {
        // Failed operations keep their kMissing samples.
        const size_t i = static_cast<size_t>(seq - open_begin_);
        latency_us_[i] =
            static_cast<float>(static_cast<double>(slot.done_ns -
                                                   slot.due_ns) /
                               1e3);
        response_s_[i] = static_cast<float>(slot.response_time);
      }
    }
    slot.callbacks.store(0, std::memory_order_relaxed);
    slot.violations = 0;
    slot.ticket_returned = 0;
    slot.ticket_delivered = 0;
    slot.shed = false;
    slot.unallocated = false;
    ++retired_;
  }

  void Classify(const Slot& slot) {
    using sbqa::core::OutcomeKind;
    if (slot.shed) {
      ++split_.shed;
      return;
    }
    ++outcomes_;
    results_received_ += slot.results_received;
    switch (slot.outcome) {
      case OutcomeKind::kSatisfied: ++taxonomy_.satisfied; break;
      case OutcomeKind::kRetried: ++taxonomy_.recovered; break;
      case OutcomeKind::kTimedOut:
        ++taxonomy_.timed_out;
        ++split_.timed_out;
        break;
      case OutcomeKind::kFailed:
        ++taxonomy_.failed;
        if (slot.unallocated) {
          ++split_.unallocated;
        } else {
          ++split_.failed;
        }
        break;
      case OutcomeKind::kShed: ++split_.shed; break;
    }
  }

  sbqa::Engine* engine_;
  const std::vector<StreamEntry>* stream_;
  const bool trace_;
  std::vector<Slot> ring_;
  std::atomic<int64_t> completed_{0};
  int64_t next_ = 0;
  int64_t retired_ = 0;
  int64_t accepted_ = 0;
  int64_t outcomes_ = 0;
  int64_t results_received_ = 0;
  FailureSplit split_;
  Taxonomy taxonomy_;
  int64_t ledger_bad_ = 0;
  uint32_t ledger_mask_ = 0;
  int64_t result_bad_ = 0;
  uint32_t result_mask_ = 0;
  int64_t open_begin_ = -1;
  int64_t open_end_ = -1;
  int64_t last_done_ns_ = 0;
  std::vector<float> latency_us_;
  std::vector<float> response_s_;
  std::vector<float> send_lag_us_;
  std::vector<float> submit_ns_;
};

/// Builds the population into `engine` (before Start) and the query
/// stream, all from the seed.
Population BuildPopulation(sbqa::Engine* engine, uint32_t shards,
                           bool cross_shard, uint64_t seed) {
  sbqa::util::Rng rng(seed);
  Population pop;

  const int consumers = kConsumersPerShard * static_cast<int>(shards);
  for (int c = 0; c < consumers; ++c) {
    sbqa::ConsumerOptions options;
    options.n_results = kResults;
    pop.consumers.push_back(engine->AddConsumer(options));
  }
  // Providers get contiguous id blocks per shard at Start, so the scarce
  // providers, added last, all sit on the last shard.
  const int common = kProvidersPerShard * static_cast<int>(shards);
  const int scarce = cross_shard ? kScarceProviders : 0;
  double max_common = 0;
  double max_scarce = 0;
  for (int p = 0; p < common + scarce; ++p) {
    sbqa::ProviderOptions options;
    if (p < common) {
      options.capacity = rng.Uniform(kCapacityLo, kCapacityHi);
      if (cross_shard) options.allowed_classes = {0};
      max_common = std::max(max_common, options.capacity);
    } else {
      options.capacity = kScarceCapacity;
      options.allowed_classes = {kScarceClass};
      max_scarce = std::max(max_scarce, options.capacity);
    }
    const sbqa::model::ProviderId id = engine->AddProvider(options);
    for (const ConsumerId c : pop.consumers) {
      engine->SetConsumerPreference(c, id, rng.Uniform(-1.0, 1.0));
      engine->SetProviderPreference(id, c, rng.Uniform(-1.0, 1.0));
    }
  }
  pop.providers = common + scarce;
  if (cross_shard) {
    for (int j = 0; j < kMaxJoins; ++j) {
      pop.join_capacities.push_back(rng.Uniform(kCapacityLo, kCapacityHi));
      max_common = std::max(max_common, pop.join_capacities.back());
    }
  }

  // The stream: consumers in seeded shuffled rounds (uniform and
  // balanced); serve_crossshard routes kHotShare to consumer 0 and makes
  // kScarceShare of the queries the scarce class.
  std::vector<ConsumerId> round = pop.consumers;
  size_t cursor = round.size();
  pop.stream.resize(kStreamSize);
  for (StreamEntry& q : pop.stream) {
    if (cross_shard && rng.Bernoulli(kHotShare)) {
      q.consumer = pop.consumers.front();
    } else {
      if (cursor == round.size()) {
        rng.Shuffle(&round);
        cursor = 0;
      }
      q.consumer = round[cursor++];
    }
    q.query_class =
        cross_shard && rng.Bernoulli(kScarceShare) ? kScarceClass : 0;
    q.cost = kMeanCost * rng.Uniform(0.5, 1.5);
    q.max_capacity = q.query_class == kScarceClass ? max_scarce : max_common;
  }
  return pop;
}

double Mean(const std::vector<float>& values) {
  double sum = 0;
  for (const float v : values) sum += v;
  return values.empty() ? 0 : sum / static_cast<double>(values.size());
}

}  // namespace

WorkloadResult RunServe(const RunArgs& args, bool cross_shard) {
  // Shard threads plus the load thread leave one core to the rest of the
  // host, so that a preempted worker does not stall every barrier.
  const unsigned cores = std::thread::hardware_concurrency();
  const uint32_t shards = cores > 3 ? 2 : 1;

  sbqa::EngineOptions options;
  options.mode = sbqa::EngineMode::kWallClock;
  options.seed = args.seed;
  options.shards = shards;
  options.max_pending = kMaxPending;
  // The engine's default query timeout (600 s) outlasts the run, so no
  // query times out.
  options.decision_timing = args.trace;
  if (cross_shard) {
    options.federation.enabled = true;
    options.federation.hop_budget = kHopBudget;
  }
  sbqa::Engine engine(std::move(options));
  const Population pop =
      BuildPopulation(&engine, shards, cross_shard, args.seed);
  Generator gen(&engine, &pop.stream, args.trace);
  engine.Start();
  const double setup_s = SecondsSince(ProcessStart());

  // serve_crossshard: provider joins through the epoch join log beside
  // the traffic; traced runs also time Stats round trips (one barrier
  // rendezvous each). Runs on its own, mostly sleeping, thread.
  std::atomic<bool> stop_control{false};
  std::vector<double> barrier_rtt_us;
  int joins = 0;
  std::thread control;
  if (cross_shard) {
    barrier_rtt_us.reserve(1 << 14);
    control = std::thread([&] {
      const Clock::time_point start = Clock::now();
      double next_join = kJoinInterval;
      while (!stop_control.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(kProbeInterval));
        if (args.trace && barrier_rtt_us.size() < barrier_rtt_us.capacity()) {
          const Clock::time_point t0 = Clock::now();
          (void)engine.Stats();
          barrier_rtt_us.push_back(SecondsSince(t0) * 1e6);
        }
        if (SecondsSince(start) >= next_join &&
            joins < static_cast<int>(pop.join_capacities.size())) {
          sbqa::ProviderOptions joiner;
          joiner.capacity = pop.join_capacities[static_cast<size_t>(joins)];
          joiner.allowed_classes = {0};
          engine.AddProvider(joiner);
          ++joins;
          next_join += kJoinInterval;
        }
      }
    });
  }

  WorkloadResult result;
  result.operation = "queries";
  bool drained = true;
  gen.ClosedLoop(kWarmupQueries, nullptr);
  drained &= gen.WaitAllDone(kDrainSeconds);

  // --- Measured phases --------------------------------------------------------
  const double rate = cross_shard ? kCrossRate : kLocalRate;
  const int64_t closed_count = std::max<int64_t>(
      1, static_cast<int64_t>(kClosedLoopQueriesPerSecond * args.seconds / 2));
  const int64_t open_count =
      std::max<int64_t>(1, static_cast<int64_t>(rate * args.seconds / 2));
  gen.PrepareOpenLoop(open_count);
  const std::vector<sbqa::EngineShardStats> shards0 = engine.ShardStats();
  const sbqa::EngineStats stats0 = engine.Stats();
  const int64_t sent0 = gen.sent();
  const uint64_t allocs0 = AllocationsSoFar();

  std::vector<double> qps_windows;
  gen.ClosedLoop(closed_count, &qps_windows);
  drained &= gen.WaitAllDone(kDrainSeconds);

  const int64_t open_start = NowNs() + 1000000;  // 1 ms lead
  gen.OpenLoop(open_start, rate);
  drained &= engine.WaitIdle(kDrainSeconds);
  drained &= gen.WaitAllDone(kDrainSeconds);
  const uint64_t allocs1 = AllocationsSoFar();
  const int64_t measured = gen.sent() - sent0;

  stop_control.store(true, std::memory_order_release);
  if (control.joinable()) control.join();
  gen.RetireAll();
  const sbqa::EngineStats stats = engine.Stats();
  const std::vector<sbqa::EngineShardStats> shards1 = engine.ShardStats();
  const sbqa::EngineSnapshot snapshot = engine.Snapshot();
  engine.Stop();
  const sbqa::core::ScoreKernelPhases phases = engine.DecisionPhases();

  // --- Output checks ----------------------------------------------------------
  CheckLog& log = result.checks;
  log.Expect(drained, "traffic did not drain within the budget");
  log.Expect(gen.ledger_bad() == 0,
             std::to_string(gen.ledger_bad()) + " ledger rows wrong: " +
                 DescribeLedgerViolations(gen.ledger_mask()));
  log.Expect(gen.result_bad() == 0,
             std::to_string(gen.result_bad()) + " results wrong: " +
                 DescribeResultViolations(gen.result_mask()));
  AdmissionTotals admission;
  admission.generator_accepted = gen.accepted();
  admission.generator_shed = gen.shed_seen();
  admission.generator_outcomes = gen.outcomes();
  admission.engine_submitted = stats.queries_submitted;
  admission.engine_finalized = stats.queries_finalized;
  admission.engine_shed = stats.queries_shed;
  CheckAdmission(admission, &log);
  Taxonomy engine_taxonomy;
  engine_taxonomy.satisfied = stats.queries_satisfied;
  engine_taxonomy.recovered = stats.queries_recovered;
  engine_taxonomy.failed = stats.queries_failed;
  engine_taxonomy.timed_out = stats.queries_timed_out;
  CheckTaxonomy("engine", engine_taxonomy, stats.queries_finalized, &log);
  CheckTaxonomiesAgree(gen.taxonomy(), engine_taxonomy, &log);
  CheckBorrowBalance(stats.queries_delegated, stats.queries_borrowed, &log);
  int64_t performed = 0;
  for (const sbqa::ProviderSnapshot& p : snapshot.providers) {
    performed += p.instances_performed;
  }
  CheckInstanceConservation(performed, gen.results_received(),
                            stats.queries_timed_out, &log);

  result.attempted = gen.sent();
  result.failures = gen.split();
  result.notes.push_back(
      std::to_string(shards) + " shards + 1 load thread; " +
      std::to_string(pop.consumers.size()) + " consumers, " +
      std::to_string(pop.providers) + " providers" +
      (cross_shard ? " (" + std::to_string(kScarceProviders) +
                         " scarce-class on the last shard), " +
                         std::to_string(joins) + " joined during traffic"
                   : std::string()));
  char line[256];
  std::snprintf(line, sizeof(line),
                "closed loop: %lld queries, %lld in flight; open loop: "
                "%.0f queries/s x %lld queries",
                static_cast<long long>(closed_count),
                static_cast<long long>(kInFlight), rate,
                static_cast<long long>(open_count));
  result.notes.push_back(line);

  // --- End-to-end metrics -------------------------------------------------------
  const size_t per_window =
      static_cast<size_t>(std::max(1.0, rate * kWindowSeconds));
  double consumer_sat = 0;
  for (const sbqa::ConsumerSnapshot& c : snapshot.consumers) {
    consumer_sat += c.satisfaction;
  }
  consumer_sat /= std::max<size_t>(1, snapshot.consumers.size());
  double provider_sat = 0;
  int alive = 0;
  for (const sbqa::ProviderSnapshot& p : snapshot.providers) {
    if (!p.alive) continue;
    provider_sat += p.satisfaction;
    ++alive;
  }
  provider_sat /= std::max(1, alive);
  const double open_span_s =
      static_cast<double>(gen.last_done_ns() - open_start) / 1e9;

  result.end_to_end = {
      {"setup_s", setup_s, "s"},
      {"peak_qps", Median(qps_windows), "queries/s"},
      {"latency_p50_us", WindowedQuantile(gen.latency_us(), per_window, 0.50),
       "us"},
      {"latency_p99_us", WindowedQuantile(gen.latency_us(), per_window, 0.99),
       "us"},
      {"sim_qps",
       open_span_s > 0 ? static_cast<double>(open_count) / open_span_s : 0,
       "queries/s"},
      {"consumer_satisfaction", consumer_sat, "1"},
      {"provider_satisfaction", provider_sat, "1"},
      {"provider_retention",
       static_cast<double>(alive) /
           static_cast<double>(std::max<size_t>(1, snapshot.providers.size())),
       "1"},
      {"response_p99_s", WindowedQuantile(gen.response_s(), per_window, 0.99),
       "s"},
      {"peak_rss_mb", PeakRssMiB(), "MiB"},
  };

  // --- Per-layer metrics ----------------------------------------------------------
  const double finalized =
      static_cast<double>(stats.queries_finalized - stats0.queries_finalized);
  const double per_query = finalized > 0 ? 1.0 / finalized : 0;
  const double per_kquery = 1000.0 * per_query;
  int64_t tasks = 0;
  int64_t most = 0;
  int64_t least = INT64_MAX;
  for (size_t s = 0; s < shards1.size() && s < shards0.size(); ++s) {
    tasks += shards1[s].tasks_executed - shards0[s].tasks_executed;
    const int64_t done =
        shards1[s].queries_finalized - shards0[s].queries_finalized;
    most = std::max(most, done);
    least = std::min(least, done);
  }
  const double decisions =
      phases.decisions > 0 ? static_cast<double>(phases.decisions) : 1.0;
  std::vector<float>& submit = gen.submit_ns();
  const double delegated =
      static_cast<double>(stats.queries_delegated - stats0.queries_delegated);
  const double forwarded =
      static_cast<double>(stats.queries_forwarded - stats0.queries_forwarded);
  result.per_layer = {
      {"engine.submit_ns", Mean(submit), "ns"},
      {"engine.submit_p99_ns", Quantile(&submit, 0.99), "ns"},
      {"engine.allocs_per_query",
       measured > 0 ? static_cast<double>(allocs1 - allocs0) /
                          static_cast<double>(measured)
                    : 0,
       "allocs/query"},
      {"load.send_lag_p99_us",
       WindowedQuantile(gen.send_lag_us(), per_window, 0.99), "us"},
      {"runtime.barrier_rtt_us",
       barrier_rtt_us.empty() ? 0 : Median(barrier_rtt_us), "us"},
      {"runtime.barriers_per_kquery",
       static_cast<double>(stats.shard_barriers - stats0.shard_barriers) *
           per_kquery,
       "1/kquery"},
      {"runtime.early_barriers",
       static_cast<double>(stats.shard_early_barriers -
                           stats0.shard_early_barriers) *
           per_kquery,
       "1/kquery"},
      {"runtime.tasks_per_query", static_cast<double>(tasks) * per_query,
       "tasks/query"},
      {"runtime.shard_skew",
       least > 0 ? static_cast<double>(most) / static_cast<double>(least) : 0,
       "ratio"},
      {"core.decision_ns", phases.total_ns() / decisions, "ns"},
      {"core.sample_ns", phases.sample_ns / decisions, "ns"},
      {"core.gather_ns", phases.gather_ns / decisions, "ns"},
      {"core.intentions_ns", phases.intentions_ns / decisions, "ns"},
      {"core.score_ns", phases.score_ns / decisions, "ns"},
      {"core.rank_ns", phases.rank_ns / decisions, "ns"},
      {"federation.delegated_per_kquery", delegated * per_kquery, "1/kquery"},
      {"federation.forwarded_per_kquery", forwarded * per_kquery, "1/kquery"},
      {"federation.mean_hops", (delegated + forwarded) * per_query,
       "hops/query"},
      {"sim.messages_per_query", 0, "msgs/query"},
      {"sim.membership_apply_s", 0, "s"},
      {"sim.membership_ops", 0, "count"},
  };
  return result;
}

}  // namespace perfbench
