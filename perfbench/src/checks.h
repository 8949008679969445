#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

/// \file
/// Output checks of the benchmark. Each is a property the allocation
/// process must have, or a total reached along two independent paths (the
/// load generator's own ledger or an observer versus the engine's
/// counters). None compares against recorded output. The per-query checks
/// return a violation bitmask and never allocate, so they run inside
/// outcome callbacks; the aggregate checks record into a CheckLog.
/// selftest.cc feeds every check a corrupted record and expects it to fail.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Collects the verdicts of the aggregate checks.
class CheckLog {
 public:
  /// Records one check: `ok` passes, otherwise `what` joins the failures.
  void Expect(bool ok, const std::string& what);

  int passed() const { return passed_; }
  int failed() const { return static_cast<int>(failures_.size()); }
  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  int passed_ = 0;
  std::vector<std::string> failures_;
};

// --- Per query ----------------------------------------------------------------

/// One finalized query as either path reports it (an engine outcome
/// callback, or the simulator's mediation observer).
struct ResultRecord {
  double submitted_at = 0;
  double completed_at = 0;
  double response_time = 0;
  int results_required = 0;
  int results_received = 0;
  int valid_results = 0;
  double satisfaction = 0;
  /// Work demand of the query (seconds on a capacity-1 provider).
  double cost = 0;
  /// Largest capacity among the providers that could have served it.
  double max_capacity = 0;
};

enum ResultViolation : uint32_t {
  kCountsOutOfOrder = 1u << 0,         ///< not valid <= received <= required
  kCompletedBeforeSubmitted = 1u << 1, ///< completed_at < submitted_at
  kResponseMismatch = 1u << 2,         ///< response != completed - submitted
  kSatisfactionOutOfRange = 1u << 3,   ///< satisfaction outside [0, 1]
  kFasterThanCost = 1u << 4,           ///< answered below cost / capacity
};

/// Violated properties of one finalized query (0 = all hold).
uint32_t CheckResult(const ResultRecord& record);

/// What the load generator's ticket ledger saw for one Submit.
struct LedgerEntry {
  uint64_t ticket_returned = 0;   ///< Submit's return value
  uint64_t ticket_delivered = 0;  ///< ticket carried by the outcome callback
  uint32_t callbacks = 0;         ///< outcome callbacks that arrived
  bool shed = false;              ///< the callback reported a shed query
};

enum LedgerViolation : uint32_t {
  kMissingCallback = 1u << 0,    ///< no outcome callback
  kDuplicateCallback = 1u << 1,  ///< more than one outcome callback
  kTicketMismatch = 1u << 2,     ///< callback ticket != Submit's ticket
  kShedWithTicket = 1u << 3,     ///< shed, yet Submit returned a ticket
  kAcceptedNoTicket = 1u << 4,   ///< not shed, yet Submit returned 0
};

/// Violated properties of one ledger row (0 = all hold).
uint32_t CheckLedgerEntry(const LedgerEntry& entry);

/// Names the bits of a ResultViolation / LedgerViolation mask.
std::string DescribeResultViolations(uint32_t mask);
std::string DescribeLedgerViolations(uint32_t mask);

// --- Aggregates -----------------------------------------------------------------

/// Terminal outcome taxonomy of a run.
struct Taxonomy {
  int64_t satisfied = 0;
  int64_t recovered = 0;
  int64_t failed = 0;  ///< no results, unallocated included
  int64_t timed_out = 0;
};

/// satisfied + recovered + failed + timed_out == finalized.
void CheckTaxonomy(const char* path, const Taxonomy& taxonomy,
                   int64_t finalized, CheckLog* log);

/// The same taxonomy counted along two paths agrees class by class.
void CheckTaxonomiesAgree(const Taxonomy& observed, const Taxonomy& reported,
                          CheckLog* log);

/// The generator's accepted / shed counts equal the engine's submitted /
/// shed counters, and (after the drain) every submitted query finalized.
struct AdmissionTotals {
  int64_t generator_accepted = 0;
  int64_t generator_shed = 0;
  int64_t generator_outcomes = 0;  ///< non-shed outcome callbacks
  int64_t engine_submitted = 0;
  int64_t engine_finalized = 0;
  int64_t engine_shed = 0;
};
void CheckAdmission(const AdmissionTotals& totals, CheckLog* log);

/// Every cross-shard delegation was mediated by exactly one peer.
void CheckBorrowBalance(int64_t delegated, int64_t borrowed, CheckLog* log);

/// The per-query hop histogram (index = hops taken) covers every finalized
/// query and reconciles with the delegation and forward counters: each
/// delegation is a query's first hop and each forward one more.
void CheckHopHistogram(const std::vector<int64_t>& histogram,
                       int64_t finalized, int64_t delegated,
                       int64_t forwarded, int64_t multi_hop, CheckLog* log);

/// Σ instances performed by the providers equals Σ results the callbacks
/// received, when no query timed out (a timed-out query may leave
/// instances that finish after its outcome).
void CheckInstanceConservation(int64_t instances_performed,
                               int64_t results_received, int64_t timed_out,
                               CheckLog* log);

/// The quality of one simulated run: two runs of one seed must agree bit
/// for bit.
struct QualityRecord {
  double consumer_satisfaction = 0;
  double provider_satisfaction = 0;
  double provider_retention = 0;
  double response_p99 = 0;
  int64_t queries_finalized = 0;
  uint64_t messages_sent = 0;
};
void CheckReproducible(const QualityRecord& first, const QualityRecord& again,
                       CheckLog* log);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
