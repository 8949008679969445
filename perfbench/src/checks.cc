#include "checks.h"

#include <cmath>
#include <cstdio>

namespace perfbench {
namespace {

// Absolute slack for comparisons of runtime seconds: both engines stamp
// times as doubles, so a sum of stamps may round by a few ulps.
constexpr double kTimeSlack = 1e-9;

std::string Format(const char* fmt, long long a, long long b) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer), fmt, a, b);
  return buffer;
}

std::string Describe(uint32_t mask, const char* const* names, int count) {
  std::string out;
  for (int bit = 0; bit < count; ++bit) {
    if ((mask & (1u << bit)) == 0) continue;
    if (!out.empty()) out += ", ";
    out += names[bit];
  }
  return out;
}

}  // namespace

void CheckLog::Expect(bool ok, const std::string& what) {
  if (ok) {
    ++passed_;
  } else {
    failures_.push_back(what);
  }
}

uint32_t CheckResult(const ResultRecord& r) {
  uint32_t mask = 0;
  if (!(r.valid_results >= 0 && r.valid_results <= r.results_received &&
        r.results_received <= r.results_required)) {
    mask |= kCountsOutOfOrder;
  }
  if (!(r.completed_at >= r.submitted_at)) mask |= kCompletedBeforeSubmitted;
  if (!(std::fabs(r.response_time - (r.completed_at - r.submitted_at)) <=
        kTimeSlack)) {
    mask |= kResponseMismatch;
  }
  if (!(r.satisfaction >= 0.0 && r.satisfaction <= 1.0)) {
    mask |= kSatisfactionOutOfRange;
  }
  if (r.results_received > 0 && r.max_capacity > 0 &&
      r.response_time + kTimeSlack < r.cost / r.max_capacity) {
    mask |= kFasterThanCost;
  }
  return mask;
}

uint32_t CheckLedgerEntry(const LedgerEntry& e) {
  uint32_t mask = 0;
  if (e.callbacks == 0) mask |= kMissingCallback;
  if (e.callbacks > 1) mask |= kDuplicateCallback;
  if (e.shed) {
    if (e.ticket_returned != 0) mask |= kShedWithTicket;
  } else {
    if (e.ticket_returned == 0) mask |= kAcceptedNoTicket;
    if (e.callbacks > 0 && e.ticket_delivered != e.ticket_returned) {
      mask |= kTicketMismatch;
    }
  }
  return mask;
}

std::string DescribeResultViolations(uint32_t mask) {
  static const char* const kNames[] = {
      "valid<=received<=required violated", "completed before submitted",
      "response != completed - submitted", "satisfaction outside [0,1]",
      "answered faster than cost / capacity"};
  return Describe(mask, kNames, 5);
}

std::string DescribeLedgerViolations(uint32_t mask) {
  static const char* const kNames[] = {
      "accepted query got no callback", "query got more than one callback",
      "callback ticket differs from Submit's", "shed query returned a ticket",
      "accepted query returned ticket 0"};
  return Describe(mask, kNames, 5);
}

void CheckTaxonomy(const char* path, const Taxonomy& t, int64_t finalized,
                   CheckLog* log) {
  const int64_t sum = t.satisfied + t.recovered + t.failed + t.timed_out;
  log->Expect(sum == finalized,
              std::string(path) +
                  Format(": satisfied+recovered+failed+timed_out = %lld, "
                         "finalized = %lld",
                         sum, finalized));
}

void CheckTaxonomiesAgree(const Taxonomy& o, const Taxonomy& r,
                          CheckLog* log) {
  log->Expect(o.satisfied == r.satisfied,
              Format("satisfied: observed %lld, reported %lld", o.satisfied,
                     r.satisfied));
  log->Expect(o.recovered == r.recovered,
              Format("recovered: observed %lld, reported %lld", o.recovered,
                     r.recovered));
  log->Expect(o.failed == r.failed, Format("failed: observed %lld, "
                                           "reported %lld",
                                           o.failed, r.failed));
  log->Expect(o.timed_out == r.timed_out,
              Format("timed_out: observed %lld, reported %lld", o.timed_out,
                     r.timed_out));
}

void CheckAdmission(const AdmissionTotals& t, CheckLog* log) {
  log->Expect(t.generator_accepted == t.engine_submitted,
              Format("generator accepted %lld, engine queries_submitted %lld",
                     t.generator_accepted, t.engine_submitted));
  log->Expect(t.engine_finalized == t.engine_submitted,
              Format("after the drain queries_finalized %lld, "
                     "queries_submitted %lld",
                     t.engine_finalized, t.engine_submitted));
  log->Expect(t.generator_outcomes == t.generator_accepted,
              Format("outcome callbacks %lld for %lld accepted queries",
                     t.generator_outcomes, t.generator_accepted));
  log->Expect(t.generator_shed == t.engine_shed,
              Format("generator saw %lld shed, engine queries_shed %lld",
                     t.generator_shed, t.engine_shed));
}

void CheckBorrowBalance(int64_t delegated, int64_t borrowed, CheckLog* log) {
  log->Expect(delegated == borrowed,
              Format("queries_delegated %lld, queries_borrowed %lld",
                     delegated, borrowed));
}

void CheckHopHistogram(const std::vector<int64_t>& histogram,
                       int64_t finalized, int64_t delegated,
                       int64_t forwarded, int64_t multi_hop, CheckLog* log) {
  int64_t queries = 0;
  int64_t hops = 0;
  int64_t beyond_one = 0;
  for (size_t h = 0; h < histogram.size(); ++h) {
    queries += histogram[h];
    hops += static_cast<int64_t>(h) * histogram[h];
    if (h >= 2) beyond_one += histogram[h];
  }
  log->Expect(queries == finalized,
              Format("hop histogram covers %lld queries, finalized %lld",
                     queries, finalized));
  log->Expect(hops == delegated + forwarded,
              Format("hop histogram sums to %lld hops, delegated + "
                     "forwarded = %lld",
                     hops, delegated + forwarded));
  log->Expect(beyond_one == multi_hop,
              Format("hop histogram has %lld queries beyond one hop, "
                     "queries_multi_hop %lld",
                     beyond_one, multi_hop));
}

void CheckInstanceConservation(int64_t instances_performed,
                               int64_t results_received, int64_t timed_out,
                               CheckLog* log) {
  if (timed_out != 0) return;
  log->Expect(instances_performed == results_received,
              Format("providers performed %lld instances, callbacks "
                     "received %lld results",
                     instances_performed, results_received));
}

void CheckReproducible(const QualityRecord& a, const QualityRecord& b,
                       CheckLog* log) {
  const bool same = a.consumer_satisfaction == b.consumer_satisfaction &&
                    a.provider_satisfaction == b.provider_satisfaction &&
                    a.provider_retention == b.provider_retention &&
                    a.response_p99 == b.response_p99 &&
                    a.queries_finalized == b.queries_finalized &&
                    a.messages_sent == b.messages_sent;
  log->Expect(same, "a second run of the same seed differs from the first");
}

}  // namespace perfbench
