/// \file
/// perfbench_selftest: shows that every output check of the benchmark can
/// fail. Each case feeds a check a sound record, which must pass, and the
/// same record with one corruption, which must fail. Exits 0 only when
/// every case behaves so.

#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "checks.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Case(const char* check, const char* corruption, bool sound_passes,
          bool corrupt_fails) {
  const bool ok = sound_passes && corrupt_fails;
  if (!ok) ++g_failures;
  std::printf("  %-5s %-26s %s%s\n", ok ? "ok" : "FAIL", check, corruption,
              sound_passes ? "" : " (sound record rejected)");
}

/// Runs an aggregate check into a fresh log; true when it passed.
bool Passes(const std::function<void(CheckLog*)>& check) {
  CheckLog log;
  check(&log);
  return log.ok();
}

ResultRecord SoundResult() {
  ResultRecord r;
  r.submitted_at = 10.0;
  r.completed_at = 10.5;
  r.response_time = 0.5;
  r.results_required = 3;
  r.results_received = 3;
  r.valid_results = 2;
  r.satisfaction = 0.8;
  r.cost = 5.0;
  r.max_capacity = 20.0;  // floor 0.25 s
  return r;
}

void ResultCases() {
  const bool sound = CheckResult(SoundResult()) == 0;
  ResultRecord r = SoundResult();
  r.valid_results = 4;
  Case("result", "valid > received", sound, CheckResult(r) != 0);
  r = SoundResult();
  r.results_received = 4;
  r.valid_results = 2;
  Case("result", "received > required", sound, CheckResult(r) != 0);
  r = SoundResult();
  r.completed_at = 9.5;
  r.response_time = -0.5;
  Case("result", "completed before submitted", sound, CheckResult(r) != 0);
  r = SoundResult();
  r.response_time = 0.4;
  Case("result", "response != completed-submitted", sound,
       CheckResult(r) != 0);
  r = SoundResult();
  r.satisfaction = 1.2;
  Case("result", "satisfaction above 1", sound, CheckResult(r) != 0);
  r = SoundResult();
  r.completed_at = 10.2;
  r.response_time = 0.2;  // below 5.0 / 20.0
  Case("result", "faster than cost allows", sound,
       CheckResult(r) == kFasterThanCost);
}

void LedgerCases() {
  LedgerEntry accepted;
  accepted.ticket_returned = 77;
  accepted.ticket_delivered = 77;
  accepted.callbacks = 1;
  const bool sound = CheckLedgerEntry(accepted) == 0;
  LedgerEntry e = accepted;
  e.callbacks = 2;
  Case("ledger", "duplicated ticket callback", sound,
       CheckLedgerEntry(e) == kDuplicateCallback);
  e = accepted;
  e.callbacks = 0;
  Case("ledger", "missing callback", sound,
       CheckLedgerEntry(e) == kMissingCallback);
  e = accepted;
  e.ticket_delivered = 78;
  Case("ledger", "callback for another ticket", sound,
       CheckLedgerEntry(e) == kTicketMismatch);
  LedgerEntry shed;
  shed.callbacks = 1;
  shed.shed = true;
  e = shed;
  e.ticket_returned = 5;
  Case("ledger", "shed query returned a ticket", CheckLedgerEntry(shed) == 0,
       CheckLedgerEntry(e) == kShedWithTicket);
  e = accepted;
  e.ticket_returned = 0;
  e.ticket_delivered = 0;
  Case("ledger", "accepted query ticket 0", sound,
       CheckLedgerEntry(e) == kAcceptedNoTicket);
}

void AggregateCases() {
  const Taxonomy taxonomy{90, 4, 5, 1};
  const bool sound_taxonomy =
      Passes([&](CheckLog* log) { CheckTaxonomy("t", taxonomy, 100, log); });
  Case("taxonomy", "off by one", sound_taxonomy,
       !Passes([&](CheckLog* log) { CheckTaxonomy("t", taxonomy, 101, log); }));
  Taxonomy shifted = taxonomy;
  --shifted.satisfied;
  ++shifted.failed;
  Case("taxonomies agree", "one query reclassified",
       Passes([&](CheckLog* log) {
         CheckTaxonomiesAgree(taxonomy, taxonomy, log);
       }),
       !Passes([&](CheckLog* log) {
         CheckTaxonomiesAgree(taxonomy, shifted, log);
       }));

  AdmissionTotals admission;
  admission.generator_accepted = 1000;
  admission.generator_shed = 3;
  admission.generator_outcomes = 1000;
  admission.engine_submitted = 1000;
  admission.engine_finalized = 1000;
  admission.engine_shed = 3;
  const bool sound_admission =
      Passes([&](CheckLog* log) { CheckAdmission(admission, log); });
  AdmissionTotals a = admission;
  ++a.engine_submitted;
  Case("admission", "submitted != accepted", sound_admission,
       !Passes([&](CheckLog* log) { CheckAdmission(a, log); }));
  a = admission;
  --a.engine_finalized;
  Case("admission", "one query never finalized", sound_admission,
       !Passes([&](CheckLog* log) { CheckAdmission(a, log); }));
  a = admission;
  --a.generator_outcomes;
  Case("admission", "one callback missing", sound_admission,
       !Passes([&](CheckLog* log) { CheckAdmission(a, log); }));

  Case("borrow balance", "delegated != borrowed",
       Passes([](CheckLog* log) { CheckBorrowBalance(12, 12, log); }),
       !Passes([](CheckLog* log) { CheckBorrowBalance(12, 11, log); }));

  // 100 finalized: 90 local, 7 one hop, 3 two hops -> 13 hops.
  const std::vector<int64_t> hops{90, 7, 3};
  const bool sound_hops = Passes(
      [&](CheckLog* log) { CheckHopHistogram(hops, 100, 10, 3, 3, log); });
  Case("hop histogram", "forward not counted", sound_hops,
       !Passes([&](CheckLog* log) {
         CheckHopHistogram(hops, 100, 10, 2, 3, log);
       }));
  Case("hop histogram", "query missing", sound_hops,
       !Passes([&](CheckLog* log) {
         CheckHopHistogram(hops, 101, 10, 3, 3, log);
       }));

  Case("instance conservation", "one result lost",
       Passes([](CheckLog* log) {
         CheckInstanceConservation(500, 500, 0, log);
       }),
       !Passes([](CheckLog* log) {
         CheckInstanceConservation(500, 499, 0, log);
       }));

  QualityRecord q;
  q.consumer_satisfaction = 0.73;
  q.provider_satisfaction = 0.72;
  q.provider_retention = 0.52;
  q.response_p99 = 17.5;
  q.queries_finalized = 540000;
  q.messages_sent = 3700000;
  QualityRecord drift = q;
  drift.consumer_satisfaction = std::nextafter(q.consumer_satisfaction, 1.0);
  Case("reproducibility", "satisfaction differs by 1 ulp",
       Passes([&](CheckLog* log) { CheckReproducible(q, q, log); }),
       !Passes([&](CheckLog* log) { CheckReproducible(q, drift, log); }));
}

}  // namespace
}  // namespace perfbench

int main() {
  std::printf("perfbench self-test: every check must reject its corrupted "
              "record\n");
  perfbench::ResultCases();
  perfbench::LedgerCases();
  perfbench::AggregateCases();
  std::printf("self-test: %s\n",
              perfbench::g_failures == 0 ? "all checks fail on corruption"
                                         : "SOME CHECKS MISSED CORRUPTION");
  return perfbench::g_failures == 0 ? 0 : 1;
}
