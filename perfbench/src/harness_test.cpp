// The benchmark's own tests: seeded inputs, accounting, failure-aware
// percentiles and stale-read classification. Run with
//   python3 perfbench/run.py --self-test
#include <cmath>
#include <cstdio>

#include "harness.h"
#include "load.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

using namespace perfbench;

void load_is_a_function_of_the_seed() {
  KernelLoadParams k;
  k.duration = 120 * sim::kSecond;
  k.seed = 7;
  const auto a = generate_kernel_ops(k);
  CHECK(!a.empty());
  CHECK(a == generate_kernel_ops(k));
  k.seed = 8;
  CHECK(a != generate_kernel_ops(k));
  for (const KernelOp& op : a) CHECK(op.key % k.clients == op.client);

  FaultPlanParams f;
  f.server_crash_partitions = {1, 2, 3};
  f.service_kill_partitions = {0, 1, 2, 3};
  f.seed = 7;
  const auto plan = plan_faults(f);
  CHECK(plan == plan_faults(f));
  f.seed = 8;
  CHECK(plan != plan_faults(f));
  std::size_t server_crashes = 0;
  for (const PlannedFault& pf : plan) {
    if (pf.kind == FaultKind::kServerCrash) {
      ++server_crashes;
      CHECK(pf.partition >= 1 && pf.partition <= 3);
    }
  }
  CHECK(server_crashes == 3);  // each eligible partition at most once

  PortalLoadParams p;
  p.seed = 7;
  const auto jobs = generate_portal_jobs(p);
  CHECK(jobs.size() == p.jobs);
  CHECK(jobs == generate_portal_jobs(p));
  p.seed = 8;
  CHECK(jobs != generate_portal_jobs(p));

  CHECK(pick_partitions(32, 4, 7) == pick_partitions(32, 4, 7));
  CHECK(pick_partitions(32, 4, 7).size() == 4);
}

void accounting_closes() {
  OpLedger ledger(3);
  ledger.ok(0, 1.0);
  ledger.failed(1);
  ledger.ok(2, 2.0);
  CHECK(ledger.problems().empty());
  CHECK(ledger.accounting().closes());
  CHECK(ledger.accounting().attempted == 3);

  OpLedger twice(2);
  twice.ok(0, 1.0);
  twice.ok(0, 1.0);  // op 0 twice, op 1 never
  CHECK(!twice.problems().empty());

  Accounting a;
  a.attempted = 10;
  a.ok = 6;
  a.failed = 1;
  a.denied = 2;
  a.cancelled = 1;
  CHECK(a.closes());
  a.cancelled = 0;
  CHECK(!a.closes());
}

void percentiles_treat_failures_as_infinite() {
  CHECK(percentile_with_failures({1, 2, 3}, 0, 0.5) == 2);
  CHECK(percentile_with_failures({1, 2, 3}, 1, 0.5) == 2);
  CHECK(std::isinf(percentile_with_failures({1, 2, 3}, 1, 0.99)));
  CHECK(std::isinf(percentile_with_failures({1}, 3, 0.5)));
  CHECK(std::isnan(percentile_with_failures({}, 0, 0.5)));
  // Ties inside one clock tick interpolate by rank, staying in the tick.
  const double v = percentile_with_failures({5, 5, 5, 5}, 0, 0.5, 1.0);
  CHECK(v > 5 && v < 6);
}

void planted_stale_read_counts_as_failure_not_gate() {
  AckedWrites writes;
  const std::uint64_t seq = writes.next_seq("k");
  writes.acked("k", seq);
  const std::uint64_t floor = writes.floor("k");
  CHECK(AckedWrites::stale(floor, std::string("0")));
  CHECK(AckedWrites::stale(floor, std::nullopt));
  CHECK(!AckedWrites::stale(floor, std::to_string(seq)));
  CHECK(!AckedWrites::stale(0, std::nullopt));

  // Classified the way the workloads do: a kOk answer that misses an
  // acknowledged write is a failed operation.
  OpLedger ledger(2);
  const bool stale = AckedWrites::stale(floor, std::string("0"));
  if (stale) {
    ledger.failed(0);
  } else {
    ledger.ok(0, 1.0);
  }
  ledger.ok(1, 1.0);
  CHECK(ledger.accounting().fail_frac() == 0.5);
  CHECK(ledger.problems().empty());
}

void jain_and_spans() {
  CHECK(jain_index({{1, 1}, {2, 2}}) == 1.0);
  CHECK(jain_index({{1, 1}, {0, 1}}) == 0.5);
  SpanRecorder rec(true, 3);
  {
    auto outer = rec.scope("outer");
    auto inner = rec.scope("inner");
  }
  CHECK(rec.spans().size() == 2);
  CHECK(rec.spans()[1].parent == 1);
  CHECK(rec.spans()[0].self_s <= rec.spans()[0].end_s - rec.spans()[0].start_s);
  SpanRecorder off(false, 0);
  { auto s = off.scope("x"); }
  CHECK(off.spans().empty());
}

}  // namespace

int main() {
  load_is_a_function_of_the_seed();
  accounting_closes();
  percentiles_treat_failures_as_infinite();
  planted_stale_read_counts_as_failure_not_gate();
  jain_and_spans();
  if (failures == 0) std::printf("phx_bench_tests: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
