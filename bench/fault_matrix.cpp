// Adversarial fault matrix: scenarios x failover policies.
//
// Each faults::Scenario from the adversarial vocabulary (leader crash,
// asymmetric partition, flapping links, correlated rack failure, slow node,
// GSD restart storm, plus the zoned-topology rows: zone-leader crash,
// whole-zone crash, zone network partition) runs once under the paper's
// unilateral takeover and once under FailoverPolicy::quorum(), with a
// LeaderInvariantMonitor sampling every 10 ms of simulated time. Zone rows
// run on a 9-partition zoned(3) hierarchy; the monitor then checks the
// split-brain invariant PER RING (each zone sub-ring and the top ring).
// Reported per cell:
//
//   viol        samples where >= 2 partitions led at the SAME epoch
//               (the split-brain the quorum protocol must prevent)
//   leaderless  longest stretch with no live leader (unavailability)
//   takeover    injection -> newest GSD fault record recovered (when the
//               scenario implies one)
//   fenced      stale-epoch mutating RPCs rejected across all runtimes
//
// Hard assertions (exit non-zero): the quorum policy shows ZERO same-epoch
// double-leader samples in every scenario, and the scenarios that depose a
// member recover a leader within a bounded window. The unilateral column is
// reported un-asserted — its asymmetric-partition split-brain is the
// motivation, not a regression.
//
// Emits BENCH_fault_matrix.json (or the first non-flag argument);
// --quick shortens the observation windows for CI.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "kernel/group/leader_monitor.h"

namespace phoenix::bench {
namespace {

// Five partitions so a correlated two-server rack failure still leaves a
// majority (3 of 5) able to regroup; the paper testbed's 17-node partitions
// are irrelevant to the membership protocol under test.
cluster::ClusterSpec matrix_spec() {
  cluster::ClusterSpec spec;
  spec.partitions = 5;
  spec.computes_per_partition = 4;
  spec.backups_per_partition = 2;
  spec.networks = 3;
  return spec;
}

kernel::FtParams matrix_params(bool quorum) {
  kernel::FtParams p;
  p.heartbeat_interval = 2 * sim::kSecond;
  p.detector_sample_interval = 1 * sim::kSecond;
  if (quorum) p.failover = kernel::FtParams::FailoverPolicy::quorum();
  return p;
}

// Zone rows: 9 partitions in 3 zones of 3 — each sub-ring big enough for a
// majority (2 of 3), and whole-zone death still leaves a top-ring majority.
cluster::ClusterSpec zoned_spec() {
  cluster::ClusterSpec spec;
  spec.partitions = 9;
  spec.computes_per_partition = 2;
  spec.backups_per_partition = 1;
  spec.networks = 3;
  return spec;
}

kernel::FtParams zoned_matrix_params(bool quorum) {
  kernel::FtParams p = matrix_params(quorum);
  p.topology = kernel::FtParams::GroupTopology::zoned(3);
  return p;
}

struct Cell {
  std::string scenario;
  const char* policy = "";
  std::uint64_t samples = 0;
  std::uint64_t violations = 0;
  int max_leaders = 0;
  double leaderless_s = 0;
  double takeover_s = -1;  // <0: no takeover happened / expected
  std::uint64_t regroup_rounds = 0;
  std::uint64_t quorum_losses = 0;
  std::uint64_t fenced = 0;
  std::size_t injections = 0;
};

struct ScenarioDef {
  const char* name;
  bool expects_takeover;  // a member is deposed and must be recovered
  std::function<void(Harness&, faults::Scenario&)> script;
  bool zoned = false;     // run on the 9-partition zoned(3) hierarchy
};

std::vector<ScenarioDef> scenario_defs() {
  using net::NetworkId;
  using net::PartitionId;
  return {
      {"leader_node_crash", true,
       [](Harness& h, faults::Scenario& s) {
         s.crash_node(h.cluster.server_node(PartitionId{0}));
       }},
      {"asymmetric_partition", false,
       [](Harness& h, faults::Scenario& s) {
         // Princess stops hearing the Leader; everyone else still can.
         s.partition_asymmetric(h.cluster.server_node(PartitionId{0}),
                                h.cluster.server_node(PartitionId{1}));
       }},
      {"flapping_links", false,
       [](Harness& h, faults::Scenario& s) {
         s.flap_link(h.cluster.server_node(PartitionId{1}), NetworkId{1},
                     4 * sim::kSecond, 3)
             .at(0)
             .flap_link(h.cluster.server_node(PartitionId{2}), NetworkId{2},
                        6 * sim::kSecond, 2);
       }},
      {"rack_failure", true,
       [](Harness& h, faults::Scenario& s) {
         s.crash_rack({h.cluster.server_node(PartitionId{2}),
                       h.cluster.server_node(PartitionId{3})});
       }},
      {"slow_node", true,
       [](Harness& h, faults::Scenario& s) {
         // Slower than every probe timeout: indistinguishable from dead, so
         // both policies depose it; fencing neutralises its stale writes.
         s.slow_node(h.cluster.server_node(PartitionId{1}), 900 * sim::kMillisecond)
             .after(20 * sim::kSecond)
             .restore_node_speed(h.cluster.server_node(PartitionId{1}));
       }},
      {"restart_storm", true,
       [](Harness& h, faults::Scenario& s) {
         s.restart_storm(h.kernel.gsd(PartitionId{3}), 3, 12 * sim::kSecond);
       }},
      {"zone_leader_crash", true,
       [](Harness& h, faults::Scenario& s) {
         // Zone 1's leader dies: its Princess must win the zone regroup AND
         // displace the stale entry on the top ring — two rings reconfigure
         // without a same-epoch double leader in either.
         s.crash_node(h.cluster.server_node(PartitionId{1}));
       },
       /*zoned=*/true},
      {"zone_crash", false,
       [](Harness& h, faults::Scenario& s) {
         // Whole-zone death: every node of zone 1 dies at once. The other
         // sub-rings must not churn; repair flows through the top census.
         s.crash_zone(h.kernel, 1);
       },
       /*zoned=*/true},
      {"zone_partition", false,
       [](Harness& h, faults::Scenario& s) {
         // Zone 1 is blackholed from the rest of the cluster, then healed.
         // Its sub-ring stays internally healthy (no zone takeover), while
         // the top ring drops and later re-admits its representative.
         s.partition_zone(h.kernel, 1)
             .after(20 * sim::kSecond)
             .heal_zone(h.kernel, 1);
       },
       /*zoned=*/true},
  };
}

Cell run_cell(const ScenarioDef& def, bool quorum, double observe_s) {
  Harness h(def.zoned ? zoned_spec() : matrix_spec(),
            def.zoned ? zoned_matrix_params(quorum) : matrix_params(quorum));
  kernel::LeaderInvariantMonitor monitor(h.kernel);
  h.run_s(5.0);
  h.kernel.fault_log().clear();

  faults::Scenario scenario;
  def.script(h, scenario);
  const sim::SimTime base = h.cluster.now();
  scenario.apply(h.injector, base);
  h.run_s(sim::to_seconds(scenario.duration()) + observe_s);

  Cell cell;
  cell.scenario = def.name;
  cell.policy = quorum ? "quorum" : "paper";
  cell.samples = monitor.samples();
  cell.violations = monitor.violations();
  cell.max_leaders = monitor.max_same_epoch_leaders();
  cell.leaderless_s = sim::to_seconds(monitor.max_leaderless());
  cell.injections = h.injector.history().size();
  if (def.expects_takeover) {
    if (const auto rec = h.kernel.fault_log().last("GSD");
        rec && rec->recovered) {
      cell.takeover_s = sim::to_seconds(rec->recovered_at - base);
    }
  }
  for (std::uint32_t p = 0; p < h.cluster.spec().partitions; ++p) {
    auto& gsd = h.kernel.gsd(net::PartitionId{p});
    if (!gsd.alive()) continue;
    cell.regroup_rounds += gsd.regroup_rounds();
    cell.quorum_losses += gsd.quorum_losses();
    cell.fenced += gsd.counters().fenced_rejections;
  }
  for (const auto& node : h.cluster.nodes()) {
    cell.fenced += h.kernel.ppm(node.id()).counters().fenced_rejections;
  }
  for (std::uint32_t p = 0; p < h.cluster.spec().partitions; ++p) {
    cell.fenced +=
        h.kernel.checkpoint_service(net::PartitionId{p}).counters().fenced_rejections;
  }
  return cell;
}

}  // namespace
}  // namespace phoenix::bench

int main(int argc, char** argv) {
  using namespace phoenix;
  using namespace phoenix::bench;
  std::setvbuf(stdout, nullptr, _IONBF, 0);

  const BenchArgs args = parse_bench_args(argc, argv, "BENCH_fault_matrix.json");
  const bool quick = args.quick;
  const char* out_path = args.out_path;
  // Long enough for detect (2 s hb) + regroup + migrate + rejoin per fault.
  const double observe_s = quick ? 40.0 : 80.0;

  std::printf("Adversarial fault matrix (scenario x failover policy)%s\n",
              quick ? " [--quick]" : "");
  std::printf("%-20s | %-6s | %-6s | %-7s | %-11s | %-9s | %-7s | %-6s\n",
              "scenario", "policy", "viol", "leaders", "leaderless", "takeover",
              "rounds", "fenced");
  std::printf("%s\n", std::string(92, '-').c_str());

  std::vector<Cell> cells;
  int failures = 0;
  for (const ScenarioDef& def : scenario_defs()) {
    for (bool quorum : {false, true}) {
      Cell cell = run_cell(def, quorum, observe_s);
      char takeover[24];
      if (cell.takeover_s >= 0) {
        std::snprintf(takeover, sizeof(takeover), "%.2fs", cell.takeover_s);
      } else {
        std::snprintf(takeover, sizeof(takeover), "-");
      }
      std::printf("%-20s | %-6s | %6llu | %7d | %9.2fs | %9s | %7llu | %6llu\n",
                  cell.scenario.c_str(), cell.policy,
                  static_cast<unsigned long long>(cell.violations),
                  cell.max_leaders, cell.leaderless_s, takeover,
                  static_cast<unsigned long long>(cell.regroup_rounds),
                  static_cast<unsigned long long>(cell.fenced));

      if (quorum) {
        if (cell.violations != 0) {
          std::printf("  FAIL: %s saw %llu same-epoch double-leader samples "
                      "under quorum\n",
                      cell.scenario.c_str(),
                      static_cast<unsigned long long>(cell.violations));
          ++failures;
        }
        if (def.expects_takeover &&
            (cell.takeover_s < 0 || cell.takeover_s > 30.0)) {
          std::printf("  FAIL: %s takeover not recovered within 30 s under "
                      "quorum (%.2fs)\n",
                      cell.scenario.c_str(), cell.takeover_s);
          ++failures;
        }
        if (def.expects_takeover && cell.leaderless_s > 30.0) {
          std::printf("  FAIL: %s leaderless for %.2fs under quorum\n",
                      cell.scenario.c_str(), cell.leaderless_s);
          ++failures;
        }
      }
      cells.push_back(std::move(cell));
    }
  }

  std::printf("\nunilateral vs quorum: the asymmetric-partition row shows the\n"
              "split-brain window the paper's protocol admits (viol > 0) and\n"
              "the regroup protocol closes (viol == 0, leader exonerated).\n");

  if (std::FILE* f = std::fopen(out_path, "w")) {
    std::fprintf(f, "{\n  \"cells\": [\n");
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      std::fprintf(
          f,
          "    { \"scenario\": \"%s\", \"policy\": \"%s\", \"samples\": %llu,"
          " \"violations\": %llu, \"max_same_epoch_leaders\": %d,"
          " \"leaderless_s\": %.3f, \"takeover_s\": %.3f,"
          " \"regroup_rounds\": %llu, \"quorum_losses\": %llu,"
          " \"fenced_rejections\": %llu, \"injections\": %zu }%s\n",
          c.scenario.c_str(), c.policy,
          static_cast<unsigned long long>(c.samples),
          static_cast<unsigned long long>(c.violations), c.max_leaders,
          c.leaderless_s, c.takeover_s,
          static_cast<unsigned long long>(c.regroup_rounds),
          static_cast<unsigned long long>(c.quorum_losses),
          static_cast<unsigned long long>(c.fenced), c.injections,
          i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"failures\": %d\n}\n", failures);
    std::fclose(f);
    std::printf("\nwrote %s\n", out_path);
  }

  return failures == 0 ? 0 : 1;
}
