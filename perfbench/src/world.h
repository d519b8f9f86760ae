// A booted simulated cluster plus the layer probes every workload shares.
// Each call into a layer's public function that the benchmark makes is
// wrapped in a span, so a traced trial attributes host time per layer.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "faults/fault_injector.h"
#include "harness.h"
#include "kernel/kernel.h"

namespace perfbench {

namespace cluster = ::phoenix::cluster;
namespace kernel = ::phoenix::kernel;
namespace faults = ::phoenix::faults;
namespace net = ::phoenix::net;
namespace sim = ::phoenix::sim;

/// Cluster + kernel + injector, built and booted under spans. With
/// `traced`, the program's own observability plane (metrics registry and
/// causal span store) is switched on before boot.
struct World {
  World(const cluster::ClusterSpec& spec, const kernel::FtParams& params,
        SpanRecorder& spans, bool traced);

  /// Runs the engine for `total` of simulated time in `slice` steps, one
  /// span per slice; tracks the largest queue and, once per simulated
  /// second, the resident set size.
  void run(sim::SimTime total, sim::SimTime slice = sim::kSecond);

  /// Advances to just after `node`'s next watch-daemon heartbeat, at most
  /// one heartbeat interval: the paper's fault-injection point (§5.1), which
  /// makes detection latency a property of the kernel, not of the phase.
  void align_to_heartbeat(net::NodeId node);

  /// Powers a crashed node back on and restarts its per-node daemons.
  void repair_node(net::NodeId node);

  std::unique_ptr<cluster::Cluster> cluster;
  std::unique_ptr<kernel::PhoenixKernel> kernel;
  std::unique_ptr<faults::FaultInjector> injector;
  SpanRecorder& spans;
  std::uint64_t pending_max = 0;
  /// Largest RSS sampled between slices: the memory the process holds,
  /// without the transient peaks inside one slice.
  double rss_max_mb = 0;

 private:
  sim::SimTime next_rss_sample_ = 0;
};

/// Current resident set size of this process in MiB (0 if unavailable).
double resident_mb();

/// One injected fault, with what the kernel's FaultLog should attribute it to.
struct Injection {
  sim::SimTime at = 0;
  std::string what;
  net::NodeId node;            // node the fault hit
  net::PartitionId partition;  // partition whose service was hit
  std::string component;       // for service kills: "ES" / "CS" / extension
};

/// Matches FaultLog records to injections. A record belongs to the latest
/// injection at or before its detection (within `window`) on the same node,
/// or, for a service kill, on the same partition and component. Fills
/// recovery samples (seconds from injection to the last matched record's
/// recovered_at; unrecovered or undetected injections are failures) and the
/// group.* metrics.
struct RecoveryStats {
  std::vector<double> samples;
  std::size_t failures = 0;
};
RecoveryStats match_faults(const kernel::FaultLog& log,
                           const std::vector<Injection>& injections,
                           sim::SimTime window, Values& sim, Digest& digest);

/// Fabric totals and the per-type byte counters the notes name.
void collect_net(cluster::Cluster& cluster, Values& sim);

/// ServiceRuntime counters of the current config / checkpoint / event /
/// bulletin instances, detector report counts, bulletin delta drops,
/// events published, checkpoint entries.
void collect_kernel(kernel::PhoenixKernel& kernel, Values& sim);

/// Engine counters for the timed phase (events per host second of `wall_s`).
void collect_sim(const World& w, std::uint64_t events_before, double wall_s,
                 Values& sim, Values& host);

/// Post-run probes timed from outside: bulletin node_rows/app_rows on every
/// partition, EventService::serialize_registry, CheckpointService::load_local.
void probe_kernel(kernel::PhoenixKernel& kernel, SpanRecorder& spans,
                  const std::string& ckpt_service,
                  const std::vector<std::string>& ckpt_keys, Values& host);

/// Saves the benchmark spans, the program's metrics snapshot and its causal
/// span store (Chrome JSON) under `dir`, and adds the span-derived host
/// metrics (obs.spans, per-layer self times).
void finish_traced(World& w, const std::string& dir, Values& host);

}  // namespace perfbench
