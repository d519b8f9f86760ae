// System management tools (paper §3): "System management and monitoring
// tools assist system administrators to perform daily system management,
// real-time system monitoring, performance analysis and fault analysis."
//
// The AdminConsole is a user-environment daemon built on documented kernel
// interfaces only:
//  - cluster status and service-placement tables (configuration + group
//    service state),
//  - fault analysis over the kernel's fault journal: per-component counts,
//    mean detect/diagnose/recover times (MTTR), availability estimates,
//  - parallel administrative commands across node sets (PPM tree fan-out),
//  - node drain/undrain for maintenance (kills user processes, records the
//    administrative state in the configuration service, publishes events).
//
// Blocking helpers (run_command, drain_node) drive the simulation until
// their replies arrive — the console is an interactive tool, like the
// construction tool.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cluster/daemon.h"
#include "kernel/kernel.h"

namespace phoenix::admin {

/// One node's administrative view.
struct NodeStatus {
  net::NodeId node;
  net::PartitionId partition;
  cluster::NodeRole role = cluster::NodeRole::kCompute;
  bool alive = false;
  bool drained = false;
  std::size_t running_processes = 0;
  double cpu_pct = 0;
  double mem_pct = 0;
};

/// Where each per-partition kernel service currently lives.
struct ServicePlacement {
  kernel::ServiceKind kind;
  net::PartitionId partition;
  net::NodeId node;
  bool alive = false;
};

/// Aggregated fault analysis over the kernel's journal.
struct FaultAnalysis {
  struct ComponentStats {
    std::size_t faults = 0;
    std::size_t recovered = 0;
    double mean_diagnose_s = 0;
    double mean_recover_s = 0;
    double mean_ttr_s = 0;  // detection -> recovered
  };
  std::map<std::string, ComponentStats> by_component;
  std::size_t total_faults = 0;
  std::size_t unrecovered = 0;
  /// Fraction of elapsed time with no unrecovered fault outstanding
  /// (a coarse whole-system availability estimate).
  double availability = 1.0;
};

struct CommandResult {
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
  sim::SimTime elapsed = 0;
  bool timed_out = false;
};

class AdminConsole final : public cluster::Daemon {
 public:
  AdminConsole(cluster::Cluster& cluster, net::NodeId node,
               kernel::PhoenixKernel& kernel);

  // --- monitoring ------------------------------------------------------------

  std::vector<NodeStatus> node_statuses() const;
  std::vector<ServicePlacement> service_placements() const;
  FaultAnalysis analyze_faults() const;

  /// ASCII status screen (nodes, placements, fault summary).
  std::string render_status() const;

  /// JSON snapshot of the cluster metrics registry (counters, gauges,
  /// histogram percentiles). Runs the registered probes, so fabric/engine
  /// gauges reflect the state at the moment of the query. "{}"-shaped but
  /// empty when the registry is disabled.
  std::string metrics_report() const;

  // --- administration ----------------------------------------------------------

  /// Runs a command on every listed node via PPM tree fan-out, driving the
  /// simulation until the aggregate reply arrives (or timeout).
  CommandResult run_command(const std::string& command,
                            std::vector<net::NodeId> nodes,
                            std::size_t fanout = 8,
                            sim::SimTime timeout = 30 * sim::kSecond);

  /// Drains a node for maintenance: kills its non-kernel processes, flags
  /// it in the configuration service, and publishes an admin event.
  /// Returns false for unknown/dead nodes.
  bool drain_node(net::NodeId node);
  bool undrain_node(net::NodeId node);
  bool is_drained(net::NodeId node) const;

  /// Planned handover: relocates a partition's server services (GSD, then
  /// its CS/ES/DB) to `target` WITHOUT waiting for failure detection —
  /// the maintenance companion of the failure-driven migration path, and
  /// the step before draining or shutting down a server node. The target
  /// must be a live node of the same partition.
  bool handover_partition(net::PartitionId partition, net::NodeId target);

 private:
  void publish_admin_event(std::string type, net::NodeId node);

  kernel::PhoenixKernel& kernel_;
  std::uint64_t next_request_id_ = 1;

  // In-flight blocking command.
  std::uint64_t pending_cmd_ = 0;
  CommandResult last_result_;
  bool cmd_done_ = false;
};

}  // namespace phoenix::admin
