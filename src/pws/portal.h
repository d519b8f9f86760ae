// PWS integrated portal (paper Figure 9: "Integrated Web GUI for
// Phoenix-PWS: Start/Shutdown Nodes").
//
// A user-environment daemon that talks to the scheduler over its message
// protocol (qstat/qdel-style), pulls node state from the data bulletin
// federation, and renders the integrated management screen: queue and job
// tables per pool, a node grid with per-node state, and start/shutdown
// controls for individual nodes (shutdown kills the node's user processes
// and powers it down cleanly; start powers it back up and restarts the
// kernel's per-node daemons).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "cluster/daemon.h"
#include "kernel/kernel.h"
#include "pws/scheduler.h"

namespace phoenix::pws {

class Portal final : public cluster::Daemon {
 public:
  Portal(cluster::Cluster& cluster, net::NodeId node,
         kernel::PhoenixKernel& kernel, net::Address scheduler,
         sim::SimTime refresh_interval = 5 * sim::kSecond);

  /// The job table as of the last refresh.
  const std::vector<Job>& jobs() const noexcept { return jobs_; }
  std::uint64_t refreshes() const noexcept { return refreshes_; }

  /// Issues an immediate refresh round-trip (tests/demos).
  void refresh_now() { refresh(); }

  /// Figure-9 style screen: job queue + node grid + controls legend.
  std::string render() const;

  // --- node controls (the figure's "Start/Shutdown Nodes") -----------------

  /// Clean shutdown: user processes killed, node powered off. The kernel
  /// will report it failed and PWS will requeue its jobs — that is the
  /// point: operators use the same resilience path.
  bool shutdown_node(net::NodeId node);

  /// Powers a node back up and restarts its per-node kernel daemons.
  bool start_node(net::NodeId node);

 private:
  void on_start() override;
  void on_stop() override;
  void refresh();

  kernel::PhoenixKernel& kernel_;
  net::Address scheduler_;
  sim::PeriodicTask refresher_;
  std::vector<Job> jobs_;
  std::vector<kernel::NodeRecord> nodes_;
  std::uint64_t refreshes_ = 0;
  std::uint64_t next_request_id_ = 1;
  std::uint64_t pending_jobs_query_ = 0;
  std::uint64_t pending_nodes_query_ = 0;
};

}  // namespace phoenix::pws
