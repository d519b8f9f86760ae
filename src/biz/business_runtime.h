// Business application runtime environment (paper §3, Figure 1): "manages
// multi-tier business applications and guarantees their high-availability
// and load-balancing".
//
// A business application is a set of tiers (web / app / db / ...), each
// with a target replica count. The runtime:
//  - deploys replicas through the parallel process management service,
//    placing them round-robin or on the least-loaded candidate node (load
//    read from the data bulletin federation — the §4.2 purpose of the
//    application/physical detectors for "business application runtime");
//  - subscribes to application-exit and node-failure events and redeploys
//    replicas to hold every tier at its target (self-healing);
//  - routes logical requests across running replicas (round-robin) and
//    accounts availability: a request succeeds only when EVERY tier has at
//    least one live replica — the 7x24 metric of the paper's introduction.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cluster/daemon.h"
#include "kernel/kernel.h"

namespace phoenix::biz {

struct TierSpec {
  std::string name;
  unsigned replicas = 1;
  double cpu_share = 1.0;
};

enum class PlacementPolicy : std::uint8_t {
  kRoundRobin,
  kLeastLoaded,  // lowest CPU among candidates, from the bulletin federation
};

struct BizConfig {
  std::vector<TierSpec> tiers;
  PlacementPolicy placement = PlacementPolicy::kRoundRobin;
  /// Period of the synthetic request driver (0 = no requests generated).
  sim::SimTime request_interval = 0;
  /// Bulletin refresh period for least-loaded placement.
  sim::SimTime load_refresh_interval = 5 * sim::kSecond;
};

struct BizStats {
  std::uint64_t deployed = 0;
  std::uint64_t restarts = 0;
  std::uint64_t requests_served = 0;
  std::uint64_t requests_failed = 0;

  double availability() const {
    const std::uint64_t total = requests_served + requests_failed;
    return total == 0 ? 1.0
                      : static_cast<double>(requests_served) /
                            static_cast<double>(total);
  }
};

class BusinessRuntime final : public cluster::Daemon {
 public:
  BusinessRuntime(cluster::Cluster& cluster, net::NodeId node,
                  kernel::PhoenixKernel& kernel, BizConfig config);

  std::size_t replicas_running(const std::string& tier) const;
  const BizStats& stats() const noexcept { return stats_; }

  /// Routes one logical request through every tier; true iff each tier had
  /// a live replica. Counted in stats().
  bool route_request();

  /// Node currently hosting each running replica of a tier (tests).
  std::vector<net::NodeId> replica_nodes(const std::string& tier) const;

  std::string render_status() const;

 private:
  struct Instance {
    std::string tier;
    net::NodeId node;
    bool running = false;
  };

  void on_start() override;
  void on_stop() override;
  void deploy(const TierSpec& tier);
  void heal(cluster::Pid pid);
  void refresh_load();
  const TierSpec* tier_spec(const std::string& name) const;
  std::vector<net::NodeId> placement_candidates() const;

  kernel::PhoenixKernel& kernel_;
  BizConfig config_;
  std::map<cluster::Pid, Instance> instances_;
  std::map<std::uint64_t, std::string> pending_;  // spawn request -> tier
  std::map<std::uint32_t, double> node_cpu_;      // bulletin-fed load cache
  BizStats stats_;
  std::uint64_t request_seq_ = 0;
  std::size_t next_placement_ = 0;
  std::uint64_t load_query_id_ = 0;
  sim::PeriodicTask request_driver_;
  sim::PeriodicTask load_refresher_;
};

}  // namespace phoenix::biz
