// GridView monitoring environment (paper §5.3, Figure 6).
//
// GridView interacts with the Phoenix kernel ONLY through the documented
// interfaces of the data bulletin, event, and configuration services:
//  - registers its interested event types (node/network failures and
//    recoveries) with the event service and receives real-time pushes;
//  - collects cluster-wide performance data with a single call to the data
//    bulletin federation, at a configurable refresh rate;
//  - renders the cluster-wide average CPU / memory / swap usage snapshot
//    (ASCII here; the original renders pixels).
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "cluster/daemon.h"
#include "kernel/bulletin/data_bulletin.h"
#include "kernel/event/event_service.h"
#include "kernel/kernel.h"
#include "obs/metrics.h"

namespace phoenix::gridview {

class GridView final : public cluster::Daemon {
 public:
  GridView(cluster::Cluster& cluster, net::NodeId node,
           kernel::PhoenixKernel& kernel,
           sim::SimTime refresh_interval = 10 * sim::kSecond);

  /// Most recent cluster-wide aggregates.
  const kernel::UsageSummary& last_summary() const noexcept { return summary_; }
  const std::vector<kernel::NodeRecord>& last_nodes() const noexcept {
    return nodes_;
  }

  /// Round-trip latency of the most recent federation query.
  sim::SimTime last_refresh_latency() const noexcept { return last_latency_; }
  std::uint64_t refreshes_completed() const noexcept { return refreshes_; }
  std::uint32_t last_partitions_included() const noexcept {
    return partitions_included_;
  }

  /// Time-series of past refreshes (performance analysis; bounded buffer).
  struct Sample {
    sim::SimTime at = 0;
    kernel::UsageSummary summary;
    sim::SimTime query_latency = 0;
  };
  const std::deque<Sample>& history() const noexcept { return history_; }

  /// ASCII sparkline of a metric over the retained history.
  enum class Metric { kCpu, kMem, kSwap, kQueryLatency };
  std::string render_sparkline(Metric metric, std::size_t width = 60) const;

  /// Mean query latency over the retained history, seconds.
  double mean_query_latency_s() const;

  /// Event notifications received (most recent last; bounded buffer).
  const std::deque<kernel::Event>& events() const noexcept { return events_; }

  /// ASCII rendering of the Figure-6 style dashboard.
  std::string render_dashboard() const;

  /// Issues an immediate refresh (tests/benches).
  void refresh_now() { refresh(); }

  /// Aggregate mode: partition instances summarize locally and only the
  /// constant-size UsageSummary travels (no per-node rows). Right for very
  /// large clusters; last_nodes() stays empty while enabled.
  void set_aggregate_mode(bool on) noexcept { aggregate_mode_ = on; }

 private:
  void on_start() override;
  void on_stop() override;
  void refresh();

  kernel::PhoenixKernel& kernel_;
  sim::PeriodicTask refresher_;
  kernel::UsageSummary summary_;
  std::vector<kernel::NodeRecord> nodes_;
  std::deque<kernel::Event> events_;
  std::deque<Sample> history_;
  std::uint64_t refreshes_ = 0;
  bool aggregate_mode_ = false;
  std::uint64_t query_seq_ = 1;
  std::uint64_t pending_query_ = 0;
  sim::SimTime query_sent_at_ = 0;
  sim::SimTime last_latency_ = 0;
  std::uint32_t partitions_included_ = 0;
  obs::Histogram* refresh_latency_hist_ = nullptr;  // resolved on first use
};

}  // namespace phoenix::gridview
