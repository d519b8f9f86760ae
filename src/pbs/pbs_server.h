// PBS-style central batch server baseline (paper §5.4, Figure 7).
//
// One central server, FIFO queue, no high availability. Resource state and
// job completion are learned exclusively by polling every node's MoM at a
// fixed rate — the paper's point: "PBS needs polling continually and
// consumes network bandwidth", and a failed server takes the whole batch
// system down.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "cluster/daemon.h"
#include "pbs/mom.h"
#include "pws/job.h"  // reuse the Job/JobState model for comparable stats

namespace phoenix::pbs {

using pws::Job;
using pws::JobId;
using pws::JobState;
using pws::SubmitRequest;

struct PbsStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t polls_sent = 0;
  double total_wait_seconds = 0.0;
};

class PbsServer final : public cluster::Daemon {
 public:
  PbsServer(cluster::Cluster& cluster, net::NodeId node,
            std::vector<net::NodeId> compute_nodes,
            sim::SimTime poll_interval = 10 * sim::kSecond);

  JobId submit(const SubmitRequest& request);

  const Job* job(JobId id) const;
  const std::map<JobId, Job>& jobs() const noexcept { return jobs_; }
  const PbsStats& stats() const noexcept { return stats_; }
  std::size_t queued_count() const;
  std::size_t running_count() const;

  /// Observed completion lag: job actually exited -> server noticed.
  /// (Mean over completed processes; the PWS/PBS bench reports this.)
  double mean_completion_lag_seconds() const;

 private:
  void on_start() override;
  void on_stop() override;
  void poll_all();
  void schedule_jobs();
  void launch(Job& job);

  std::vector<net::NodeId> compute_nodes_;
  sim::SimTime poll_interval_;
  sim::PeriodicTask poller_;

  std::deque<JobId> queue_;
  std::map<JobId, Job> jobs_;
  std::map<std::uint32_t, JobId> node_running_;        // node -> job
  std::map<cluster::Pid, JobId> pid_to_job_;
  std::map<cluster::Pid, sim::SimTime> pid_expected_exit_;
  std::map<std::uint64_t, std::pair<JobId, net::NodeId>> pending_spawns_;
  JobId next_job_id_ = 1;
  std::uint64_t next_request_id_ = 1;
  PbsStats stats_;
  double completion_lag_sum_s_ = 0.0;
  std::uint64_t completion_lag_count_ = 0;
};

}  // namespace phoenix::pbs
