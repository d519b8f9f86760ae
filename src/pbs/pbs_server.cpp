#include "pbs/pbs_server.h"

#include <algorithm>
#include <memory>

namespace phoenix::pbs {

PbsServer::PbsServer(cluster::Cluster& cluster, net::NodeId node,
                     std::vector<net::NodeId> compute_nodes,
                     sim::SimTime poll_interval)
    : Daemon(cluster, "pbs.server", node, cluster::ports::kPbsServer),
      compute_nodes_(std::move(compute_nodes)),
      poll_interval_(poll_interval),
      poller_(cluster.engine(), poll_interval, [this] { poll_all(); }) {
  on<MomSpawnReplyMsg>([this](const MomSpawnReplyMsg& reply) {
    auto it = pending_spawns_.find(reply.request_id);
    if (it == pending_spawns_.end() || !reply.ok) return;
    const auto [job_id, job_node] = it->second;
    pending_spawns_.erase(it);
    auto job_it = jobs_.find(job_id);
    if (job_it == jobs_.end()) return;
    job_it->second.pids[job_node.value] = reply.pid;
    pid_to_job_[reply.pid] = job_id;
    pid_expected_exit_[reply.pid] = now() + job_it->second.duration;
  });

  on<PollReplyMsg>([this](const PollReplyMsg& poll) {
    // Completion is only discovered here — the polling lag the paper
    // criticizes.
    for (const auto& proc : poll.job_processes) {
      if (proc.running) continue;
      auto pit = pid_to_job_.find(proc.pid);
      if (pit == pid_to_job_.end()) continue;
      const JobId job_id = pit->second;
      pid_to_job_.erase(pit);
      auto expected = pid_expected_exit_.find(proc.pid);
      if (expected != pid_expected_exit_.end()) {
        if (now() > expected->second) {
          completion_lag_sum_s_ += sim::to_seconds(now() - expected->second);
          ++completion_lag_count_;
        }
        pid_expected_exit_.erase(expected);
      }
      auto job_it = jobs_.find(job_id);
      if (job_it == jobs_.end()) continue;
      Job& job = job_it->second;
      ++job.exited;
      if (node_running_[poll.node.value] == job_id) {
        node_running_.erase(poll.node.value);
      }
      if (job.exited >= job.allocated.size() && job.state == JobState::kRunning) {
        job.state = JobState::kCompleted;
        job.finished_at = now();
        ++stats_.completed;
      }
    }
    schedule_jobs();
  });
}

void PbsServer::on_start() {
  poller_.set_period(poll_interval_);
  poller_.start_after(poll_interval_);
}

void PbsServer::on_stop() { poller_.stop(); }

JobId PbsServer::submit(const SubmitRequest& request) {
  Job job;
  job.id = next_job_id_++;
  job.name = request.name.empty() ? "job" + std::to_string(job.id) : request.name;
  job.user = request.user;
  job.pool = "default";
  job.nodes_needed = std::max(1u, request.nodes);
  job.duration = request.duration;
  job.state = JobState::kQueued;
  job.submitted_at = now();
  const JobId id = job.id;
  jobs_.emplace(id, std::move(job));
  queue_.push_back(id);
  ++stats_.submitted;
  schedule_jobs();
  return id;
}

void PbsServer::schedule_jobs() {
  // Strict FIFO over the central free-node view.
  while (!queue_.empty()) {
    auto job_it = jobs_.find(queue_.front());
    if (job_it == jobs_.end() || job_it->second.terminal()) {
      queue_.pop_front();
      continue;
    }
    Job& job = job_it->second;
    std::vector<net::NodeId> free;
    for (net::NodeId n : compute_nodes_) {
      if (!node_running_.contains(n.value)) free.push_back(n);
      if (free.size() == job.nodes_needed) break;
    }
    if (free.size() < job.nodes_needed) break;  // head-of-line blocks
    job.allocated = free;
    job.state = JobState::kRunning;
    job.started_at = now();
    stats_.total_wait_seconds += sim::to_seconds(now() - job.submitted_at);
    for (net::NodeId n : free) node_running_[n.value] = job.id;
    queue_.pop_front();
    launch(job);
  }
}

void PbsServer::launch(Job& job) {
  for (net::NodeId n : job.allocated) {
    auto spawn = std::make_shared<MomSpawnMsg>();
    spawn->job_name = job.name;
    spawn->owner = job.user;
    spawn->cpu_share = static_cast<double>(cluster().node(n).cpus());
    spawn->duration = job.duration;
    spawn->reply_to = address();
    spawn->request_id = next_request_id_++;
    pending_spawns_[spawn->request_id] = {job.id, n};
    send_any({n, cluster::ports::kPbsMom}, std::move(spawn));
  }
}

void PbsServer::poll_all() {
  if (!alive()) return;
  for (net::NodeId n : compute_nodes_) {
    auto poll = std::make_shared<PollMsg>();
    poll->reply_to = address();
    poll->poll_id = next_request_id_++;
    send_any({n, cluster::ports::kPbsMom}, std::move(poll));
    ++stats_.polls_sent;
  }
}

const Job* PbsServer::job(JobId id) const {
  auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : &it->second;
}

std::size_t PbsServer::queued_count() const {
  std::size_t n = 0;
  for (const auto& [id, job] : jobs_) {
    if (job.state == JobState::kQueued) ++n;
  }
  return n;
}

std::size_t PbsServer::running_count() const {
  std::size_t n = 0;
  for (const auto& [id, job] : jobs_) {
    if (job.state == JobState::kRunning) ++n;
  }
  return n;
}

double PbsServer::mean_completion_lag_seconds() const {
  return completion_lag_count_ == 0
             ? 0.0
             : completion_lag_sum_s_ / static_cast<double>(completion_lag_count_);
}

}  // namespace phoenix::pbs
