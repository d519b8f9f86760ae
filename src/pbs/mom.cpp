#include "pbs/mom.h"

#include <memory>

namespace phoenix::pbs {

Mom::Mom(cluster::Cluster& cluster, net::NodeId node, double cpu_share)
    : Daemon(cluster, "pbs.mom", node, cluster::ports::kPbsMom, cpu_share) {
  on<PollMsg>([this](const PollMsg& poll) {
    auto reply = std::make_shared<PollReplyMsg>();
    reply->poll_id = poll.poll_id;
    reply->node = node_id();
    const auto& node = this->cluster().node(node_id());
    reply->usage = node.resources();
    for (cluster::Pid pid : launched_) {
      const auto* info = node.find_process(pid);
      reply->job_processes.push_back(PollReplyMsg::JobProcess{
          pid, info != nullptr && info->state == cluster::ProcessState::kRunning});
    }
    send_any(poll.reply_to, std::move(reply));
  });

  on<MomSpawnMsg>([this](const MomSpawnMsg& spawn) {
    auto& node = this->cluster().node(node_id());
    const cluster::Pid pid = this->cluster().next_pid();
    node.add_process(cluster::ProcessInfo{
        .pid = pid,
        .name = spawn.job_name,
        .owner = spawn.owner,
        .state = cluster::ProcessState::kRunning,
        .cpu_share = spawn.cpu_share,
        .started_at = now(),
    });
    launched_.push_back(pid);
    if (spawn.duration > 0) {
      engine().schedule_after(spawn.duration, [this, pid] {
        auto& n = this->cluster().node(node_id());
        if (n.alive()) n.terminate_process(pid, cluster::ProcessState::kExited, now());
      });
    }
    if (spawn.reply_to.valid()) {
      auto reply = std::make_shared<MomSpawnReplyMsg>();
      reply->request_id = spawn.request_id;
      reply->ok = true;
      reply->pid = pid;
      reply->node = node_id();
      send_any(spawn.reply_to, std::move(reply));
    }
  });

  on<MomKillMsg>([this](const MomKillMsg& kill) {
    this->cluster().node(node_id()).terminate_process(kill.pid,
                                                cluster::ProcessState::kKilled, now());
  });
}

}  // namespace phoenix::pbs
