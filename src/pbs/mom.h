// PBS MoM (machine-oriented miniserver) baseline daemon.
//
// One per node. Answers the central server's periodic polls with the node's
// resource gauges and the state of the job processes it launched, and
// spawns/kills jobs on request. This is the architecture the paper's §5.4
// contrasts with PWS: all state flows through polling, so control traffic
// scales with node count x poll rate rather than with state changes.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/daemon.h"
#include "cluster/node.h"
#include "net/message.h"

namespace phoenix::pbs {

struct PollMsg final : net::Message {
  net::Address reply_to;
  std::uint64_t poll_id = 0;

  PHOENIX_MESSAGE_TYPE("pbs.poll")
  std::size_t wire_size() const noexcept override { return 16; }
};

struct PollReplyMsg final : net::Message {
  std::uint64_t poll_id = 0;
  net::NodeId node;
  cluster::ResourceUsage usage;
  struct JobProcess {
    cluster::Pid pid = 0;
    bool running = false;
  };
  std::vector<JobProcess> job_processes;

  PHOENIX_MESSAGE_TYPE("pbs.poll_reply")
  std::size_t wire_size() const noexcept override {
    return cluster::ResourceUsage::kWireBytes + job_processes.size() * 9 + 16;
  }
};

struct MomSpawnMsg final : net::Message {
  std::string job_name;
  std::string owner;
  double cpu_share = 1.0;
  sim::SimTime duration = 0;
  net::Address reply_to;
  std::uint64_t request_id = 0;

  PHOENIX_MESSAGE_TYPE("pbs.spawn")
  std::size_t wire_size() const noexcept override {
    // Same image-shipping cost as the PPM path, for a fair comparison.
    return job_name.size() + owner.size() + (4 << 20) / 1024 + 32;
  }
};

struct MomSpawnReplyMsg final : net::Message {
  std::uint64_t request_id = 0;
  bool ok = false;
  cluster::Pid pid = 0;
  net::NodeId node;

  PHOENIX_MESSAGE_TYPE("pbs.spawn_reply")
  std::size_t wire_size() const noexcept override { return 24; }
};

struct MomKillMsg final : net::Message {
  cluster::Pid pid = 0;

  PHOENIX_MESSAGE_TYPE("pbs.kill")
  std::size_t wire_size() const noexcept override { return 16; }
};

class Mom final : public cluster::Daemon {
 public:
  Mom(cluster::Cluster& cluster, net::NodeId node, double cpu_share = 0.0);

 private:
  std::vector<cluster::Pid> launched_;
};

}  // namespace phoenix::pbs
