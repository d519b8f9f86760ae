// Synthetic parallel (MPI-style) application model.
//
// A gang of rank daemons, one per allocated node, exchanging messages over
// the SAME simulated networks the Phoenix kernel uses for its control
// traffic. This puts application and kernel traffic on one fabric so their
// shares can be compared — the network-side companion to Table 4's CPU-side
// overhead measurement ("fault tolerance means loss of performance"; how
// much of the wire does the kernel actually take?).
//
// Communication pattern: a ring exchange (each rank sends a block to its
// right neighbour every step), the dominant pattern of HPL's panel
// broadcasts and of many stencil codes.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/daemon.h"

namespace phoenix::workload {

struct MpiJobConfig {
  std::vector<net::NodeId> nodes;          // one rank per node
  sim::SimTime step_interval = 100 * sim::kMillisecond;
  std::size_t block_bytes = 256 * 1024;    // payload per neighbour exchange
  sim::SimTime duration = 0;               // 0 = run until stopped
  net::PortId port = net::PortId{40};      // rank mailbox port
};

/// The payload of one ring-exchange step.
struct MpiBlockMsg final : net::Message {
  std::uint64_t step = 0;
  std::uint32_t from_rank = 0;
  std::size_t bytes = 0;

  PHOENIX_MESSAGE_TYPE("app.mpi_block")
  std::size_t wire_size() const noexcept override { return bytes + 16; }
};

class MpiRank final : public cluster::Daemon {
 public:
  MpiRank(cluster::Cluster& cluster, const MpiJobConfig& config,
          std::uint32_t rank);

  std::uint64_t steps_sent() const noexcept { return steps_sent_; }
  std::uint64_t blocks_received() const noexcept { return blocks_received_; }

 private:
  void on_start() override;
  void on_stop() override;
  void step();

  const MpiJobConfig config_;
  std::uint32_t rank_;
  sim::PeriodicTask stepper_;
  std::uint64_t steps_sent_ = 0;
  std::uint64_t blocks_received_ = 0;
};

/// Owns the gang: creates one rank per node and starts/stops them together.
class MpiJob {
 public:
  MpiJob(cluster::Cluster& cluster, MpiJobConfig config);

  void start();
  void stop();

  std::size_t ranks() const noexcept { return ranks_.size(); }
  const MpiRank& rank(std::size_t i) const { return *ranks_.at(i); }

  /// Total exchanges completed across the gang.
  std::uint64_t total_steps() const;

 private:
  MpiJobConfig config_;
  std::vector<std::unique_ptr<MpiRank>> ranks_;
};

}  // namespace phoenix::workload
