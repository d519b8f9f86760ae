#include "workload/mpi_job.h"

namespace phoenix::workload {

MpiRank::MpiRank(cluster::Cluster& cluster, const MpiJobConfig& config,
                 std::uint32_t rank)
    : Daemon(cluster, "mpi.rank" + std::to_string(rank),
             config.nodes.at(rank), config.port, /*cpu_share=*/1.0),
      config_(config),
      rank_(rank),
      stepper_(cluster.engine(), config.step_interval, [this] { step(); }) {
  on<MpiBlockMsg>([this](const MpiBlockMsg&) { ++blocks_received_; });
}

void MpiRank::on_start() {
  stepper_.set_period(config_.step_interval);
  // Ranks start in lockstep (a real gang launcher synchronizes them).
  stepper_.start_after(config_.step_interval);
  if (config_.duration > 0) {
    engine().schedule_after(config_.duration, [this] {
      if (running()) stop();
    });
  }
}

void MpiRank::on_stop() { stepper_.stop(); }

void MpiRank::step() {
  if (!alive()) return;
  const std::uint32_t right =
      static_cast<std::uint32_t>((rank_ + 1) % config_.nodes.size());
  auto block = std::make_shared<MpiBlockMsg>();
  block->step = ++steps_sent_;
  block->from_rank = rank_;
  block->bytes = config_.block_bytes;
  send_any({config_.nodes[right], config_.port}, std::move(block));
}

MpiJob::MpiJob(cluster::Cluster& cluster, MpiJobConfig config)
    : config_(std::move(config)) {
  for (std::uint32_t r = 0; r < config_.nodes.size(); ++r) {
    ranks_.push_back(std::make_unique<MpiRank>(cluster, config_, r));
  }
}

void MpiJob::start() {
  for (auto& rank : ranks_) rank->start();
}

void MpiJob::stop() {
  for (auto& rank : ranks_) {
    if (rank->running()) rank->stop();
  }
}

std::uint64_t MpiJob::total_steps() const {
  std::uint64_t total = 0;
  for (const auto& rank : ranks_) total += rank->steps_sent();
  return total;
}

}  // namespace phoenix::workload
