#include "load.h"

#include <algorithm>
#include <cmath>

#include "sim/rng.h"

namespace perfbench {

std::vector<KernelOp> generate_kernel_ops(const KernelLoadParams& p) {
  sim::Rng rng(sim::derive_stream_seed(p.seed, 1));
  std::vector<KernelOp> ops;
  ops.reserve(static_cast<std::size_t>(sim::to_seconds(p.duration) * p.rate * 1.1));
  const unsigned keys_per_client = std::max(1u, p.keys / p.clients);
  double t = 0.0;
  const double horizon = sim::to_seconds(p.duration);
  while (true) {
    t += rng.exponential(1.0 / p.rate);
    if (t >= horizon) break;
    KernelOp op;
    op.at = sim::from_seconds(t);
    op.client = static_cast<std::uint8_t>(rng.uniform_int(0, p.clients - 1));
    const double dice = rng.uniform();
    op.kind = dice < 0.4   ? KernelOpKind::kConfigGet
              : dice < 0.5 ? KernelOpKind::kConfigSet
              : dice < 0.7 ? KernelOpKind::kCheckpointSave
              : dice < 0.9 ? KernelOpKind::kCheckpointLoad
                           : KernelOpKind::kBulletinQuery;
    op.key = static_cast<std::uint16_t>(
        op.client + p.clients * rng.uniform_int(0, keys_per_client - 1));
    ops.push_back(op);
  }
  return ops;
}

std::vector<std::uint32_t> pick_partitions(std::uint32_t partitions,
                                           unsigned count, std::uint64_t seed) {
  sim::Rng rng(sim::derive_stream_seed(seed, 4));
  std::vector<std::uint32_t> parts(partitions);
  for (std::uint32_t p = 0; p < partitions; ++p) parts[p] = p;
  for (std::size_t i = parts.size(); i > 1; --i) {
    std::swap(parts[i - 1], parts[rng.uniform_int(0, i - 1)]);
  }
  parts.resize(std::min<std::size_t>(count, parts.size()));
  return parts;
}

std::vector<PlannedFault> plan_faults(const FaultPlanParams& p) {
  sim::Rng rng(sim::derive_stream_seed(p.seed, 2));
  std::vector<std::uint32_t> order = p.server_crash_partitions;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.uniform_int(0, i - 1)]);
  }
  static constexpr FaultKind kRotation[] = {
      FaultKind::kWdKill, FaultKind::kServiceKill, FaultKind::kComputeCrash,
      FaultKind::kNicCut, FaultKind::kServerCrash};
  std::vector<PlannedFault> plan;
  std::size_t server_crashes = 0;
  for (std::size_t i = 0;; ++i) {
    PlannedFault f;
    const sim::SimTime slot = p.interval * i;
    f.at = slot + sim::from_seconds(
                      rng.uniform(0.0, sim::to_seconds(p.interval) * 0.5));
    if (f.at >= p.duration) break;
    f.kind = kRotation[i % 5];
    f.partition = static_cast<std::uint32_t>(rng.uniform_int(0, p.partitions - 1));
    if (f.kind == FaultKind::kServiceKill) {
      f.partition = p.service_kill_partitions[f.partition % p.service_kill_partitions.size()];
    }
    if (f.kind == FaultKind::kServerCrash) {
      if (server_crashes < order.size()) {
        f.partition = order[server_crashes++];
      } else {
        f.kind = FaultKind::kComputeCrash;
      }
    }
    f.node_pick = static_cast<std::uint32_t>(rng.uniform_int(0, 1u << 20));
    f.network = static_cast<std::uint8_t>(rng.uniform_int(0, p.networks - 1));
    f.event_service = rng.chance(0.5);
    plan.push_back(f);
  }
  return plan;
}

std::vector<PortalJob> generate_portal_jobs(const PortalLoadParams& p) {
  // Every seed submits the same multiset of job shapes (node counts cycle
  // 1..max_nodes, durations are the exponential distribution's quantiles,
  // exactly cancel_fraction of the jobs are cancelled) over exactly the
  // horizon; the seed draws the order and the arrival gaps. The offered
  // load is then the same for every seed and only its arrangement varies.
  sim::Rng rng(sim::derive_stream_seed(p.seed, 3));
  const std::size_t n = p.jobs;
  std::vector<PortalJob> jobs(n);
  std::vector<double> gaps(n);
  double total = 0.0;
  for (double& g : gaps) total += g = rng.exponential(1.0);
  const std::size_t cancels =
      static_cast<std::size_t>(p.cancel_fraction * static_cast<double>(n) + 0.5);
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    t += gaps[i] / total * sim::to_seconds(p.horizon);
    PortalJob& j = jobs[i];
    j.at = sim::from_seconds(t);
    j.nodes = static_cast<unsigned>(1 + i % p.max_nodes);
    const double q = (static_cast<double>(i) + 0.5) / static_cast<double>(n);
    j.duration = sim::from_seconds(1.0 - p.mean_duration_s * std::log(1.0 - q));
    j.priority = static_cast<int>(i % 4);
    if (i < cancels) {
      j.cancel_after = sim::from_seconds(0.5 + 19.5 * (static_cast<double>(i) + 0.5) /
                                                   static_cast<double>(cancels));
    }
  }
  // Shuffle the shapes over the arrival slots; users are drawn per job.
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t k = rng.uniform_int(0, i - 1);
    std::swap(jobs[i - 1].nodes, jobs[k].nodes);
    std::swap(jobs[i - 1].duration, jobs[k].duration);
    std::swap(jobs[i - 1].priority, jobs[k].priority);
    std::swap(jobs[i - 1].cancel_after, jobs[k].cancel_after);
  }
  for (PortalJob& j : jobs) {
    j.user = static_cast<std::uint32_t>(rng.uniform_int(0, p.users - 1));
  }
  return jobs;
}

}  // namespace perfbench
