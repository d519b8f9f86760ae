// Seeded load and fault plans. Pure functions of their parameters: the same
// seed gives the same plan, and the program only ever sees the generated
// inputs, never the seed.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.h"

namespace perfbench {

namespace sim = ::phoenix::sim;

// --- kernel_faults ------------------------------------------------------------

enum class KernelOpKind : std::uint8_t {
  kConfigGet,
  kConfigSet,
  kCheckpointSave,
  kCheckpointLoad,
  kBulletinQuery,
};

struct KernelOp {
  sim::SimTime at = 0;  // offset from the start of the timed phase
  std::uint8_t client = 0;
  KernelOpKind kind = KernelOpKind::kConfigGet;
  std::uint16_t key = 0;  // key % clients == client: one writer per key

  friend bool operator==(const KernelOp&, const KernelOp&) = default;
};

struct KernelLoadParams {
  unsigned clients = 4;
  double rate = 200.0;  // calls/s over all clients, open loop (Poisson)
  sim::SimTime duration = 3600 * sim::kSecond;
  unsigned keys = 500;
  std::uint64_t seed = 1;
};

/// Open-loop call schedule in time order: 40% config_get, 10% config_set,
/// 20% checkpoint_save, 20% checkpoint_load, 10% partition bulletin query.
std::vector<KernelOp> generate_kernel_ops(const KernelLoadParams& p);

/// `count` distinct partitions out of `partitions`, seeded (client homes).
std::vector<std::uint32_t> pick_partitions(std::uint32_t partitions,
                                           unsigned count, std::uint64_t seed);

enum class FaultKind : std::uint8_t {
  kWdKill,        // watch daemon process killed on a node
  kServiceKill,   // the partition's event or checkpoint service killed
  kComputeCrash,  // compute node powered off, restored later
  kNicCut,        // one interface of one node cut, restored later
  kServerCrash,   // node hosting the partition's services crashed, restored later
};

struct PlannedFault {
  sim::SimTime at = 0;  // offset from the start of the timed phase
  FaultKind kind = FaultKind::kWdKill;
  std::uint32_t partition = 0;
  std::uint32_t node_pick = 0;  // index into the eligible nodes, modulo size
  std::uint8_t network = 0;
  bool event_service = false;   // kServiceKill: ES (true) or CS (false)

  friend bool operator==(const PlannedFault&, const PlannedFault&) = default;
};

struct FaultPlanParams {
  sim::SimTime duration = 3600 * sim::kSecond;
  sim::SimTime interval = 20 * sim::kSecond;  // one fault per interval
  std::uint32_t partitions = 32;
  /// Partitions whose event or checkpoint service may be killed.
  std::vector<std::uint32_t> service_kill_partitions;
  /// Partitions whose service host may be crashed, each at most once.
  std::vector<std::uint32_t> server_crash_partitions;
  std::uint8_t networks = 3;
  std::uint64_t seed = 1;
};

/// One fault per interval at a seeded offset inside it. Kinds rotate in a
/// fixed order so every seed injects the same mix. Server crashes walk a
/// seeded permutation of the eligible partitions; once every eligible
/// partition has lost its service host, further server-crash slots crash a
/// compute node instead.
std::vector<PlannedFault> plan_faults(const FaultPlanParams& p);

// --- pws_portal -----------------------------------------------------------------

struct PortalJob {
  sim::SimTime at = 0;  // submit offset from the start of the timed phase
  std::uint32_t user = 0;
  unsigned nodes = 1;
  sim::SimTime duration = 0;
  int priority = 0;
  sim::SimTime cancel_after = 0;  // 0 = never cancelled

  friend bool operator==(const PortalJob&, const PortalJob&) = default;
};

struct PortalLoadParams {
  std::size_t jobs = 1000;
  sim::SimTime horizon = 600 * sim::kSecond;
  std::uint32_t users = 16;
  unsigned max_nodes = 8;
  double mean_duration_s = 10.0;
  double cancel_fraction = 0.03;
  std::uint64_t seed = 1;
};

/// Multi-node jobs arriving over the horizon: a fixed multiset of shapes
/// in seeded order with seeded exponential gaps scaled to the horizon.
std::vector<PortalJob> generate_portal_jobs(const PortalLoadParams& p);

}  // namespace perfbench
