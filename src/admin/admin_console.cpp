#include "admin/admin_console.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "kernel/event/event_service.h"
#include "kernel/ppm/process_manager.h"

namespace phoenix::admin {

namespace {
constexpr net::PortId kAdminPort{20};
}  // namespace

AdminConsole::AdminConsole(cluster::Cluster& cluster, net::NodeId node,
                           kernel::PhoenixKernel& kernel)
    : Daemon(cluster, "admin", node, kAdminPort), kernel_(kernel) {
  on<kernel::ParallelCmdReplyMsg>(
      [this](const kernel::ParallelCmdReplyMsg& reply) {
        if (reply.request_id != pending_cmd_) return;
        last_result_.succeeded = reply.succeeded;
        last_result_.failed = reply.failed;
        cmd_done_ = true;
      });
  start();
}

std::vector<NodeStatus> AdminConsole::node_statuses() const {
  std::vector<NodeStatus> out;
  for (const auto& node : kernel_.cluster().nodes()) {
    NodeStatus status;
    status.node = node.id();
    status.partition = node.partition();
    status.role = node.role();
    status.alive = node.alive();
    status.drained = is_drained(node.id());
    status.running_processes = node.running_process_count();
    status.cpu_pct = node.resources().cpu_pct;
    status.mem_pct = node.resources().mem_pct;
    out.push_back(status);
  }
  return out;
}

std::vector<ServicePlacement> AdminConsole::service_placements() const {
  std::vector<ServicePlacement> out;
  using kernel::ServiceKind;
  for (ServiceKind kind :
       {ServiceKind::kGroupService, ServiceKind::kEventService,
        ServiceKind::kCheckpointService, ServiceKind::kDataBulletin}) {
    for (std::size_t p = 0; p < kernel_.partition_count(); ++p) {
      const net::PartitionId pid{static_cast<std::uint32_t>(p)};
      ServicePlacement placement;
      placement.kind = kind;
      placement.partition = pid;
      placement.node = kernel_.service_node(kind, pid);
      const cluster::Daemon* d =
          kernel_.cluster().daemon_at(kernel_.service_address(kind, pid));
      placement.alive = d != nullptr && d->alive();
      out.push_back(placement);
    }
  }
  return out;
}

FaultAnalysis AdminConsole::analyze_faults() const {
  FaultAnalysis analysis;
  const auto& records = kernel_.fault_log().records();
  analysis.total_faults = records.size();

  // Accumulate per-component means and the union of outage intervals. An
  // outage starts at the component's last confirmed sign of life (the GSD
  // records it from the heartbeat tables), not at detection.
  std::vector<std::pair<sim::SimTime, sim::SimTime>> outages;
  for (const auto& r : records) {
    auto& c = analysis.by_component[r.component];
    ++c.faults;
    c.mean_diagnose_s += sim::to_seconds(r.diagnosed_at - r.detected_at);
    const sim::SimTime began = r.last_seen_at > 0 ? r.last_seen_at : r.detected_at;
    if (r.recovered) {
      ++c.recovered;
      c.mean_recover_s += sim::to_seconds(r.recovered_at - r.diagnosed_at);
      c.mean_ttr_s += sim::to_seconds(r.recovered_at - began);
      outages.emplace_back(began, r.recovered_at);
    } else {
      ++analysis.unrecovered;
      outages.emplace_back(began, kernel_.cluster().now());
    }
  }
  for (auto& [component, c] : analysis.by_component) {
    const double n = static_cast<double>(c.faults);
    c.mean_diagnose_s /= n;
    if (c.recovered > 0) {
      c.mean_recover_s /= static_cast<double>(c.recovered);
      c.mean_ttr_s /= static_cast<double>(c.recovered);
    }
  }

  // Availability: 1 - (union of outage time) / elapsed.
  const double elapsed = sim::to_seconds(kernel_.cluster().now());
  if (elapsed > 0 && !outages.empty()) {
    std::sort(outages.begin(), outages.end());
    double covered = 0;
    sim::SimTime cur_start = outages[0].first, cur_end = outages[0].second;
    for (std::size_t i = 1; i < outages.size(); ++i) {
      if (outages[i].first <= cur_end) {
        cur_end = std::max(cur_end, outages[i].second);
      } else {
        covered += sim::to_seconds(cur_end - cur_start);
        cur_start = outages[i].first;
        cur_end = outages[i].second;
      }
    }
    covered += sim::to_seconds(cur_end - cur_start);
    analysis.availability = std::max(0.0, 1.0 - covered / elapsed);
  }
  return analysis;
}

std::string AdminConsole::render_status() const {
  std::ostringstream out;
  char line[192];

  out << "=== Fire Phoenix administration console ===\n";
  std::size_t alive = 0, drained = 0;
  const auto statuses = node_statuses();
  for (const auto& s : statuses) {
    if (s.alive) ++alive;
    if (s.drained) ++drained;
  }
  std::snprintf(line, sizeof(line), "nodes: %zu total, %zu alive, %zu drained\n",
                statuses.size(), alive, drained);
  out << line;

  out << "service placement:\n";
  for (const auto& p : service_placements()) {
    std::snprintf(line, sizeof(line), "  %-6s partition %-3u -> node %-4u %s\n",
                  std::string(kernel::to_string(p.kind)).c_str(),
                  p.partition.value, p.node.value, p.alive ? "up" : "DOWN");
    out << line;
  }

  const FaultAnalysis analysis = analyze_faults();
  std::snprintf(line, sizeof(line),
                "faults: %zu handled (%zu unrecovered), availability %.4f\n",
                analysis.total_faults, analysis.unrecovered,
                analysis.availability);
  out << line;
  for (const auto& [component, c] : analysis.by_component) {
    std::snprintf(line, sizeof(line),
                  "  %-4s x%-3zu diagnose %.3fs recover %.3fs (mean TTR %.3fs)\n",
                  component.c_str(), c.faults, c.mean_diagnose_s, c.mean_recover_s,
                  c.mean_ttr_s);
    out << line;
  }
  return out.str();
}

std::string AdminConsole::metrics_report() const {
  return kernel_.cluster().metrics().snapshot_json();
}

CommandResult AdminConsole::run_command(const std::string& command,
                                        std::vector<net::NodeId> nodes,
                                        std::size_t fanout, sim::SimTime timeout) {
  CommandResult result;
  if (nodes.empty()) return result;

  auto msg = std::make_shared<kernel::ParallelCmdMsg>();
  msg->command = command;
  msg->nodes = std::move(nodes);
  msg->fanout = fanout;
  msg->reply_to = address();
  msg->request_id = next_request_id_++;
  pending_cmd_ = msg->request_id;
  cmd_done_ = false;

  const net::Address root{msg->nodes.front(),
                          kernel::port_of(kernel::ServiceKind::kProcessManager)};
  const sim::SimTime started = now();
  if (!send_any(root, std::move(msg)).valid()) {
    result.timed_out = true;
    return result;
  }
  const sim::SimTime deadline = now() + timeout;
  auto& engine = kernel_.cluster().engine();
  while (!cmd_done_ && now() < deadline) {
    if (!engine.step()) break;
  }
  if (!cmd_done_) {
    result.timed_out = true;
    return result;
  }
  result = last_result_;
  result.elapsed = now() - started;
  return result;
}

bool AdminConsole::drain_node(net::NodeId node) {
  if (node.value >= kernel_.cluster().node_count()) return false;
  if (!kernel_.cluster().node(node).alive()) return false;

  kernel_.config().set("admin/node/" + std::to_string(node.value) + "/drained", "1");
  // Kill every non-kernel process on the node through its PPM.
  for (const auto& proc : kernel_.cluster().node(node).processes()) {
    if (proc.owner == "kernel" || proc.state != cluster::ProcessState::kRunning) {
      continue;
    }
    auto kill = std::make_shared<kernel::KillMsg>();
    kill->pid = proc.pid;
    send_any({node, kernel::port_of(kernel::ServiceKind::kProcessManager)},
             std::move(kill));
  }
  publish_admin_event("admin.node_drained", node);
  return true;
}

bool AdminConsole::undrain_node(net::NodeId node) {
  if (!is_drained(node)) return false;
  kernel_.config().erase("admin/node/" + std::to_string(node.value) + "/drained");
  publish_admin_event("admin.node_undrained", node);
  return true;
}

bool AdminConsole::is_drained(net::NodeId node) const {
  return kernel_.config()
      .get("admin/node/" + std::to_string(node.value) + "/drained")
      .has_value();
}

bool AdminConsole::handover_partition(net::PartitionId partition,
                                      net::NodeId target) {
  if (partition.value >= kernel_.partition_count()) return false;
  if (target.value >= kernel_.cluster().node_count()) return false;
  if (!kernel_.cluster().node(target).alive()) return false;
  if (kernel_.cluster().partition_of(target) != partition) return false;
  if (kernel_.service_node(kernel::ServiceKind::kGroupService, partition) == target) {
    return false;  // already there
  }

  // Reuse the migration machinery, minus the failure detection: ask the
  // target's PPM to instantiate a fresh GSD there. The new GSD recovers its
  // view from the (still warm) checkpoint state, rejoins the ring with a
  // newer incarnation — displacing the old member entry — and re-creates
  // the partition's CS/ES/DB beside itself, each recovering its state
  // through the checkpoint federation.
  auto start = std::make_shared<kernel::StartServiceMsg>();
  start->kind = kernel::ServiceKind::kGroupService;
  start->partition = partition;
  start->create = true;
  start->request_id = next_request_id_++;
  send_any({target, kernel::port_of(kernel::ServiceKind::kProcessManager)},
           std::move(start));
  publish_admin_event("admin.handover", target);
  return true;
}

void AdminConsole::publish_admin_event(std::string type, net::NodeId node) {
  auto pub = std::make_shared<kernel::EsPublishMsg>();
  pub->event.type = std::move(type);
  pub->event.subject_node = node;
  const auto partition = cluster().partition_of(node_id());
  send_any(kernel_.service_address(kernel::ServiceKind::kEventService, partition),
           std::move(pub));
}

}  // namespace phoenix::admin
