// kernel_faults: the Dawning 4000A scale (32 partitions x (1 server + 1
// backup + 18 computes) = 640 nodes, 3 networks, the paper's FtParams)
// under open-loop KernelApi load, 0.5% packet loss and one seeded fault
// every 20 simulated seconds. Load falls on sim, net, kernel.group,
// detector, runtime and api; PWS is absent.
#include <algorithm>

#include "kernel/api.h"
#include "load.h"
#include "world.h"

namespace perfbench {
namespace {

using kernel::KernelApi;
using Status = net::Status;

constexpr std::size_t kPartitions = 32;
constexpr std::size_t kComputes = 18;
constexpr unsigned kClients = 4;
constexpr sim::SimTime kSettle = 65 * sim::kSecond;
constexpr sim::SimTime kDuration = 3600 * sim::kSecond;
constexpr sim::SimTime kDrain = 330 * sim::kSecond;
constexpr sim::SimTime kFaultInterval = 20 * sim::kSecond;
constexpr double kPacketLoss = 0.005;
// Patient clients: a call waits out a service failover (detection within
// one 30 s heartbeat plus migration) instead of failing at the default 10 s.
constexpr sim::SimTime kCallDeadline = 300 * sim::kSecond;
constexpr int kCallRetries = 60;
constexpr sim::SimTime kNodeRepair = 60 * sim::kSecond;
constexpr sim::SimTime kServerRepair = 120 * sim::kSecond;
constexpr sim::SimTime kConfigProbeWait = 100 * sim::kSecond;
const char* const kCkptService = "bench";

std::string config_key(std::uint16_t k) { return numbered("bench/k", k); }
std::string ckpt_key(std::uint16_t k) { return numbered("k", k); }

}  // namespace

Trial run_kernel_faults(const TrialOptions& o) {
  Trial t;
  KernelLoadParams load;
  load.clients = kClients;
  load.duration = kDuration;
  load.seed = o.seed;
  const std::vector<KernelOp> ops = generate_kernel_ops(load);
  const std::vector<std::uint32_t> client_parts =
      pick_partitions(kPartitions, kClients, o.seed);
  FaultPlanParams fp;
  fp.duration = kDuration;
  fp.interval = kFaultInterval;
  fp.partitions = kPartitions;
  fp.seed = o.seed;
  // Like the clients' own nodes, the services of their home partitions are
  // never faulted: otherwise the tail latency measures how many of those
  // outages a seed happens to draw. Service-host crashes also spare
  // partition 0, whose server runs the unsupervised configuration and
  // security services (see NOTES.md).
  for (std::uint32_t p = 0; p < kPartitions; ++p) {
    if (std::find(client_parts.begin(), client_parts.end(), p) != client_parts.end()) continue;
    fp.service_kill_partitions.push_back(p);
    if (p != 0) fp.server_crash_partitions.push_back(p);
  }
  const std::vector<PlannedFault> plan = plan_faults(fp);

  SpanRecorder spans(o.traced, o.run_id);
  const auto setup0 = Clock::now();
  cluster::ClusterSpec spec;
  spec.partitions = kPartitions;
  spec.computes_per_partition = kComputes;
  spec.backups_per_partition = 1;
  spec.networks = 3;
  spec.seed = o.seed;
  World w(spec, kernel::FtParams{}, spans, o.traced);
  w.run(kSettle);
  std::vector<std::unique_ptr<KernelApi>> apis;
  std::vector<net::NodeId> client_nodes;
  {
    auto s = spans.scope("api.construct");
    for (unsigned c = 0; c < kClients; ++c) {
      const net::NodeId node = w.cluster->compute_nodes(net::PartitionId{client_parts[c]})[0];
      client_nodes.push_back(node);
      apis.push_back(std::make_unique<KernelApi>(*w.cluster, node, *w.kernel));
    }
  }
  t.setup_s = seconds_since(setup0);

  auto is_client = [&](net::NodeId n) {
    return std::find(client_nodes.begin(), client_nodes.end(), n) != client_nodes.end();
  };

  // --- load ---------------------------------------------------------------------
  auto& engine = w.cluster->engine();
  const sim::SimTime base = engine.now();
  AckedWrites config_writes, ckpt_writes;
  OpLedger ledger(ops.size());
  // Per client: (served, attempted), for Jain's index.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> per_client(kClients);
  std::uint64_t failed_calls = 0, stale_config = 0, lost_ckpt = 0;
  Digest digest;
  const net::CallOptions opts{kCallDeadline, kCallRetries, true};

  auto complete = [&](std::size_t i, Status status, bool stale) {
    const KernelOp& op = ops[i];
    const sim::SimTime lat = engine.now() - (base + op.at);
    ++per_client[op.client].second;
    if (status == Status::kOk && !stale) {
      ++per_client[op.client].first;
      ledger.ok(i, static_cast<double>(lat) / 1000.0);
    } else {
      ledger.failed(i);
      if (status != Status::kOk) ++failed_calls;
    }
    digest.add(static_cast<std::uint64_t>(i));
    digest.add(static_cast<std::uint64_t>(status));
    digest.add(static_cast<std::uint64_t>(lat));
  };

  auto issue = [&](std::size_t i) {
    const KernelOp& op = ops[i];
    KernelApi& api = *apis[op.client];
    switch (op.kind) {
      case KernelOpKind::kConfigGet: {
        const std::string key = config_key(op.key);
        const std::uint64_t floor = config_writes.floor(key);
        auto s = spans.scope("api.config_get");
        api.config_get(key, [&, i, floor](net::Result<std::optional<std::string>> r) {
          const bool stale = r.status == Status::kOk && AckedWrites::stale(floor, r.value);
          stale_config += stale ? 1 : 0;
          complete(i, r.status, stale);
        }, opts);
        break;
      }
      case KernelOpKind::kConfigSet: {
        const std::string key = config_key(op.key);
        const std::uint64_t seq = config_writes.next_seq(key);
        auto s = spans.scope("api.config_set");
        api.config_set(key, std::to_string(seq), [&, i, key, seq](net::Result<std::uint64_t> r) {
          if (r.status == Status::kOk) config_writes.acked(key, seq);
          complete(i, r.status, false);
        }, opts);
        break;
      }
      case KernelOpKind::kCheckpointSave: {
        const std::string key = ckpt_key(op.key);
        const std::uint64_t seq = ckpt_writes.next_seq(key);
        auto s = spans.scope("api.checkpoint_save");
        api.checkpoint_save(kCkptService, key, std::to_string(seq),
                            [&, i, key, seq](net::Result<std::uint64_t> r) {
          if (r.status == Status::kOk) ckpt_writes.acked(key, seq);
          complete(i, r.status, false);
        }, opts);
        break;
      }
      case KernelOpKind::kCheckpointLoad: {
        const std::string key = ckpt_key(op.key);
        const std::uint64_t floor = ckpt_writes.floor(key);
        auto s = spans.scope("api.checkpoint_load");
        api.checkpoint_load(kCkptService, key,
                            [&, i, floor](net::Result<std::optional<std::string>> r) {
          const bool stale = r.status == Status::kOk && AckedWrites::stale(floor, r.value);
          lost_ckpt += stale ? 1 : 0;
          complete(i, r.status, stale);
        }, opts);
        break;
      }
      case KernelOpKind::kBulletinQuery: {
        auto s = spans.scope("api.query");
        api.query(kernel::BulletinTable::kNodes, false, kernel::BulletinFilter{},
                  [&, i](net::Result<kernel::BulletinSnapshot> r) {
          if (r.status == Status::kOk) {
            digest.add(static_cast<std::uint64_t>(r.value.nodes.size()));
          }
          complete(i, r.status, false);
        }, opts);
        break;
      }
    }
  };

  // One pending load event at a time: the generator never inflates the
  // engine queue with the whole schedule.
  std::function<void(std::size_t)> arm = [&](std::size_t i) {
    if (i >= ops.size()) return;
    engine.schedule_at(base + ops[i].at, [&, i] {
      issue(i);
      arm(i + 1);
    });
  };

  // --- faults ---------------------------------------------------------------------
  std::vector<Injection> injections;
  auto pick_node = [&](const std::vector<net::NodeId>& candidates,
                       std::uint32_t pick) -> net::NodeId {
    std::vector<net::NodeId> live;
    for (net::NodeId n : candidates) {
      if (!is_client(n) && w.cluster->node(n).alive() &&
          w.kernel->watch_daemon(n).alive()) {
        live.push_back(n);
      }
    }
    return live.empty() ? net::NodeId{} : live[pick % live.size()];
  };

  auto inject = [&](const PlannedFault& f) {
    const net::PartitionId p{f.partition};
    Injection inj;
    inj.partition = p;
    switch (f.kind) {
      case FaultKind::kWdKill: {
        const net::NodeId n = pick_node(w.cluster->partition_nodes(p), f.node_pick);
        if (!n.valid()) return;
        w.align_to_heartbeat(n);
        auto s = spans.scope("faults.kill_wd");
        inj.at = w.injector->kill_daemon(w.kernel->watch_daemon(n));
        inj.node = n;
        inj.what = "wd_kill";
        break;
      }
      case FaultKind::kServiceKill: {
        const net::NodeId host = w.kernel->service_node(
            f.event_service ? kernel::ServiceKind::kEventService
                            : kernel::ServiceKind::kCheckpointService, p);
        if (!host.valid() || !w.cluster->node(host).alive() ||
            !w.kernel->watch_daemon(host).alive()) {
          return;
        }
        w.align_to_heartbeat(host);
        auto s = spans.scope("faults.kill_service");
        cluster::Daemon& d = f.event_service
                                 ? static_cast<cluster::Daemon&>(w.kernel->event_service(p))
                                 : w.kernel->checkpoint_service(p);
        if (!d.alive()) return;
        inj.at = w.injector->kill_daemon(d);
        inj.component = f.event_service ? "ES" : "CS";
        inj.what = f.event_service ? "es_kill" : "cs_kill";
        break;
      }
      case FaultKind::kComputeCrash: {
        const net::NodeId n = pick_node(w.cluster->compute_nodes(p), f.node_pick);
        if (!n.valid()) return;
        w.align_to_heartbeat(n);
        auto s = spans.scope("faults.crash_node");
        inj.at = w.injector->crash_node(n);
        inj.node = n;
        inj.what = "compute_crash";
        engine.schedule_after(kNodeRepair, [&w, n] { w.repair_node(n); });
        break;
      }
      case FaultKind::kNicCut: {
        const net::NodeId n = pick_node(w.cluster->partition_nodes(p), f.node_pick);
        if (!n.valid()) return;
        w.align_to_heartbeat(n);
        auto s = spans.scope("faults.cut_interface");
        const net::NetworkId net_id{f.network};
        inj.at = w.injector->cut_interface(n, net_id);
        inj.node = n;
        inj.what = "nic_cut";
        engine.schedule_after(kNodeRepair, [&w, n, net_id] {
          auto s = w.spans.scope("faults.restore_interface");
          w.injector->restore_interface(n, net_id);
        });
        break;
      }
      case FaultKind::kServerCrash: {
        const net::NodeId n =
            w.kernel->service_node(kernel::ServiceKind::kGroupService, p);
        if (!n.valid() || is_client(n) || !w.cluster->node(n).alive() ||
            !w.kernel->watch_daemon(n).alive()) {
          return;
        }
        w.align_to_heartbeat(n);
        auto s = spans.scope("faults.crash_node");
        inj.at = w.injector->crash_node(n);
        inj.node = n;
        inj.what = "server_crash";
        engine.schedule_after(kServerRepair, [&w, n] { w.repair_node(n); });
        break;
      }
    }
    digest.add(inj.what);
    digest.add(static_cast<std::uint64_t>(inj.at));
    injections.push_back(std::move(inj));
  };

  // --- timed phase ------------------------------------------------------------------
  const std::uint64_t events0 = engine.executed();
  const auto wall0 = Clock::now();
  {
    auto s = spans.scope("faults.set_packet_loss");
    w.injector->set_packet_loss(kPacketLoss);
  }
  arm(0);
  for (const PlannedFault& f : plan) {
    if (base + f.at > engine.now()) w.run(base + f.at - engine.now());
    inject(f);
  }
  const sim::SimTime end = std::max(base + kDuration, engine.now()) + kDrain;
  w.run(end - engine.now());
  t.wall_s = seconds_since(wall0);

  // --- outcomes -----------------------------------------------------------------------
  Values& m = t.sim;
  const RecoveryStats rec = match_faults(w.kernel->fault_log(), injections,
                                         150 * sim::kSecond, m, digest);
  const Accounting& acct = ledger.accounting();
  m["call_p50_sim_ms"] = ledger.percentile(0.5, 1e-3);
  m["call_p999_sim_ms"] = ledger.percentile(0.999, 1e-3);
  m["call.samples"] = static_cast<double>(acct.attempted);
  m["recovery_p50_sim_s"] = percentile_with_failures(rec.samples, rec.failures, 0.5, 1e-6);
  m["recovery_p90_sim_s"] = percentile_with_failures(rec.samples, rec.failures, 0.9, 1e-6);
  m["jain_fairness"] = jain_index(per_client);
  m["ok_frac"] = 1.0 - acct.fail_frac();
  m["fail_frac"] = acct.fail_frac();
  m["ops.attempted"] = static_cast<double>(acct.attempted);
  m["ops.failed"] = static_cast<double>(acct.failed);
  m["fail.calls"] = static_cast<double>(failed_calls);
  m["config.stale_reads"] = static_cast<double>(stale_config);
  m["checkpoint.lost_reads"] = static_cast<double>(lost_ckpt);
  double retries = 0, reroutes = 0, timeouts = 0, exhausted = 0, unreachable = 0,
         dups = 0;
  std::size_t pending = 0;
  for (const auto& api : apis) {
    retries += static_cast<double>(api->retries_sent());
    reroutes += static_cast<double>(api->reroutes());
    timeouts += static_cast<double>(api->timed_out_calls());
    exhausted += static_cast<double>(api->exhausted_calls());
    unreachable += static_cast<double>(api->unreachable_calls());
    dups += static_cast<double>(api->duplicate_replies());
    pending += api->pending_calls();
  }
  m["api.calls"] = static_cast<double>(acct.attempted);
  m["api.retries"] = retries;
  m["api.reroutes"] = reroutes;
  m["api.timeouts"] = timeouts;
  m["api.exhausted"] = exhausted;
  m["api.unreachable"] = unreachable;
  m["api.duplicate_replies"] = dups;
  m["faults.injected"] = static_cast<double>(injections.size());
  collect_net(*w.cluster, m);
  collect_kernel(*w.kernel, m);
  collect_sim(w, events0, t.wall_s, m, t.host);
  t.host["rss.live_peak_mb"] = w.rss_max_mb;
  for (const auto& [name, value] : m) {
    digest.add(name);
    digest.add(value);
  }

  // --- correctness gate ---------------------------------------------------------------
  gate(t, pending == 0, "KernelApi::pending_calls() is not 0 after the drain");
  for (const std::string& p : ledger.problems()) gate(t, false, p);
  gate(t, injections.size() * 10 >= plan.size() * 9,
       "fewer than 90% of the planned faults could be injected");

  // --- post-run layer probes -----------------------------------------------------------
  std::vector<std::string> keys;
  for (std::uint16_t k = 0; k < load.keys; ++k) keys.push_back(ckpt_key(k));
  probe_kernel(*w.kernel, spans, kCkptService, keys, t.host);

  // Post-run defect probe: the timed phase never crashes partition 0's
  // server, because the configuration and security services it hosts are
  // supervised by no GSD. Crash it now and ask whether configuration is
  // served again several heartbeat intervals later.
  {
    auto s = spans.scope("faults.crash_node");
    w.injector->crash_node(
        w.kernel->service_node(kernel::ServiceKind::kConfiguration, net::PartitionId{0}));
  }
  w.run(kConfigProbeWait);
  Status probe = Status::kUnreachable;
  {
    auto s = spans.scope("api.config_get");
    apis[0]->config_get(config_key(0), [&](net::Result<std::optional<std::string>> r) {
      probe = r.status;
    });
  }
  w.run(kConfigProbeWait);
  m["config.served_after_host_crash"] = probe == Status::kOk ? 1.0 : 0.0;
  digest.add(static_cast<std::uint64_t>(probe));

  if (o.traced) finish_traced(w, o.artifact_dir, t.host);
  t.digest = digest.value();
  return t;
}

}  // namespace perfbench
