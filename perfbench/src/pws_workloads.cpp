// The two PWS workloads. They use the same scheduler and checkpoint layers
// in opposite ways:
//
//   pws_portal  paper-parity PWS (default PwsConfig: save the whole job
//               table on every change, keep terminal jobs) fed one job per
//               wire RPC and read by a refreshing pws::Portal; checkpoint
//               serialization and the scheduler dominate.
//   pws_flash   batched multi-tenant PWS (SubmissionGateway, 10 ms
//               coalesced checkpoints, retired terminal jobs, token-bucket
//               admission) under a 10x flash crowd; batch ingest and DRR
//               dominate and whole-table saves are absent.
#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "load.h"
#include "pws/gateway.h"
#include "pws/portal.h"
#include "pws/pws.h"
#include "workload/tenant_load.h"
#include "world.h"

namespace perfbench {
namespace {

namespace pws = ::phoenix::pws;
namespace workload = ::phoenix::workload;
using pws::Job;
using pws::JobId;
using pws::JobState;

constexpr sim::SimTime kSettle = 65 * sim::kSecond;

cluster::ClusterSpec pws_spec(std::uint64_t seed) {
  cluster::ClusterSpec spec;
  spec.partitions = 4;
  spec.computes_per_partition = 32;
  spec.backups_per_partition = 1;
  spec.seed = seed;
  return spec;
}

/// One pool over every compute node except the client's own.
pws::PwsConfig pool_config(cluster::Cluster& c, net::NodeId client,
                           pws::SchedPolicy policy) {
  pws::PwsConfig config;
  pws::PoolConfig pool;
  pool.name = "batch";
  pool.policy = policy;
  for (std::uint32_t p = 0; p < c.spec().partitions; ++p) {
    for (net::NodeId n : c.compute_nodes(net::PartitionId{p})) {
      if (n != client) pool.nodes.push_back(n);
    }
  }
  config.pools = {pool};
  return config;
}

/// Watches a PWS run between engine slices: records each job's first start
/// from the scheduler's job table and checks that no job reaches a terminal
/// state twice. Once per simulated second it also checks every pool node's
/// process table: no two jobs' processes may run on one node at once. (Exited
/// processes stay in the tables, so a finer check would dominate the run.)
struct JobWatch {
  std::unordered_map<JobId, sim::SimTime> first_start;
  std::unordered_map<JobId, std::pair<JobState, sim::SimTime>> terminal;
  std::uint64_t overlaps = 0;
  std::uint64_t double_terminal = 0;
  sim::SimTime next_node_check = 0;

  void observe(const std::map<JobId, Job>& jobs, const cluster::Cluster& c,
               const std::vector<net::NodeId>& pool) {
    for (const auto& [id, job] : jobs) {
      if (job.started_at > 0 && job.state != JobState::kQueued) {
        first_start.emplace(id, job.started_at);
      }
      check_terminal(id, job);
    }
    if (c.now() < next_node_check) return;
    next_node_check = c.now() + sim::kSecond;
    for (net::NodeId n : pool) {
      int user_procs = 0;
      for (const auto& [pid, proc] : c.node(n).process_table()) {
        if (proc.state == cluster::ProcessState::kRunning && proc.owner != "kernel") {
          ++user_procs;
        }
      }
      if (user_procs > 1) ++overlaps;
    }
  }

  void check_terminal(JobId id, const Job& job) {
    auto seen = terminal.find(id);
    if (job.terminal()) {
      if (seen == terminal.end()) {
        terminal.emplace(id, std::make_pair(job.state, job.finished_at));
      } else if (seen->second != std::make_pair(job.state, job.finished_at)) {
        ++double_terminal;
      }
    } else if (seen != terminal.end()) {
      ++double_terminal;  // a terminal job came back to life
    }
  }
};

void collect_pws(const pws::PwsStats& st, Values& m) {
  m["pws.submitted"] = static_cast<double>(st.submitted);
  m["pws.completed"] = static_cast<double>(st.completed);
  m["pws.requeued"] = static_cast<double>(st.requeued);
  m["pws.cancelled"] = static_cast<double>(st.cancelled);
  m["pws.admission_denied"] = static_cast<double>(st.admission_denied);
  m["pws.batches"] = static_cast<double>(st.batches);
  m["pws.checkpoint_bytes_per_job"] =
      st.submitted == 0 ? 0.0
                        : m["net.bytes.ckpt.save"] / static_cast<double>(st.submitted);
}

/// Times pws::serialize_jobs / deserialize_jobs on the final job table.
void probe_pws(const std::map<JobId, Job>& jobs, SpanRecorder& spans, Values& host) {
  if (jobs.empty()) return;
  const double n = static_cast<double>(jobs.size());
  std::string blob;
  host["pws.serialize_host_us_per_job"] = probe_us(5, [&] {
    auto s = spans.scope("probe.pws_serialize");
    blob = pws::serialize_jobs(jobs);
  }) / n;
  std::size_t restored = 0;
  host["pws.deserialize_host_us_per_job"] = probe_us(5, [&] {
    auto s = spans.scope("probe.pws_deserialize");
    restored = pws::deserialize_jobs(blob).size();
  }) / n;
  host["probe.touched"] += static_cast<double>(restored);
}

// --- pws_portal ------------------------------------------------------------------

// 700 jobs over 420 sim-s: the whole-table checkpoints make a trial's cost
// grow with the square of the job count, and this size keeps a trial near
// 3.5 s so a run takes the median of several.
constexpr std::size_t kPortalJobs = 700;
constexpr sim::SimTime kPortalHorizon = 420 * sim::kSecond;
constexpr sim::SimTime kPortalDrain = 300 * sim::kSecond;
constexpr sim::SimTime kRpcRetry = 1 * sim::kSecond;
constexpr sim::SimTime kRpcGiveUp = 180 * sim::kSecond;

/// Per-job wire client: one PwsSubmitMsg / PwsCancelMsg RPC per request,
/// retransmitted every kRpcRetry until answered or kRpcGiveUp passes. The
/// scheduler address is re-read on every attempt.
class WireClient final : public cluster::Daemon {
 public:
  /// answered=false when the request was given up on.
  using SubmitDone = std::function<void(bool answered, bool accepted, JobId)>;
  using CancelDone = std::function<void(bool answered)>;

  WireClient(cluster::Cluster& c, net::NodeId node, pws::PwsSystem& system)
      : Daemon(c, "bench.wire_client", node, cluster::ports::kClient),
        system_(system) {
    start();
  }

  void submit(const pws::SubmitRequest& request, SubmitDone done) {
    auto msg = std::make_shared<pws::PwsSubmitMsg>();
    msg->request = request;
    launch(std::move(msg), std::move(done), {});
  }

  void cancel(JobId id, CancelDone done) {
    auto msg = std::make_shared<pws::PwsCancelMsg>();
    msg->job_id = id;
    launch(std::move(msg), {}, std::move(done));
  }

  std::size_t pending() const noexcept { return calls_.size(); }

 private:
  struct Call {
    std::shared_ptr<net::Message> msg;
    SubmitDone submit_done;
    CancelDone cancel_done;
    sim::SimTime give_up_at = 0;
    sim::EventId timer{};
  };

  template <typename M>
  void launch(std::shared_ptr<M> msg, SubmitDone sd, CancelDone cd) {
    const std::uint64_t id = next_id_++;
    msg->reply_to = address();
    msg->request_id = id;
    calls_.emplace(id, Call{msg, std::move(sd), std::move(cd), now() + kRpcGiveUp, {}});
    attempt(id);
  }

  void attempt(std::uint64_t id) {
    auto it = calls_.find(id);
    if (it == calls_.end()) return;
    Call& call = it->second;
    if (now() >= call.give_up_at) {
      Call done = std::move(call);
      calls_.erase(it);
      if (done.submit_done) done.submit_done(false, false, 0);
      if (done.cancel_done) done.cancel_done(false);
      return;
    }
    send_any(system_.scheduler().address(), call.msg);
    call.timer = engine().schedule_after(kRpcRetry, [this, id] { attempt(id); });
  }

  void handle(const net::Envelope& env) override {
    if (const auto* r = net::message_cast<pws::PwsSubmitReplyMsg>(*env.message)) {
      finish(r->request_id, [&](Call& c) { c.submit_done(true, r->accepted, r->job_id); });
    } else if (const auto* r = net::message_cast<pws::PwsCancelReplyMsg>(*env.message)) {
      finish(r->request_id, [&](Call& c) { c.cancel_done(true); });
    }
  }

  template <typename F>
  void finish(std::uint64_t id, F&& complete) {
    auto it = calls_.find(id);
    if (it == calls_.end()) return;  // duplicate reply to a retransmission
    Call call = std::move(it->second);
    calls_.erase(it);
    engine().cancel(call.timer);
    complete(call);
  }

  pws::PwsSystem& system_;
  std::uint64_t next_id_ = 1;
  std::unordered_map<std::uint64_t, Call> calls_;
};

}  // namespace

Trial run_pws_portal(const TrialOptions& o) {
  Trial t;
  PortalLoadParams lp;
  lp.jobs = kPortalJobs;
  lp.horizon = kPortalHorizon;
  lp.seed = o.seed;
  const std::vector<PortalJob> jobs = generate_portal_jobs(lp);

  SpanRecorder spans(o.traced, o.run_id);
  const auto setup0 = Clock::now();
  World w(pws_spec(o.seed), kernel::FtParams{}, spans, o.traced);
  const net::NodeId client_node =
      w.cluster->compute_nodes(net::PartitionId{3}).back();
  std::unique_ptr<pws::PwsSystem> system;
  pws::PwsConfig config = pool_config(*w.cluster, client_node, pws::SchedPolicy::kBackfill);
  const std::vector<net::NodeId> pool = config.pools.front().nodes;
  {
    auto s = spans.scope("pws.start");
    system = std::make_unique<pws::PwsSystem>(*w.kernel, std::move(config));
  }
  w.run(kSettle);
  std::unique_ptr<WireClient> client;
  std::unique_ptr<pws::Portal> portal;
  {
    auto s = spans.scope("pws.portal_start");
    client = std::make_unique<WireClient>(*w.cluster, client_node, *system);
    portal = std::make_unique<pws::Portal>(*w.cluster, client_node, *w.kernel,
                                           system->scheduler().address());
    portal->start();
  }
  t.setup_s = seconds_since(setup0);

  auto& engine = w.cluster->engine();
  const sim::SimTime base = engine.now();
  struct Outcome {
    std::uint8_t submit_done = 0;
    bool accepted = false;
    JobId id = 0;
  };
  std::vector<Outcome> out(jobs.size());
  std::vector<double> call_ms;
  std::size_t call_failures = 0, cancels_sent = 0;
  Digest digest;

  auto issue = [&](std::size_t i) {
    const PortalJob& pj = jobs[i];
    pws::SubmitRequest r;
    r.name = numbered("j", i);
    r.user = numbered("user", pj.user);
    r.pool = "batch";
    r.nodes = pj.nodes;
    r.duration = pj.duration;
    r.priority = pj.priority;
    const sim::SimTime issued = engine.now();
    auto s = spans.scope("pws.wire_submit");
    client->submit(r, [&, i, issued](bool answered, bool accepted, JobId id) {
      Outcome& oc = out[i];
      ++oc.submit_done;
      oc.accepted = answered && accepted;
      oc.id = id;
      if (answered) {
        call_ms.push_back(static_cast<double>(engine.now() - issued) / 1000.0);
      } else {
        ++call_failures;
      }
      digest.add(static_cast<std::uint64_t>(i));
      digest.add(static_cast<std::uint64_t>(id));
      digest.add(static_cast<std::uint64_t>(engine.now()));
      if (!oc.accepted || jobs[i].cancel_after == 0) return;
      engine.schedule_after(jobs[i].cancel_after, [&, id] {
        ++cancels_sent;
        const sim::SimTime cancel_issued = engine.now();
        auto s = spans.scope("pws.wire_cancel");
        client->cancel(id, [&, cancel_issued](bool answered) {
          if (answered) {
            call_ms.push_back(static_cast<double>(engine.now() - cancel_issued) / 1000.0);
          } else {
            ++call_failures;
          }
        });
      });
    });
  };
  std::function<void(std::size_t)> arm = [&](std::size_t i) {
    if (i >= jobs.size()) return;
    engine.schedule_at(base + jobs[i].at, [&, i] {
      issue(i);
      arm(i + 1);
    });
  };

  // Faults midway: one compute-node crash (repaired a minute later) and one
  // kill of the scheduler process, which restarts from its checkpoint.
  std::vector<Injection> injections;
  JobWatch watch, portal_watch;
  std::uint64_t last_refresh = 0;
  auto step = [&](sim::SimTime until) {
    while (engine.now() < until) {
      w.run(std::min(sim::kSecond, until - engine.now()));
      watch.observe(system->scheduler().jobs(), *w.cluster, pool);
      if (portal->refreshes() != last_refresh) {
        // The portal's rows are the read side of the same table: its own
        // sequence of snapshots must not show a job finishing twice either.
        last_refresh = portal->refreshes();
        for (const Job& j : portal->jobs()) portal_watch.check_terminal(j.id, j);
      }
    }
  };

  const std::uint64_t events0 = engine.executed();
  const auto wall0 = Clock::now();
  arm(0);
  sim::Rng fault_rng(sim::derive_stream_seed(o.seed, 5));
  step(base + kPortalHorizon / 2);
  {
    std::vector<net::NodeId> busy;
    for (const auto& [id, job] : system->scheduler().jobs()) {
      if (job.state == JobState::kRunning) {
        busy.insert(busy.end(), job.allocated.begin(), job.allocated.end());
      }
    }
    std::sort(busy.begin(), busy.end(),
              [](net::NodeId a, net::NodeId b) { return a.value < b.value; });
    // A node running a job, so the crash exercises requeue.
    const net::NodeId victim =
        busy.empty() ? w.cluster->compute_nodes(net::PartitionId{1})[0]
                     : busy[fault_rng.uniform_int(0, busy.size() - 1)];
    w.align_to_heartbeat(victim);
    auto s = spans.scope("faults.crash_node");
    Injection inj;
    inj.at = w.injector->crash_node(victim);
    inj.node = victim;
    inj.what = "compute_crash";
    injections.push_back(inj);
    engine.schedule_after(60 * sim::kSecond, [&w, victim] { w.repair_node(victim); });
  }
  step(engine.now() + 30 * sim::kSecond);
  sim::SimTime kill_at = 0;
  std::vector<JobId> accepted_before_kill;
  {
    const net::NodeId host = system->scheduler().node_id();
    w.align_to_heartbeat(host);
    for (const Outcome& oc : out) {
      if (oc.accepted) accepted_before_kill.push_back(oc.id);
    }
    auto s = spans.scope("faults.kill_daemon");
    Injection inj;
    inj.at = kill_at = w.injector->kill_daemon(system->scheduler());
    inj.partition = w.cluster->partition_of(host);
    inj.component = pws::PwsSystem::kExtensionName;
    inj.what = "scheduler_kill";
    injections.push_back(inj);
  }
  step(std::max(base + kPortalHorizon, engine.now()) + kPortalDrain);
  t.wall_s = seconds_since(wall0);

  // --- outcomes -----------------------------------------------------------------
  const pws::PwsScheduler& sched = system->scheduler();
  const auto& table = sched.jobs();
  Accounting acct;
  std::vector<double> wait_s;
  std::size_t wait_failures = 0, lost = 0, missing_after_restore = 0;
  std::unordered_set<JobId> ids;
  bool unique_ids = true;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Outcome& oc = out[i];
    ++acct.attempted;
    if (!oc.accepted) {
      ++acct.failed;
      ++wait_failures;
      continue;
    }
    unique_ids = ids.insert(oc.id).second && unique_ids;
    auto it = table.find(oc.id);
    const JobState state = it == table.end() ? JobState::kQueued : it->second.state;
    digest.add(static_cast<std::uint64_t>(state));
    if (state == JobState::kCompleted) {
      ++acct.ok;
    } else if (state == JobState::kCancelled) {
      ++acct.cancelled;
    } else {
      ++acct.failed;
      if (it == table.end() || !it->second.terminal()) ++lost;
    }
    auto started = watch.first_start.find(oc.id);
    if (started != watch.first_start.end()) {
      wait_s.push_back(sim::to_seconds(started->second - (base + jobs[i].at)));
    } else if (state != JobState::kCancelled) {
      ++wait_failures;
    }
  }
  for (JobId id : accepted_before_kill) {
    if (table.find(id) == table.end()) ++missing_after_restore;
  }

  Values& m = t.sim;
  const RecoveryStats rec = match_faults(w.kernel->fault_log(), injections,
                                         150 * sim::kSecond, m, digest);
  m["ops.attempted"] = static_cast<double>(acct.attempted);
  m["ops.failed"] = static_cast<double>(acct.failed);
  m["ok_frac"] = 1.0 - acct.fail_frac();
  m["fail_frac"] = acct.fail_frac();
  m["call_p50_sim_ms"] = percentile_with_failures(call_ms, call_failures, 0.5, 1e-3);
  m["call_p999_sim_ms"] = percentile_with_failures(call_ms, call_failures, 0.999, 1e-3);
  m["call.samples"] = static_cast<double>(call_ms.size() + call_failures);
  m["recovery_p50_sim_s"] = percentile_with_failures(rec.samples, rec.failures, 0.5, 1e-6);
  m["recovery_p90_sim_s"] = percentile_with_failures(rec.samples, rec.failures, 0.9, 1e-6);
  m["job_wait_p50_sim_s"] = percentile_with_failures(wait_s, wait_failures, 0.5, 1e-6);
  m["job_wait_p99_sim_s"] = percentile_with_failures(wait_s, wait_failures, 0.99, 1e-6);
  m["job_wait.samples"] = static_cast<double>(wait_s.size() + wait_failures);
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> per_user;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    auto& [served, attempted] = per_user[numbered("user", jobs[i].user)];
    ++attempted;
    served += out[i].accepted ? 1 : 0;
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> shares;
  for (const auto& [user, share] : per_user) shares.push_back(share);
  m["jain_fairness"] = jain_index(shares);
  m["pws.lost_jobs"] = static_cast<double>(lost);
  m["pws.scheduler_alive"] = sched.alive() ? 1.0 : 0.0;
  m["portal.refreshes"] = static_cast<double>(portal->refreshes());
  m["portal.job_rows"] = static_cast<double>(portal->jobs().size());
  m["pws.cancel_requests"] = static_cast<double>(cancels_sent);
  collect_net(*w.cluster, m);
  collect_kernel(*w.kernel, m);
  collect_pws(sched.stats(), m);
  collect_sim(w, events0, t.wall_s, m, t.host);
  t.host["rss.live_peak_mb"] = w.rss_max_mb;
  for (const auto& [name, value] : m) {
    digest.add(name);
    digest.add(value);
  }

  // --- correctness gate -----------------------------------------------------------
  gate(t, std::all_of(out.begin(), out.end(),
                      [](const Outcome& oc) { return oc.submit_done == 1; }),
       "a submission did not complete exactly once");
  gate(t, client->pending() == 0, "wire RPCs still pending after the drain");
  gate(t, unique_ids, "two submissions were given the same job id");
  gate(t, acct.closes(), "accounting does not close");
  gate(t, watch.overlaps == 0, "two running jobs held one node at the same time");
  gate(t, watch.double_terminal == 0 && portal_watch.double_terminal == 0,
       "a job reached a terminal state twice");
  gate(t, missing_after_restore == 0,
       "a job accepted before the scheduler kill is missing after restore");
  gate(t, kill_at > 0 && injections.size() == 2, "the planned faults were not injected");

  // --- post-run layer probes --------------------------------------------------------
  probe_pws(table, spans, t.host);
  probe_kernel(*w.kernel, spans, "pws", {"jobs"}, t.host);
  if (o.traced) finish_traced(w, o.artifact_dir, t.host);
  t.digest = digest.value();
  return t;
}

// --- pws_flash -------------------------------------------------------------------

namespace {

constexpr sim::SimTime kFlashHorizon = 60 * sim::kSecond;
constexpr sim::SimTime kFlashDrain = 100 * sim::kSecond;
// Job-table polling period; shorter than the shortest job, so every job
// that starts is seen running before it is retired.
constexpr sim::SimTime kFlashPoll = 5 * sim::kMillisecond;
// The scheduler's server node crashes this long before the last arrival:
// late enough that the failed tickets and stranded jobs stay under 0.1% of
// all submissions (so call_p999 stays finite), early enough that they exist.
constexpr sim::SimTime kFlashCrashLead = 50 * sim::kMillisecond;

workload::TenantLoadParams flash_load(std::uint64_t seed) {
  workload::TenantLoadParams p;
  p.tenant_count = 10'000;
  p.base_rate = 400.0;
  p.horizon = kFlashHorizon;
  p.flashes = {{20 * sim::kSecond, 30 * sim::kSecond, 10.0}};
  p.spammer_fraction = 0.001;
  p.spammer_boost = 100.0;
  p.cancel_fraction = 0.03;
  p.cancel_delay = 1 * sim::kMillisecond;
  p.mean_duration_s = 0.02;
  p.min_duration_s = 0.01;
  p.seed = sim::derive_stream_seed(seed, 6);
  return p;
}

}  // namespace

Trial run_pws_flash(const TrialOptions& o) {
  Trial t;
  const workload::TenantLoadParams lp = flash_load(o.seed);
  const std::vector<workload::TenantEvent> events = workload::generate_tenant_load(lp);

  SpanRecorder spans(o.traced, o.run_id);
  const auto setup0 = Clock::now();
  World w(pws_spec(o.seed), kernel::FtParams{}, spans, o.traced);
  const net::NodeId gw_node = w.cluster->compute_nodes(net::PartitionId{3}).back();
  std::unique_ptr<pws::PwsSystem> system;
  pws::PwsConfig config = pool_config(*w.cluster, gw_node, pws::SchedPolicy::kFifo);
  config.retain_terminal_jobs = false;
  config.checkpoint_interval = 10 * sim::kMillisecond;
  config.admission_rate = 2.0;
  config.admission_burst = 16.0;
  const std::vector<net::NodeId> pool = config.pools.front().nodes;
  {
    auto s = spans.scope("pws.start");
    system = std::make_unique<pws::PwsSystem>(*w.kernel, std::move(config));
  }
  // The crash must land just after the scheduler node's heartbeat (the
  // paper's injection point) AND kFlashCrashLead before the last arrival.
  // Heartbeats are periodic, so learn their phase while settling and start
  // the load at the moment that makes both hold.
  const net::NodeId sched_node = system->scheduler().node_id();
  w.run(kSettle);
  w.align_to_heartbeat(sched_node);
  const sim::SimTime period = w.kernel->params().heartbeat_interval;
  const sim::SimTime crash_offset =
      (events.empty() ? 0 : events.back().arrival) - kFlashCrashLead;
  sim::SimTime crash_at = w.cluster->now();
  while (crash_at < w.cluster->now() + crash_offset) crash_at += period;
  w.run(crash_at - crash_offset - w.cluster->now());
  std::unique_ptr<pws::SubmissionGateway> gateway;
  {
    auto s = spans.scope("pws.gateway_start");
    pws::GatewayConfig gc;
    gc.scheduler = system->scheduler().address();
    gateway = std::make_unique<pws::SubmissionGateway>(*w.cluster, gw_node, gc);
  }
  t.setup_s = seconds_since(setup0);

  auto& engine = w.cluster->engine();
  const sim::SimTime base = engine.now();
  using Ticket = pws::SubmissionGateway::Ticket;
  struct Outcome {
    std::uint8_t callbacks = 0;
    pws::SubmitStatus status = pws::SubmitStatus::kUnavailable;
    JobId id = 0;
    bool cancel_wanted = false;
  };
  std::vector<Outcome> out(events.size());
  std::unordered_map<Ticket, std::size_t> index_of;
  std::vector<double> call_ms;
  std::size_t call_failures = 0, remote_cancels = 0;
  Digest digest;

  auto issue = [&](std::size_t i) {
    const workload::TenantEvent& ev = events[i];
    pws::SubmitRequest r;
    r.name = numbered("j", i);
    r.user = workload::tenant_name(ev.tenant);
    r.pool = "batch";
    r.nodes = ev.nodes;
    r.duration = ev.duration;
    const sim::SimTime issued = engine.now();
    Ticket ticket = 0;
    {
      auto s = spans.scope("gateway.submit");
      ticket = gateway->submit(r, [&, i, issued](Ticket, const pws::BatchSubmitResult& res) {
        Outcome& oc = out[i];
        ++oc.callbacks;
        oc.status = res.status;
        oc.id = res.job_id;
        digest.add(static_cast<std::uint64_t>(i));
        digest.add(static_cast<std::uint64_t>(res.status));
        digest.add(static_cast<std::uint64_t>(res.job_id));
        digest.add(static_cast<std::uint64_t>(engine.now()));
        if (res.status == pws::SubmitStatus::kUnavailable) {
          ++call_failures;
        } else if (res.status != pws::SubmitStatus::kCancelled) {
          call_ms.push_back(static_cast<double>(engine.now() - issued) / 1000.0);
        }
        if (res.status == pws::SubmitStatus::kAccepted && oc.cancel_wanted) {
          ++remote_cancels;
          gateway->cancel_job(res.job_id);
        }
      });
    }
    index_of.emplace(ticket, i);
    if (ev.cancel_after == 0) return;
    engine.schedule_after(ev.cancel_after, [&, i, ticket] {
      auto s = spans.scope("gateway.cancel");
      if (gateway->cancel(ticket)) return;  // absorbed while still queued locally
      Outcome& oc = out[i];
      if (oc.callbacks > 0) {
        if (oc.status == pws::SubmitStatus::kAccepted) {
          ++remote_cancels;
          gateway->cancel_job(oc.id);
        }
      } else {
        oc.cancel_wanted = true;  // verdict still in flight
      }
    });
  };
  std::function<void(std::size_t)> arm = [&](std::size_t i) {
    if (i >= events.size()) return;
    engine.schedule_at(base + events[i].arrival, [&, i] {
      issue(i);
      arm(i + 1);
    });
  };

  JobWatch watch;
  auto step = [&](sim::SimTime until) {
    while (engine.now() < until) {
      w.run(std::min(kFlashPoll, until - engine.now()), kFlashPoll);
      watch.observe(system->scheduler().jobs(), *w.cluster, pool);
    }
  };

  const std::uint64_t events0 = engine.executed();
  const auto wall0 = Clock::now();
  arm(0);
  step(crash_at);
  std::vector<Injection> injections;
  {
    auto s = spans.scope("faults.crash_node");
    Injection inj;
    inj.at = w.injector->crash_node(sched_node);
    inj.node = sched_node;
    inj.what = "scheduler_server_crash";
    injections.push_back(inj);
    engine.schedule_after(120 * sim::kSecond,
                          [&w, sched_node] { w.repair_node(sched_node); });
  }
  step(std::max(base + kFlashHorizon, engine.now()) + kFlashDrain);
  t.wall_s = seconds_since(wall0);

  // --- outcomes -----------------------------------------------------------------
  const pws::PwsScheduler& sched = system->scheduler();
  const pws::PwsStats& st = sched.stats();
  std::size_t live = 0;
  for (const auto& [id, job] : sched.jobs()) live += job.terminal() ? 0 : 1;
  Accounting acct;
  acct.attempted = events.size();
  std::uint64_t unavailable = 0, accepted = 0, absorbed = 0, denied = 0;
  std::vector<double> wait_s;
  std::size_t wait_failures = 0;
  std::unordered_set<JobId> ids;
  bool unique_ids = true;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> shares(lp.tenant_count);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Outcome& oc = out[i];
    ++shares[events[i].tenant].second;
    switch (oc.status) {
      case pws::SubmitStatus::kAccepted: {
        ++accepted;
        ++shares[events[i].tenant].first;
        unique_ids = ids.insert(oc.id).second && unique_ids;
        auto started = watch.first_start.find(oc.id);
        if (started != watch.first_start.end()) {
          wait_s.push_back(sim::to_seconds(started->second - (base + events[i].arrival)));
        } else if (events[i].cancel_after == 0) {
          ++wait_failures;  // never started and not cancelled: lost
        }
        break;
      }
      case pws::SubmitStatus::kCancelled: ++absorbed; break;
      case pws::SubmitStatus::kAdmissionDenied: ++denied; break;
      default: ++unavailable; ++wait_failures; break;
    }
  }
  acct.ok = st.completed;
  acct.cancelled = absorbed + st.cancelled;
  acct.denied = denied;
  acct.failed = unavailable + live + st.failed + st.timed_out + st.rejected;

  Values& m = t.sim;
  const RecoveryStats rec = match_faults(w.kernel->fault_log(), injections,
                                         150 * sim::kSecond, m, digest);
  m["ops.attempted"] = static_cast<double>(acct.attempted);
  m["ops.failed"] = static_cast<double>(acct.failed);
  m["ok_frac"] = 1.0 - acct.fail_frac();
  m["fail_frac"] = acct.fail_frac();
  m["call_p50_sim_ms"] = percentile_with_failures(call_ms, call_failures, 0.5, 1e-3);
  m["call_p999_sim_ms"] = percentile_with_failures(call_ms, call_failures, 0.999, 1e-3);
  m["call.samples"] = static_cast<double>(call_ms.size() + call_failures);
  m["recovery_p50_sim_s"] = percentile_with_failures(rec.samples, rec.failures, 0.5, 1e-6);
  m["recovery_p90_sim_s"] = percentile_with_failures(rec.samples, rec.failures, 0.9, 1e-6);
  m["job_wait_p50_sim_s"] = percentile_with_failures(wait_s, wait_failures, 0.5, 1e-6);
  m["job_wait_p99_sim_s"] = percentile_with_failures(wait_s, wait_failures, 0.99, 1e-6);
  m["job_wait.samples"] = static_cast<double>(wait_s.size() + wait_failures);
  m["jain_fairness"] = jain_index(shares);
  m["pws.lost_jobs"] = static_cast<double>(live);
  m["pws.scheduler_alive"] = sched.alive() ? 1.0 : 0.0;
  const pws::GatewayStats& gs = gateway->stats();
  m["gateway.batches_sent"] = static_cast<double>(gs.batches_sent);
  m["gateway.retries"] = static_cast<double>(gs.retries);
  m["gateway.absorbed_cancels"] = static_cast<double>(gs.absorbed_cancels);
  m["gateway.failed"] = static_cast<double>(gs.failed);
  m["gateway.jobs_per_batch"] =
      gs.batches_sent == 0
          ? 0.0
          : static_cast<double>(gs.submitted - gs.absorbed_cancels) /
                static_cast<double>(gs.batches_sent);
  m["gateway.remote_cancels"] = static_cast<double>(remote_cancels);
  collect_net(*w.cluster, m);
  collect_kernel(*w.kernel, m);
  collect_pws(st, m);
  collect_sim(w, events0, t.wall_s, m, t.host);
  t.host["rss.live_peak_mb"] = w.rss_max_mb;
  for (const auto& [name, value] : m) {
    digest.add(name);
    digest.add(value);
  }

  // --- correctness gate -----------------------------------------------------------
  gate(t, std::all_of(out.begin(), out.end(),
                      [](const Outcome& oc) { return oc.callbacks == 1; }),
       "a gateway ticket's callback did not fire exactly once");
  gate(t, index_of.size() == events.size(), "the gateway reused a ticket");
  gate(t, gateway->backlog() == 0 && gateway->inflight() == 0,
       "gateway work still queued after the drain");
  gate(t, unique_ids, "two submissions were given the same job id");
  gate(t, acct.closes(), "accounting does not close");
  gate(t, accepted == st.completed + st.cancelled + st.failed + st.timed_out +
                          st.rejected + live,
       "accepted jobs do not equal completed + cancelled + failed + live");
  gate(t, watch.overlaps == 0, "two running jobs held one node at the same time");
  gate(t, watch.double_terminal == 0, "a job reached a terminal state twice");

  // --- post-run layer probes --------------------------------------------------------
  probe_pws(sched.jobs(), spans, t.host);
  probe_kernel(*w.kernel, spans, "pws", {"jobs"}, t.host);
  if (o.traced) finish_traced(w, o.artifact_dir, t.host);
  t.digest = digest.value();
  return t;
}

}  // namespace perfbench
