#include "pws/scheduler.h"

#include <algorithm>
#include <utility>

#include "kernel/ppm/process_manager.h"

namespace phoenix::pws {

using kernel::ServiceKind;

namespace {
constexpr std::size_t kNoPool = static_cast<std::size_t>(-1);
}  // namespace

PwsScheduler::PwsScheduler(cluster::Cluster& cluster, net::NodeId node,
                           kernel::PhoenixKernel& kernel, PwsConfig config)
    : ServiceRuntime(cluster, "pws.scheduler", node,
                     cluster::ports::kPwsScheduler, &kernel, &kernel.params(),
                     Options{.partition = cluster.partition_of(node),
                             .checkpoint_namespace = "pws",
                             .checkpoint_key = "jobs",
                             .extension = "pws.scheduler",
                             .replay_capacity = 1024}),
      kernel_(kernel),
      config_(std::move(config)),
      ticker_(cluster.engine(), config_.schedule_tick, [this] { schedule_pass(); }) {
  for (const auto& pool_config : config_.pools) pools_.emplace_back(pool_config);
  // Name order, matching the historical std::map<string, Pool> iteration.
  std::sort(pools_.begin(), pools_.end(),
            [](const Pool& a, const Pool& b) { return a.name() < b.name(); });
  for (std::size_t i = 0; i < pools_.size(); ++i) {
    pool_index_[net::intern_symbol(pools_[i].name()).value] = i;
    for (net::NodeId n : pools_[i].owned_nodes()) {
      const bool node_alive = cluster.node(n).alive();
      slots_[n.value] = NodeSlot{static_cast<std::int32_t>(i), -1, 0, node_alive};
      if (node_alive) pools_[i].free_nodes().insert(n.value);
    }
  }
  pool_dirty_.assign(pools_.size(), 1);  // first pass looks at everything

  metrics_ = &cluster.metrics();
  schedule_latency_us_ = metrics_->histogram("pws.schedule_latency_us");
  batch_size_hist_ = metrics_->histogram("pws.batch_size");
  submitted_ctr_ = metrics_->counter("pws.submitted");
  admission_denied_ctr_ = metrics_->counter("pws.admission_denied");
  batches_ctr_ = metrics_->counter("pws.batches");
  cancelled_ctr_ = metrics_->counter("pws.cancelled");
  probe_id_ = metrics_->register_probe([this](obs::Registry& r) {
    if (!alive()) return;  // a migrated-away instance must not clobber gauges
    r.gauge("pws.queue_depth")->set(static_cast<double>(queued_jobs_));
    r.gauge("pws.running")->set(static_cast<double>(running_jobs_));
    r.gauge("pws.jobs_tracked")->set(static_cast<double>(jobs_.size()));
  });

  on<PwsSubmitMsg>([this](const PwsSubmitMsg& submit) { on_submit(submit); });
  on<PwsSubmitBatchMsg>([this](const PwsSubmitBatchMsg& batch) {
    serve_mutating(batch, [&] {
      auto reply = std::make_shared<PwsSubmitBatchReplyMsg>();
      reply->request_id = batch.request_id;
      reply->results.reserve(batch.requests.size());
      for (const auto& request : batch.requests) {
        reply->results.push_back(submit_internal(request, false));
      }
      ++stats_.batches;
      if (metrics_->enabled()) {
        batches_ctr_->inc();
        batch_size_hist_->record(batch.requests.size());
      }
      checkpoint_state();  // one (coalescible) checkpoint for the whole batch
      request_pass_soon();
      return reply;
    });
  });
  on<PwsCancelBatchMsg>([this](const PwsCancelBatchMsg& batch) {
    serve_mutating(batch, [&] {
      auto reply = std::make_shared<PwsCancelBatchReplyMsg>();
      reply->request_id = batch.request_id;
      reply->cancelled.reserve(batch.job_ids.size());
      for (const JobId id : batch.job_ids) {
        reply->cancelled.push_back(cancel(id) ? 1 : 0);
      }
      return reply;
    });
  });
  on<PwsCancelMsg>([this](const PwsCancelMsg& msg) {
    serve_mutating(msg, [&] {
      auto reply = std::make_shared<PwsCancelReplyMsg>();
      reply->request_id = msg.request_id;
      reply->cancelled = cancel(msg.job_id);
      return reply;
    });
  });
  on<PwsQueryMsg>([this](const PwsQueryMsg& query) {
    serve_idempotent(query, [&] {
      auto reply = std::make_shared<PwsQueryReplyMsg>();
      reply->request_id = query.request_id;
      for (const auto& [id, job] : jobs_) {
        if (query.job_id != 0 && id != query.job_id) continue;
        if (!query.user.empty() && job.user != query.user) continue;
        reply->jobs.push_back(job);
      }
      return reply;
    });
  });
  on<kernel::AuthzReplyMsg>(
      [this](const kernel::AuthzReplyMsg& authz) { on_authz_reply(authz); });
  on<kernel::SpawnReplyMsg>([this](const kernel::SpawnReplyMsg& spawn) {
    auto it = pending_spawns_.find(spawn.request_id);
    if (it == pending_spawns_.end()) return;
    const PendingSpawn pending = it->second;
    pending_spawns_.erase(it);
    auto job_it = jobs_.find(pending.job);
    if (job_it == jobs_.end() || !spawn.ok) return;
    // The job may have ended while spawning; its cached line goes stale.
    checkpoint_image_.invalidate(pending.job);
    job_it->second.pids[pending.node.value] = spawn.pid;
    pid_to_job_[spawn.pid] = pending.job;
    checkpoint_state();
  });
  on<kernel::ExitNotifyMsg>([this](const kernel::ExitNotifyMsg& exit) {
    complete_process(exit.pid, exit.node);
  });
  on<kernel::EsNotifyMsg>(
      [this](const kernel::EsNotifyMsg& notify) { on_node_event(notify.event); });
  // PWS keeps its own one-shot recovery load (recover_on_start is off), so
  // it owns the load reply type.
  on<kernel::CheckpointLoadReplyMsg>(
      [this](const kernel::CheckpointLoadReplyMsg& load) {
        on_recovery_load(load);
      });
  on<kernel::DbQueryReplyMsg>(
      [this](const kernel::DbQueryReplyMsg& reply) { on_reconcile_reply(reply); });
}

PwsScheduler::~PwsScheduler() {
  if (metrics_ != nullptr && probe_id_ != 0) metrics_->unregister_probe(probe_id_);
}

void PwsScheduler::on_service_start() {
  ticker_.set_period(config_.schedule_tick);
  ticker_.start_after(config_.schedule_tick);
  subscribe_events();
  if (started_before_) {
    recover_state();
  } else {
    announce_up();
  }
  started_before_ = true;
}

void PwsScheduler::on_service_stop() { ticker_.stop(); }

void PwsScheduler::subscribe_events() {
  kernel::Subscription sub;
  sub.consumer = address();
  sub.types = {std::string(kernel::event_types::kNodeFailed),
               std::string(kernel::event_types::kNodeRecovered)};
  auto msg = std::make_shared<kernel::EsSubscribeMsg>();
  msg->subscription = std::move(sub);
  send_any(kernel_.service_address(ServiceKind::kEventService,
                                   options().partition),
           std::move(msg));
}

// --- submission ---------------------------------------------------------------

JobId PwsScheduler::submit(const SubmitRequest& request) {
  return submit_internal(request, true).job_id;
}

BatchSubmitResult PwsScheduler::submit_with_status(const SubmitRequest& request) {
  return submit_internal(request, true);
}

bool PwsScheduler::admit_tenant(net::SymbolId user) {
  if (config_.admission_rate <= 0.0) return true;
  auto [it, inserted] = buckets_.try_emplace(user.value);
  TokenBucket& bucket = it->second;
  if (inserted) {
    bucket.tokens = config_.admission_burst;  // a new tenant starts full
  } else {
    bucket.tokens = std::min(
        config_.admission_burst,
        bucket.tokens + config_.admission_rate *
                            sim::to_seconds(now() - bucket.last_refill));
  }
  bucket.last_refill = now();
  if (bucket.tokens < 1.0) return false;
  bucket.tokens -= 1.0;
  return true;
}

BatchSubmitResult PwsScheduler::submit_internal(const SubmitRequest& request,
                                                bool checkpoint_each) {
  const auto user_sym = net::intern_symbol(request.user);
  if (!admit_tenant(user_sym)) {
    ++stats_.admission_denied;
    if (metrics_->enabled()) admission_denied_ctr_->inc();
    return {0, SubmitStatus::kAdmissionDenied};
  }

  Job job = new_job(request, user_sym, JobState::kQueued);
  const std::size_t pool_index = pool_index_of(job.pool_sym);
  const JobId id = job.id;
  if (pool_index == kNoPool) {
    job.state = JobState::kRejected;
    ++stats_.rejected;
    jobs_.emplace(id, std::move(job));
    retire_if_unretained(id);
    return {id, SubmitStatus::kUnknownPool};
  }
  enqueue_accepted(job, pool_index);
  jobs_.emplace(id, std::move(job));
  if (checkpoint_each) checkpoint_state();
  return {id, SubmitStatus::kAccepted};
}

Job PwsScheduler::new_job(const SubmitRequest& request, net::SymbolId user_sym,
                          JobState state) {
  Job job;
  job.id = next_job_id_++;
  job.name = request.name.empty() ? "job" + std::to_string(job.id) : request.name;
  job.user = request.user;
  job.pool = request.pool;
  job.nodes_needed = std::max(1u, request.nodes);
  job.duration = request.duration;
  job.priority = request.priority;
  job.walltime_limit = request.walltime_limit;
  job.arch = request.arch;
  job.after_ok = request.after_ok;
  job.state = state;
  job.submitted_at = now();
  job.user_sym = user_sym;
  job.pool_sym = net::intern_symbol(request.pool);
  return job;
}

void PwsScheduler::enqueue_accepted(Job& job, std::size_t pool_index) {
  if (job.after_ok != 0) {
    auto dep = jobs_.find(job.after_ok);
    if (dep != jobs_.end() && !dep->second.terminal()) {
      dependents_[job.after_ok].push_back(job.id);
    }
  }
  job.state = JobState::kQueued;
  pools_[pool_index].enqueue(job, usage_of_sym(job.user_sym));
  ++queued_jobs_;
  ++stats_.submitted;
  if (metrics_->enabled()) submitted_ctr_->inc();
  mark_pool_dirty(pool_index);
}

void PwsScheduler::on_submit(const PwsSubmitMsg& submit) {
  serve_mutating(submit, [&]() -> std::shared_ptr<const net::Message> {
    if (config_.use_security) {
      // The job waits in kAuthorizing for the security service's verdict;
      // on_authz_reply completes this request's replay-cache entry.
      Job job = new_job(submit.request, net::intern_symbol(submit.request.user),
                        JobState::kAuthorizing);
      const JobId id = job.id;
      jobs_.emplace(id, std::move(job));
      auto authz = std::make_shared<kernel::AuthzRequestMsg>();
      authz->token = submit.token;
      authz->action = "job.submit";
      authz->resource = "pool/" + submit.request.pool;
      authz->reply_to = address();
      authz->request_id = next_request_id_++;
      pending_authz_[authz->request_id] =
          PendingAuthz{id, submit.reply_to, submit.request_id};
      send_any(kernel_.service_address(ServiceKind::kSecurity,
                                       net::PartitionId{0}),
               std::move(authz));
      return nullptr;
    }
    const BatchSubmitResult result = submit_internal(submit.request, true);
    auto reply = std::make_shared<PwsSubmitReplyMsg>();
    reply->request_id = submit.request_id;
    reply->accepted = result.status == SubmitStatus::kAccepted;
    reply->job_id = result.job_id;
    if (result.status != SubmitStatus::kAccepted) {
      reply->reason = std::string(to_string(result.status));
    }
    return reply;
  });
}

void PwsScheduler::on_authz_reply(const kernel::AuthzReplyMsg& authz) {
  auto it = pending_authz_.find(authz.request_id);
  if (it == pending_authz_.end()) return;
  const PendingAuthz pending = it->second;
  pending_authz_.erase(it);
  auto reply = std::make_shared<PwsSubmitReplyMsg>();
  reply->request_id = pending.caller_request_id;
  reply->job_id = pending.job;
  auto job_it = jobs_.find(pending.job);
  if (job_it == jobs_.end() || job_it->second.state != JobState::kAuthorizing) {
    // The job left kAuthorizing before the verdict landed (cancelled and
    // perhaps retired, or requeued by a restore): the verdict no longer
    // applies, and must not give the job a second terminal state.
    reply->reason = "no longer authorizing";
  } else {
    Job& job = job_it->second;
    const std::size_t pool_index = pool_index_of(job.pool_sym);
    if (!authz.allowed || pool_index == kNoPool) {
      reply->reason = authz.allowed ? "unknown pool '" + job.pool + "'"
                                    : authz.reason;
      job.state = JobState::kRejected;
      job.finished_at = now();
      ++stats_.rejected;
      retire_if_unretained(pending.job);
    } else {
      enqueue_accepted(job, pool_index);
      reply->accepted = true;
    }
    checkpoint_state();
  }
  replay_cache().complete(pending.reply_to, PwsSubmitMsg::static_type_id(),
                          pending.caller_request_id, reply);
  if (pending.reply_to.valid()) send_any(pending.reply_to, std::move(reply));
}

bool PwsScheduler::cancel(JobId id) {
  auto it = jobs_.find(id);
  if (it == jobs_.end() || it->second.terminal()) return false;
  Job& job = it->second;
  if (job.state == JobState::kQueued || job.state == JobState::kAuthorizing) {
    if (job.state == JobState::kQueued) {
      const std::size_t pool_index = pool_index_of(job.pool_sym);
      if (pool_index != kNoPool) {
        Pool& pool = pools_[pool_index];
        const bool had_pending = pool.has_pending();
        pool.remove(id);
        if (had_pending && !pool.has_pending()) pool_drained(pool_index);
      }
      --queued_jobs_;
    }
    job.state = JobState::kCancelled;
    job.finished_at = now();
    ++stats_.cancelled;
    if (metrics_->enabled()) cancelled_ctr_->inc();
    wake_dependents(id);
    retire_if_unretained(id);
    checkpoint_state();
    return true;
  }
  // Running: kill every process, free the slots.
  for (const auto& [node_value, pid] : job.pids) {
    auto kill = std::make_shared<kernel::KillMsg>();
    kill->pid = pid;
    send_any({net::NodeId{node_value}, kernel::port_of(ServiceKind::kProcessManager)},
             std::move(kill));
    pid_to_job_.erase(pid);
  }
  for (net::NodeId n : job.allocated) {
    auto slot = slots_.find(n.value);
    if (slot != slots_.end() && slot->second.running_job == id) {
      free_slot(n.value, slot->second);
    }
  }
  ++stats_.cancelled;
  if (metrics_->enabled()) cancelled_ctr_->inc();
  finish_job(job, JobState::kCancelled);
  return true;
}

void PwsScheduler::request_pass_soon() {
  if (pass_pending_) return;
  pass_pending_ = true;
  engine().schedule_after(config_.batch_pass_delay, [this] {
    pass_pending_ = false;
    schedule_pass();
  });
}

// --- scheduling -----------------------------------------------------------------

std::string PwsScheduler::effective_pool(net::NodeId node) const {
  auto it = slots_.find(node.value);
  if (it == slots_.end()) return {};
  const std::int32_t index = effective_pool_index(it->second);
  return index < 0 ? std::string{} : pools_[static_cast<std::size_t>(index)].name();
}

bool PwsScheduler::is_leased(net::NodeId node) const {
  auto it = slots_.find(node.value);
  return it != slots_.end() && it->second.leased_to >= 0;
}

std::vector<net::NodeId> PwsScheduler::free_nodes_of(
    std::size_t pool_index, const std::string& arch) const {
  // The free set holds only idle, live nodes serving this pool, in node-id
  // order — the same order the historical whole-cluster slot scan produced.
  std::vector<net::NodeId> out;
  const auto& free = pools_[pool_index].free_nodes();
  out.reserve(free.size());
  for (const std::uint32_t node_value : free) {
    if (!arch.empty() &&
        cluster().node(net::NodeId{node_value}).arch() != arch) {
      continue;  // architecture constraint (heterogeneous clusters)
    }
    out.push_back(net::NodeId{node_value});
  }
  return out;
}

std::size_t PwsScheduler::borrow_nodes(std::size_t borrower, std::size_t deficit) {
  Pool& pool = pools_[borrower];
  if (!pool.config().allow_borrowing) return 0;
  std::size_t borrowed = 0;
  for (std::size_t li = 0; li < pools_.size() && borrowed < deficit; ++li) {
    if (li == borrower) continue;
    Pool& lender = pools_[li];
    if (!lender.config().allow_lending) continue;
    // Only lend nodes the owner is not about to use itself.
    if (lender.has_pending()) continue;
    auto& lender_free = lender.free_nodes();
    for (auto it = lender_free.begin();
         it != lender_free.end() && borrowed < deficit;) {
      NodeSlot& slot = slots_[*it];
      // Leased-in capacity is not re-lendable; only the lender's own nodes.
      if (slot.owner_pool != static_cast<std::int32_t>(li) ||
          slot.leased_to >= 0) {
        ++it;
        continue;
      }
      slot.leased_to = static_cast<std::int32_t>(borrower);
      pool.free_nodes().insert(*it);
      it = lender_free.erase(it);
      ++borrowed;
      ++stats_.leases_granted;
    }
  }
  return borrowed;
}

sim::SimTime PwsScheduler::shadow_time(const Job& head,
                                       std::size_t pool_index) const {
  // Earliest time the head job could start: walk running jobs serving this
  // pool in completion order, accumulating freed nodes.
  const auto target = static_cast<std::int32_t>(pool_index);
  std::vector<std::pair<sim::SimTime, unsigned>> completions;
  for (const JobId id : running_ids_) {
    const auto it = jobs_.find(id);
    if (it == jobs_.end() || it->second.state != JobState::kRunning) continue;
    const Job& job = it->second;
    unsigned nodes_in_pool = 0;
    for (net::NodeId n : job.allocated) {
      auto slot = slots_.find(n.value);
      if (slot != slots_.end() && effective_pool_index(slot->second) == target) {
        ++nodes_in_pool;
      }
    }
    if (nodes_in_pool > 0) {
      completions.emplace_back(job.started_at + job.duration, nodes_in_pool);
    }
  }
  std::sort(completions.begin(), completions.end());
  std::size_t available = free_nodes_of(pool_index, head.arch).size();
  for (const auto& [finish, freed] : completions) {
    available += freed;
    if (available >= head.nodes_needed) return finish;
  }
  return sim::kNever;
}

void PwsScheduler::mark_pool_dirty(std::size_t pool_index) {
  if (pool_index < pool_dirty_.size()) pool_dirty_[pool_index] = 1;
}

void PwsScheduler::schedule_pass() {
  if (!alive()) return;
  enforce_walltime();
  // One in-(name-)order sweep over the pools something actually happened to.
  // Marks set mid-sweep for a later pool are honored this pass (the full
  // scan would have reached them anyway); marks for an earlier pool wait
  // for the next tick, exactly like the historical single ordered pass.
  for (std::size_t i = 0; i < pools_.size(); ++i) {
    if (!pool_dirty_[i]) continue;
    pool_dirty_[i] = 0;
    scan_pool(i);
  }
  checkpoint_state();
}

void PwsScheduler::scan_pool(std::size_t pool_index) {
  Pool& pool = pools_[pool_index];
  pool.refresh(jobs_, [this](const Job& j) { return usage_of_sym(j.user_sym); });
  auto& pending = pool.pending();
  const bool had_pending = !pending.empty();

  bool head_blocked = false;
  sim::SimTime head_shadow = sim::kNever;
  for (std::size_t i = 0; i < pending.size();) {
    auto job_it = jobs_.find(pending[i].id);
    if (job_it == jobs_.end() || job_it->second.terminal()) {
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
      continue;
    }
    Job& job = job_it->second;

    // Dependency gate ("afterok"): wait for the dependency to complete;
    // cancel this job if the dependency ended any other way.
    if (job.after_ok != 0) {
      const auto dep = jobs_.find(job.after_ok);
      const bool dep_ok =
          dep != jobs_.end() && dep->second.state == JobState::kCompleted;
      const bool dep_dead =
          dep == jobs_.end() ||
          (dep->second.terminal() && dep->second.state != JobState::kCompleted);
      if (dep_dead) {
        job.state = JobState::kCancelled;
        job.finished_at = now();
        --queued_jobs_;
        ++stats_.cancelled;
        if (metrics_->enabled()) cancelled_ctr_->inc();
        const JobId dead = job.id;
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
        wake_dependents(dead);
        retire_if_unretained(dead);
        continue;
      }
      if (!dep_ok) {
        ++i;  // dependency still pending: skip without blocking the head
        continue;
      }
    }

    if (head_blocked) {
      // EASY backfill: later jobs may run if they fit now and finish
      // before the head's reserved start.
      if (pool.policy() != SchedPolicy::kBackfill) break;
      if (now() + job.duration > head_shadow) {
        ++i;
        continue;
      }
    }

    std::vector<net::NodeId> free = free_nodes_of(pool_index, job.arch);
    if (free.size() < job.nodes_needed) {
      const std::size_t got =
          borrow_nodes(pool_index, job.nodes_needed - free.size());
      if (got > 0) free = free_nodes_of(pool_index, job.arch);
    }
    if (free.size() < job.nodes_needed) {
      if (!head_blocked) {
        head_blocked = true;
        head_shadow = shadow_time(job, pool_index);
      }
      ++i;
      continue;
    }

    free.resize(job.nodes_needed);
    pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
    start_job(job, std::move(free), pool);
  }
  if (had_pending && pending.empty()) pool_drained(pool_index);
}

void PwsScheduler::start_job(Job& job, std::vector<net::NodeId> nodes,
                             Pool& pool) {
  job.allocated = std::move(nodes);
  // A duplicate pending entry (post-recovery) can re-start a job that is
  // already running — keep the counters exact even then.
  if (job.state == JobState::kQueued && queued_jobs_ > 0) --queued_jobs_;
  if (job.state != JobState::kRunning) {
    ++running_jobs_;
    running_ids_.insert(job.id);
  }
  job.state = JobState::kRunning;
  job.started_at = now();
  stats_.total_wait_seconds += sim::to_seconds(now() - job.submitted_at);
  if (metrics_->enabled()) {
    schedule_latency_us_->record(
        static_cast<std::uint64_t>(now() - job.submitted_at));
  }
  for (net::NodeId n : job.allocated) {
    slots_[n.value].running_job = job.id;
    pool.free_nodes().erase(n.value);
  }
  if (job.walltime_limit > 0) {
    expiry_.push({job.started_at + job.walltime_limit, job.id});
  }
  launch(job);
}

void PwsScheduler::enforce_walltime() {
  // Pop the expiry min-heap instead of scanning the job table: O(expired).
  // Entries are lazily invalidated — a requeued job pushed a fresh entry at
  // its relaunch, so a stale one fails revalidation and is dropped.
  std::vector<JobId> victims;
  while (!expiry_.empty() && expiry_.top().first < now()) {
    const JobId id = expiry_.top().second;
    expiry_.pop();
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) continue;
    const Job& job = it->second;
    if (job.state != JobState::kRunning || job.walltime_limit == 0) continue;
    if (now() > job.started_at + job.walltime_limit) victims.push_back(id);
  }
  // Kill in job-id order (the historical job-table scan order).
  std::sort(victims.begin(), victims.end());
  victims.erase(std::unique(victims.begin(), victims.end()), victims.end());
  for (const JobId id : victims) {
    Job& job = jobs_.at(id);
    if (job.state != JobState::kRunning) continue;
    for (const auto& [node_value, pid] : job.pids) {
      pid_to_job_.erase(pid);
      auto kill = std::make_shared<kernel::KillMsg>();
      kill->pid = pid;
      send_any({net::NodeId{node_value},
                kernel::port_of(ServiceKind::kProcessManager)},
               std::move(kill));
    }
    for (net::NodeId n : job.allocated) {
      auto slot = slots_.find(n.value);
      if (slot != slots_.end() && slot->second.running_job == id) {
        free_slot(n.value, slot->second);
      }
    }
    ++stats_.timed_out;
    finish_job(job, JobState::kTimedOut);
  }
}

void PwsScheduler::launch(Job& job) {
  for (net::NodeId n : job.allocated) {
    auto spawn = std::make_shared<kernel::SpawnMsg>();
    spawn->spec.name = job.name;
    spawn->spec.owner = job.user;
    spawn->spec.cpu_share = static_cast<double>(cluster().node(n).cpus());
    spawn->spec.duration = job.duration;
    spawn->reply_to = address();
    spawn->exit_notify = address();
    spawn->request_id = next_request_id_++;
    pending_spawns_[spawn->request_id] = PendingSpawn{job.id, n};
    send_any({n, kernel::port_of(ServiceKind::kProcessManager)}, std::move(spawn));
  }
}

void PwsScheduler::complete_process(cluster::Pid pid, net::NodeId node) {
  auto map_it = pid_to_job_.find(pid);
  if (map_it == pid_to_job_.end()) return;
  const JobId job_id = map_it->second;
  pid_to_job_.erase(map_it);

  auto job_it = jobs_.find(job_id);
  if (job_it == jobs_.end()) return;
  Job& job = job_it->second;
  if (job.state != JobState::kRunning) return;
  ++job.exited;
  usage_[job.user_sym.value] += sim::to_seconds(job.duration);
  // Fair-share ordering keys drift with usage; re-rank those pools' queues.
  for (std::size_t i = 0; i < pools_.size(); ++i) {
    if (pools_[i].policy() == SchedPolicy::kFairShare && pools_[i].has_pending()) {
      mark_pool_dirty(i);
    }
  }

  auto slot = slots_.find(node.value);
  if (slot != slots_.end() && slot->second.running_job == job_id) {
    free_slot(node.value, slot->second);
  }
  if (job.exited >= job.allocated.size()) {
    finish_job(job, JobState::kCompleted);
    // Freed nodes may unblock queued work without waiting a full tick. In
    // the batched configuration one coalesced prompt pass covers a whole
    // crop of completions; the historical path schedules one per job.
    if (config_.checkpoint_interval > 0) {
      request_pass_soon();
    } else {
      engine().schedule_after(1 * sim::kMillisecond, [this] { schedule_pass(); });
    }
  }
}

void PwsScheduler::finish_job(Job& job, JobState final_state) {
  if (job.state == JobState::kRunning) {
    --running_jobs_;
    running_ids_.erase(job.id);
  } else if (job.state == JobState::kQueued) {
    --queued_jobs_;
  }
  job.state = final_state;
  job.finished_at = now();
  if (final_state == JobState::kCompleted) ++stats_.completed;
  if (final_state == JobState::kFailed) ++stats_.failed;
  const JobId id = job.id;
  wake_dependents(id);
  retire_if_unretained(id);  // `job` may dangle past this point
  checkpoint_state();
}

void PwsScheduler::free_slot(std::uint32_t node_value, NodeSlot& slot) {
  slot.running_job = 0;
  slot.leased_to = -1;  // leased capacity returns to its owner
  if (slot.node_alive && slot.owner_pool >= 0) {
    const auto owner = static_cast<std::size_t>(slot.owner_pool);
    pools_[owner].free_nodes().insert(node_value);
    capacity_freed(owner);
  }
}

void PwsScheduler::capacity_freed(std::size_t owner_index) {
  mark_pool_dirty(owner_index);
  // Idle capacity of a lender with nothing queued is borrowable: wake every
  // pool that could claim it.
  const Pool& owner = pools_[owner_index];
  if (!owner.config().allow_lending || owner.has_pending()) return;
  for (std::size_t i = 0; i < pools_.size(); ++i) {
    if (i == owner_index) continue;
    if (pools_[i].config().allow_borrowing && pools_[i].has_pending()) {
      mark_pool_dirty(i);
    }
  }
}

void PwsScheduler::pool_drained(std::size_t pool_index) {
  if (!pools_[pool_index].config().allow_lending) return;
  for (std::size_t i = 0; i < pools_.size(); ++i) {
    if (i == pool_index) continue;
    if (pools_[i].config().allow_borrowing && pools_[i].has_pending()) {
      mark_pool_dirty(i);
    }
  }
}

void PwsScheduler::wake_dependents(JobId id) {
  auto it = dependents_.find(id);
  if (it == dependents_.end()) return;
  const std::vector<JobId> waiters = std::move(it->second);
  dependents_.erase(it);
  const auto self = jobs_.find(id);
  const bool completed =
      self != jobs_.end() && self->second.state == JobState::kCompleted;
  for (const JobId waiter : waiters) {
    auto waiter_it = jobs_.find(waiter);
    if (waiter_it == jobs_.end() || waiter_it->second.terminal()) continue;
    Job& dependent = waiter_it->second;
    // With terminal jobs retired from the table, the scan could no longer
    // tell "dependency completed then vanished" from "never existed" — so
    // release the gate here, before the dependency is retired.
    if (completed && !config_.retain_terminal_jobs) dependent.after_ok = 0;
    const std::size_t pool_index = pool_index_of(dependent.pool_sym);
    if (pool_index != kNoPool) mark_pool_dirty(pool_index);
  }
}

void PwsScheduler::retire_if_unretained(JobId id) {
  if (config_.retain_terminal_jobs) return;
  auto it = jobs_.find(id);
  if (it == jobs_.end() || !it->second.terminal()) return;
  dependents_.erase(id);
  jobs_.erase(it);
}

void PwsScheduler::handle_node_failed(net::NodeId node) {
  auto slot_it = slots_.find(node.value);
  if (slot_it == slots_.end()) return;
  NodeSlot& slot = slot_it->second;
  if (slot.running_job == 0 && slot.node_alive) {
    // Dead capacity serves nobody: drop it from its pool's free set.
    const std::int32_t serving = effective_pool_index(slot);
    if (serving >= 0) {
      pools_[static_cast<std::size_t>(serving)].free_nodes().erase(node.value);
    }
  }
  slot.node_alive = false;
  const JobId victim = slot.running_job;
  slot.running_job = 0;
  slot.leased_to = -1;
  if (victim == 0) return;

  auto job_it = jobs_.find(victim);
  if (job_it == jobs_.end() || job_it->second.state != JobState::kRunning) return;
  Job& job = job_it->second;

  // Kill the job's surviving processes and free their slots.
  for (const auto& [node_value, pid] : job.pids) {
    pid_to_job_.erase(pid);
    if (node_value == node.value) continue;
    auto kill = std::make_shared<kernel::KillMsg>();
    kill->pid = pid;
    send_any({net::NodeId{node_value}, kernel::port_of(ServiceKind::kProcessManager)},
             std::move(kill));
  }
  for (net::NodeId n : job.allocated) {
    auto s = slots_.find(n.value);
    if (s != slots_.end() && s->second.running_job == victim) {
      free_slot(n.value, s->second);
    }
  }
  requeue_or_fail(job);
}

void PwsScheduler::requeue_or_fail(Job& job) {
  job.allocated.clear();
  job.pids.clear();
  job.exited = 0;
  if (job.requeues < config_.max_requeues) {
    ++job.requeues;
    ++stats_.requeued;
    if (job.state == JobState::kRunning) {
      --running_jobs_;
      running_ids_.erase(job.id);
    }
    job.state = JobState::kQueued;
    ++queued_jobs_;
    const std::size_t pool_index = pool_index_of(job.pool_sym);
    if (pool_index != kNoPool) {
      pools_[pool_index].enqueue_front(job, usage_of_sym(job.user_sym));
      mark_pool_dirty(pool_index);
    }
    checkpoint_state();
  } else {
    finish_job(job, JobState::kFailed);
  }
}

// --- state persistence ------------------------------------------------------------

std::string PwsScheduler::snapshot() const {
  return checkpoint_image_.serialize(jobs_);
}

void PwsScheduler::checkpoint_state() {
  // Interval 0 is the paper configuration: every change is saved, even
  // several in one tick. A window coalesces saves to one leading save plus
  // one trailing flush per window.
  if (config_.checkpoint_interval == 0) {
    save_state();
  } else {
    mark_dirty(config_.checkpoint_interval);
  }
}

void PwsScheduler::recover_state() {
  recovery_load_id_ = next_request_id_++;
  auto load = std::make_shared<kernel::CheckpointLoadMsg>();
  load->service = "pws";
  load->key = "jobs";
  load->reply_to = address();
  load->request_id = recovery_load_id_;
  send_any(kernel_.service_address(ServiceKind::kCheckpointService,
                                   options().partition),
           std::move(load));
}

void PwsScheduler::rebuild_after_restore() {
  // Volatile indexes are rebuilt from the recovered job table; the slot
  // table keeps its in-memory lease/liveness state (only running_job marks
  // are re-derived). The pending indexes are deliberately NOT cleared:
  // an in-place restart historically re-pushed every recovered queued job
  // behind whatever the in-memory queue already held, and the faulted
  // pws_vs_pbs experiment depends on that exact (duplicate-tolerant)
  // sequence of scheduling decisions.
  for (auto& pool : pools_) pool.free_nodes().clear();
  running_ids_.clear();
  expiry_ = {};
  dependents_.clear();
  pid_to_job_.clear();
  queued_jobs_ = 0;
  running_jobs_ = 0;

  for (auto& [id, job] : jobs_) {
    job.user_sym = net::intern_symbol(job.user);
    job.pool_sym = net::intern_symbol(job.pool);
    if (id >= next_job_id_) next_job_id_ = id + 1;
    if (job.state == JobState::kRunning) {
      for (net::NodeId n : job.allocated) {
        auto slot = slots_.find(n.value);
        if (slot != slots_.end()) slot->second.running_job = id;
      }
      for (const auto& [node_value, pid] : job.pids) pid_to_job_[pid] = id;
      ++running_jobs_;
      running_ids_.insert(id);
      if (job.walltime_limit > 0) {
        expiry_.push({job.started_at + job.walltime_limit, id});
      }
    } else if (job.state == JobState::kQueued ||
               job.state == JobState::kAuthorizing) {
      job.state = JobState::kQueued;
      const std::size_t pool_index = pool_index_of(job.pool_sym);
      if (pool_index != kNoPool) {
        pools_[pool_index].enqueue(job, usage_of_sym(job.user_sym));
      }
      ++queued_jobs_;
      if (job.after_ok != 0) {
        auto dep = jobs_.find(job.after_ok);
        if (dep != jobs_.end() && !dep->second.terminal()) {
          dependents_[job.after_ok].push_back(id);
        }
      }
    }
  }
  for (const auto& [node_value, slot] : slots_) {
    if (slot.node_alive && slot.running_job == 0) {
      const std::int32_t serving = effective_pool_index(slot);
      if (serving >= 0) {
        pools_[static_cast<std::size_t>(serving)].free_nodes().insert(node_value);
      }
    }
  }
  pool_dirty_.assign(pools_.size(), 1);  // everything is suspect after recovery
}

void PwsScheduler::reconcile_with_bulletin() {
  // Running jobs may have finished while we were down; ask the bulletin
  // federation which application processes still exist.
  reconcile_query_id_ = next_request_id_++;
  auto query = std::make_shared<kernel::DbQueryMsg>();
  query->query_id = reconcile_query_id_;
  query->table = kernel::BulletinTable::kApps;
  query->cluster_scope = true;
  query->reply_to = address();
  send_any(kernel_.service_address(ServiceKind::kDataBulletin,
                                   options().partition),
           std::move(query));
}

// --- kernel notifications --------------------------------------------------------

void PwsScheduler::on_node_event(const kernel::Event& e) {
  if (e.type == kernel::event_types::kNodeFailed) {
    handle_node_failed(e.subject_node);
    return;
  }
  if (e.type != kernel::event_types::kNodeRecovered) return;
  auto slot_it = slots_.find(e.subject_node.value);
  if (slot_it == slots_.end() || slot_it->second.node_alive) return;
  slot_it->second.node_alive = true;
  if (slot_it->second.running_job != 0) return;
  const std::int32_t serving = effective_pool_index(slot_it->second);
  if (serving >= 0) {
    const auto index = static_cast<std::size_t>(serving);
    pools_[index].free_nodes().insert(e.subject_node.value);
    capacity_freed(index);
  }
}

void PwsScheduler::on_recovery_load(const kernel::CheckpointLoadReplyMsg& load) {
  if (load.request_id != recovery_load_id_ || recovery_load_id_ == 0) return;
  recovery_load_id_ = 0;
  if (load.found) {
    jobs_ = deserialize_jobs(load.data);
    checkpoint_image_.clear();
    rebuild_after_restore();
    reconcile_with_bulletin();
  } else {
    announce_up();
  }
}

void PwsScheduler::on_reconcile_reply(const kernel::DbQueryReplyMsg& reply) {
  if (reply.query_id != reconcile_query_id_ || reconcile_query_id_ == 0) return;
  reconcile_query_id_ = 0;
  // Any tracked pid that the bulletin no longer lists finished while we
  // were down.
  std::vector<std::pair<cluster::Pid, net::NodeId>> gone;
  for (const auto& [pid, job_id] : pid_to_job_) {
    bool found = false;
    for (const auto& row : reply.app_rows) {
      if (row.pid == pid) {
        found = true;
        break;
      }
    }
    if (!found) {
      auto job_it = jobs_.find(job_id);
      if (job_it != jobs_.end()) {
        for (const auto& [node_value, p] : job_it->second.pids) {
          if (p == pid) gone.emplace_back(pid, net::NodeId{node_value});
        }
      }
    }
  }
  for (const auto& [pid, node] : gone) complete_process(pid, node);
  announce_up();
}

// --- introspection ----------------------------------------------------------------

const Job* PwsScheduler::job(JobId id) const {
  auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : &it->second;
}

const Pool* PwsScheduler::pool(const std::string& name) const {
  const auto sym = net::find_symbol(name);
  if (!sym.valid()) return nullptr;
  auto it = pool_index_.find(sym.value);
  return it == pool_index_.end() ? nullptr : &pools_[it->second];
}

std::size_t PwsScheduler::pool_index_of(net::SymbolId sym) const {
  auto it = pool_index_.find(sym.value);
  return it == pool_index_.end() ? kNoPool : it->second;
}

double PwsScheduler::usage_of_sym(net::SymbolId user) const {
  auto it = usage_.find(user.value);
  return it == usage_.end() ? 0.0 : it->second;
}

std::map<std::string, double> PwsScheduler::user_usage() const {
  std::map<std::string, double> out;
  for (const auto& [sym, seconds] : usage_) {
    out[std::string(net::symbol_name(net::SymbolId{sym}))] = seconds;
  }
  return out;
}

}  // namespace phoenix::pws
