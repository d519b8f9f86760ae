#include "kernel/api.h"

#include <utility>

namespace phoenix::kernel {

KernelApi::KernelApi(cluster::Cluster& cluster, net::NodeId node,
                     PhoenixKernel& kernel, net::PortId port)
    : Daemon(cluster, "api", node, port),
      kernel_(kernel),
      home_partition_(cluster.partition_of(node)),
      metrics_(&cluster.metrics()),
      spans_(&cluster.span_store()),
      call_latency_(cluster.metrics().histogram("api.call_latency_us")) {
  // Per-status call outcomes, published at snapshot time. With several
  // KernelApi instances on one cluster the last-registered probe wins the
  // shared gauge names — fine for the diagnostic use these serve.
  metrics_probe_ = metrics_->register_probe([this](obs::Registry& r) {
    r.gauge("api.pending_calls")->set(static_cast<double>(calls_.size()));
    r.gauge("api.completed_ok")->set(static_cast<double>(completed_ok_));
    r.gauge("api.retries_sent")->set(static_cast<double>(retries_));
    r.gauge("api.reroutes")->set(static_cast<double>(reroutes_));
    r.gauge("api.timeouts")->set(static_cast<double>(timeouts_));
    r.gauge("api.exhausted")->set(static_cast<double>(exhausted_));
    r.gauge("api.unreachable")->set(static_cast<double>(unreachable_));
    r.gauge("api.denied")->set(static_cast<double>(denied_));
    r.gauge("api.duplicate_replies")
        ->set(static_cast<double>(duplicate_replies_));
  });

  on<EsNotifyMsg>([this](const EsNotifyMsg& notify) {
    if (on_event_) on_event_(notify.event);
  });
  on<ExitNotifyMsg>([this](const ExitNotifyMsg& exited) {
    auto it = exit_watch_.find(exited.pid);
    if (it == exit_watch_.end()) return;
    auto cb = std::move(it->second);
    exit_watch_.erase(it);
    cb(exited.pid);
  });
  // Correlated replies: every protocol echoes the call's request/query id.
  const auto by_request_id = [this](const auto& r) { finish(r.request_id, r); };
  on<ConfigGetReplyMsg>(by_request_id);
  on<ConfigSetReplyMsg>(by_request_id);
  on<AuthReplyMsg>(by_request_id);
  on<AuthzReplyMsg>(by_request_id);
  on<CheckpointSaveReplyMsg>(by_request_id);
  on<CheckpointLoadReplyMsg>(by_request_id);
  on<SpawnReplyMsg>(by_request_id);
  on<ParallelCmdReplyMsg>(by_request_id);
  const auto by_query_id = [this](const auto& r) { finish(r.query_id, r); };
  on<DbQueryReplyMsg>(by_query_id);
  on<DbServiceStatsReplyMsg>(by_query_id);
  start();
}

KernelApi::~KernelApi() { metrics_->unregister_probe(metrics_probe_); }

// --- retry state machine -------------------------------------------------------

net::CallOptions KernelApi::resolve(net::CallOptions opts) const noexcept {
  if (opts.deadline == 0) opts.deadline = default_deadline_;
  if (opts.max_retries < 0) opts.max_retries = policy_.default_max_retries;
  if (!opts.idempotent) opts.max_retries = 0;
  return opts;
}

net::Address KernelApi::resolve_target(const Target& target,
                                       net::Address* home_out) {
  if (target.fixed) {
    if (home_out) *home_out = *target.fixed;
    return *target.fixed;
  }
  const net::PartitionId home_p =
      target.federated ? home_partition_ : net::PartitionId{0};
  const net::Address home = kernel_.service_address(target.service, home_p);
  if (home_out) *home_out = home;
  if (!target.federated) return home;
  // Federation failover: the home instance is preferred, but while its host
  // node is down (recovery not yet complete) any live peer instance is a
  // full access point — walk the partition ring and take the first one.
  const std::size_t parts = kernel_.partition_count();
  for (std::size_t i = 0; i < parts; ++i) {
    const net::PartitionId p{
        static_cast<std::uint32_t>((home_p.value + i) % parts)};
    const net::Address a = kernel_.service_address(target.service, p);
    if (cluster().node(a.node).alive()) return a;
  }
  return home;
}

void KernelApi::launch(std::uint64_t id, Call call, const char* op) {
  call.op = op;
  call.issued_at = now();
  if (spans_->enabled()) {
    // Root the call's trace here: the ctx's "parent" slot holds the root
    // span's own id, so attempts (and everything under them) link to it.
    call.ctx.trace_id = spans_->mint_id();
    call.ctx.parent_span_id = spans_->mint_id();
  }
  call.deadline_at = now() + call.opts.deadline;
  calls_.emplace(id, std::move(call));
  start_attempt(id);
}

void KernelApi::record_call_span(const Call& call, std::string_view outcome) {
  if (!call.ctx.active()) return;
  spans_->record(obs::Span{call.ctx.trace_id, call.ctx.parent_span_id, 0,
                           call.issued_at, now(), "api",
                           std::string("call:") + call.op,
                           std::string(outcome)});
}

void KernelApi::start_attempt(std::uint64_t id) {
  auto it = calls_.find(id);
  if (it == calls_.end()) return;
  Call& c = it->second;
  ++c.attempt;
  if (c.attempt_field != nullptr) {
    *c.attempt_field = static_cast<std::uint16_t>(c.attempt);
  }

  net::Address home;
  const net::Address target = resolve_target(c.target, &home);
  const net::Address prev = c.attempt == 1 ? home : c.last_target;
  const bool rerouted = target != prev;
  if (rerouted) {
    ++reroutes_;
    trace(sim::TraceLevel::kInfo,
          "reroute call=" + std::to_string(id) + " node=" +
              std::to_string(target.node.value));
  }
  c.last_target = target;
  if (c.attempt > 1) {
    ++retries_;
    trace(sim::TraceLevel::kInfo,
          "retry call=" + std::to_string(id) +
              " attempt=" + std::to_string(c.attempt));
  }

  // Under tracing each attempt gets its own span (child of the call root),
  // and the send runs inside its ContextScope so the fabric parents the
  // wire hop — and, through it, the server-side serve span — to this
  // attempt. The outcome distinguishes plain sends from retries/reroutes.
  const bool traced = c.ctx.active();
  std::uint64_t attempt_span = 0;
  std::optional<obs::ContextScope> scope;
  if (traced) {
    attempt_span = spans_->mint_id();
    scope.emplace(obs::TraceContext{c.ctx.trace_id, attempt_span});
  }
  const bool sent = target.valid() && send_any(target, c.request).valid();
  scope.reset();
  if (traced) {
    const char* outcome = !sent          ? "send_failed"
                          : rerouted     ? "reroute"
                          : c.attempt > 1 ? "retry"
                                          : "send";
    spans_->record(obs::Span{c.ctx.trace_id, attempt_span,
                             c.ctx.parent_span_id, now(), now(), "api",
                             "attempt:" + std::to_string(c.attempt), outcome});
  }
  if (sent) c.transmitted = true;

  if (c.one_way && sent) {
    // No reply will come; on the wire is as good as done. Not re-armed, so
    // a one-way is never duplicated by the retry machinery.
    Call done = std::move(c);
    calls_.erase(it);
    record_call_span(done, "ok");
    ++completed_ok_;
    if (metrics_->enabled()) call_latency_->record(now() - done.issued_at);
    if (done.fail) done.fail(Status::kOk);
    return;
  }

  // Jitter is drawn only when a retry actually happens, so fault-free runs
  // consume no randomness and stay bit-identical to the pre-retry client.
  sim::SimTime wait = policy_.rto_for(c.attempt);
  if (c.attempt > 1 && policy_.jitter_frac > 0.0) {
    wait = policy_.jittered(wait, engine().rng());
  }
  sim::SimTime fire_at = now() + wait;
  if (fire_at > c.deadline_at) fire_at = c.deadline_at;
  c.timer = engine().schedule_at(fire_at, [this, id] { on_attempt_timer(id); });
}

void KernelApi::on_attempt_timer(std::uint64_t id) {
  auto it = calls_.find(id);
  if (it == calls_.end()) return;
  Call& c = it->second;
  if (now() >= c.deadline_at) {
    fail_call(id, c.transmitted ? Status::kTimeout : Status::kUnreachable);
    return;
  }
  if (c.attempt > c.opts.max_retries) {
    fail_call(id, c.transmitted ? Status::kRetriesExhausted
                                : Status::kUnreachable);
    return;
  }
  start_attempt(id);
}

void KernelApi::fail_call(std::uint64_t id, Status status) {
  auto it = calls_.find(id);
  if (it == calls_.end()) return;
  Call c = std::move(it->second);
  calls_.erase(it);
  engine().cancel(c.timer);
  switch (status) {
    case Status::kTimeout: ++timeouts_; break;
    case Status::kRetriesExhausted: ++exhausted_; break;
    case Status::kUnreachable: ++unreachable_; break;
    default: break;
  }
  // A call that burned its whole retry budget is an operator-grade event:
  // every path to the service failed repeatedly.
  trace(status == Status::kRetriesExhausted ? sim::TraceLevel::kError
                                            : sim::TraceLevel::kWarn,
        "call " + std::to_string(id) + " failed: " +
            std::string(net::to_string(status)));
  record_call_span(c, net::to_string(status));
  if (metrics_->enabled()) call_latency_->record(now() - c.issued_at);
  if (c.fail) c.fail(status);
}

void KernelApi::finish(std::uint64_t id, const net::Message& msg) {
  auto it = calls_.find(id);
  if (it == calls_.end()) {
    ++duplicate_replies_;  // original answer won, or the call already failed
    if (spans_->enabled()) {
      const obs::TraceContext ctx = obs::current_context();
      if (ctx.active()) {
        spans_->record(obs::Span{ctx.trace_id, spans_->mint_id(),
                                 ctx.parent_span_id, now(), now(), "api",
                                 "duplicate_reply", "suppressed"});
      }
    }
    return;
  }
  Call c = std::move(it->second);
  calls_.erase(it);
  engine().cancel(c.timer);
  record_call_span(c, "ok");
  ++completed_ok_;
  if (metrics_->enabled()) call_latency_->record(now() - c.issued_at);
  if (c.complete) c.complete(msg);
}

// --- the one request/reply call path -------------------------------------------

template <typename Reply, typename T, typename Req, typename Map>
void KernelApi::call(std::shared_ptr<Req> request, Target target,
                     const char* op, Callback<T> done, CallOptions opts,
                     Map map) {
  const std::uint64_t id = next_id_++;
  request->reply_to = address();
  if constexpr (requires(Req& r) { r.query_id; }) {
    request->query_id = id;
  } else {
    request->request_id = id;
  }
  Call c;
  c.complete = [this, done, map = std::move(map)](const net::Message& m) {
    if (m.type_id() != Reply::static_type_id()) return;
    Result<T> result = map(static_cast<const Reply&>(m));
    if (result.status == Status::kDenied) ++denied_;  // the service refused
    if (done) done(std::move(result));
  };
  c.fail = [done](Status s) {
    if (done) done(Result<T>::failure(s));
  };
  c.attempt_field = &request->attempt;
  c.request = std::move(request);
  c.target = target;
  c.opts = resolve(opts);
  launch(id, std::move(c), op);
}

void KernelApi::send_one_way(std::shared_ptr<net::Message> request,
                             const char* op, Callback<bool> done,
                             CallOptions opts) {
  Call c;
  c.fail = [done](Status s) {
    if (!done) return;
    done(s == Status::kOk ? Result<bool>::success(true)
                          : Result<bool>::failure(s));
  };
  c.request = std::move(request);
  c.target = Target::federation(ServiceKind::kEventService);
  c.one_way = true;
  c.opts = resolve(opts);
  launch(next_id_++, std::move(c), op);
}

// --- configuration -------------------------------------------------------------

void KernelApi::config_get(const std::string& key,
                           Callback<std::optional<std::string>> done,
                           CallOptions opts) {
  auto msg = std::make_shared<ConfigGetMsg>();
  msg->key = key;
  call<ConfigGetReplyMsg>(
      std::move(msg), Target::singleton(ServiceKind::kConfiguration),
      "config_get", std::move(done), opts, [](const ConfigGetReplyMsg& r) {
        using R = Result<std::optional<std::string>>;
        return r.found ? R::success(r.value) : R::success(std::nullopt);
      });
}

void KernelApi::config_set(const std::string& key, const std::string& value,
                           Callback<std::uint64_t> done, CallOptions opts) {
  auto msg = std::make_shared<ConfigSetMsg>();
  msg->key = key;
  msg->value = value;
  call<ConfigSetReplyMsg>(
      std::move(msg), Target::singleton(ServiceKind::kConfiguration),
      "config_set", std::move(done), opts, [](const ConfigSetReplyMsg& r) {
        return Result<std::uint64_t>::success(r.version);
      });
}

// --- security -------------------------------------------------------------------

void KernelApi::authenticate(const std::string& user, const std::string& secret,
                             Callback<Token> done, CallOptions opts) {
  auto msg = std::make_shared<AuthRequestMsg>();
  msg->user = user;
  msg->secret = secret;
  call<AuthReplyMsg>(
      std::move(msg), Target::singleton(ServiceKind::kSecurity), "authenticate",
      std::move(done), opts, [](const AuthReplyMsg& r) {
        return r.ok ? Result<Token>::success(r.token)
                    : Result<Token>::failure(Status::kDenied);
      });
}

void KernelApi::authorize(const Token& token, const std::string& action,
                          const std::string& resource, Callback<bool> done,
                          CallOptions opts) {
  auto msg = std::make_shared<AuthzRequestMsg>();
  msg->token = token;
  msg->action = action;
  msg->resource = resource;
  call<AuthzReplyMsg>(
      std::move(msg), Target::singleton(ServiceKind::kSecurity), "authorize",
      std::move(done), opts, [](const AuthzReplyMsg& r) {
        return r.allowed ? Result<bool>::success(true)
                         : Result<bool>::failure(Status::kDenied);
      });
}

// --- checkpoint -----------------------------------------------------------------

void KernelApi::checkpoint_save(const std::string& service,
                                const std::string& key, std::string data,
                                Callback<std::uint64_t> done, CallOptions opts) {
  auto msg = std::make_shared<CheckpointSaveMsg>();
  msg->service = service;
  msg->key = key;
  msg->data = std::move(data);
  call<CheckpointSaveReplyMsg>(
      std::move(msg), Target::federation(ServiceKind::kCheckpointService),
      "checkpoint_save", std::move(done), opts,
      [](const CheckpointSaveReplyMsg& r) {
        return Result<std::uint64_t>::success(r.version);
      });
}

void KernelApi::checkpoint_load(const std::string& service,
                                const std::string& key,
                                Callback<std::optional<std::string>> done,
                                CallOptions opts) {
  auto msg = std::make_shared<CheckpointLoadMsg>();
  msg->service = service;
  msg->key = key;
  call<CheckpointLoadReplyMsg>(
      std::move(msg), Target::federation(ServiceKind::kCheckpointService),
      "checkpoint_load", std::move(done), opts,
      [](const CheckpointLoadReplyMsg& r) {
        using R = Result<std::optional<std::string>>;
        return r.found ? R::success(r.data) : R::success(std::nullopt);
      });
}

// --- data bulletin --------------------------------------------------------------

void KernelApi::query(BulletinTable table, bool cluster_scope,
                      BulletinFilter filter, Callback<BulletinSnapshot> done,
                      CallOptions opts) {
  auto msg = std::make_shared<DbQueryMsg>();
  msg->table = table;
  msg->cluster_scope = cluster_scope;
  msg->filter = std::move(filter);
  call<DbQueryReplyMsg>(
      std::move(msg), Target::federation(ServiceKind::kDataBulletin), "query",
      std::move(done), opts, [](const DbQueryReplyMsg& r) {
        return Result<BulletinSnapshot>::success(BulletinSnapshot{
            r.node_rows, r.app_rows, r.partitions_included});
      });
}

void KernelApi::service_stats(Callback<std::vector<ServiceStatsRecord>> done,
                              CallOptions opts) {
  call<DbServiceStatsReplyMsg>(
      std::make_shared<DbServiceStatsQueryMsg>(),
      Target::federation(ServiceKind::kDataBulletin), "service_stats",
      std::move(done), opts, [](const DbServiceStatsReplyMsg& r) {
        return Result<std::vector<ServiceStatsRecord>>::success(r.rows);
      });
}

// --- events ---------------------------------------------------------------------

void KernelApi::subscribe(std::vector<std::string> types, EventCallback on_event,
                          Callback<bool> done, CallOptions opts) {
  on_event_ = std::move(on_event);
  auto msg = std::make_shared<EsSubscribeMsg>();
  msg->subscription.consumer = address();
  msg->subscription.types = std::move(types);
  send_one_way(std::move(msg), "subscribe", std::move(done), opts);
}

void KernelApi::publish(Event event, Callback<bool> done, CallOptions opts) {
  auto msg = std::make_shared<EsPublishMsg>();
  msg->event = std::move(event);
  send_one_way(std::move(msg), "publish", std::move(done), opts);
}

// --- ppm ------------------------------------------------------------------------

void KernelApi::spawn(net::NodeId node, ProcessSpec spec,
                      Callback<cluster::Pid> done,
                      std::function<void(cluster::Pid)> on_exit,
                      CallOptions opts) {
  auto msg = std::make_shared<SpawnMsg>();
  msg->spec = std::move(spec);
  if (on_exit) msg->exit_notify = address();
  call<SpawnReplyMsg>(
      std::move(msg),
      Target::at({node, port_of(ServiceKind::kProcessManager)}),
      "spawn", std::move(done), opts,
      [this, on_exit = std::move(on_exit)](const SpawnReplyMsg& r) {
        if (!r.ok) return Result<cluster::Pid>::failure(Status::kDenied);
        if (on_exit) exit_watch_[r.pid] = on_exit;
        return Result<cluster::Pid>::success(r.pid);
      });
}

void KernelApi::parallel_command(const std::string& command,
                                 std::vector<net::NodeId> nodes,
                                 std::size_t fanout,
                                 Callback<CommandOutcome> done,
                                 CallOptions opts) {
  if (nodes.empty()) {
    if (done) done(Result<CommandOutcome>::success({}));
    return;
  }
  const net::NodeId root = nodes.front();
  auto msg = std::make_shared<ParallelCmdMsg>();
  msg->command = command;
  msg->nodes = std::move(nodes);
  msg->fanout = fanout;
  call<ParallelCmdReplyMsg>(
      std::move(msg),
      Target::at({root, port_of(ServiceKind::kProcessManager)}),
      "parallel_command", std::move(done), opts,
      [](const ParallelCmdReplyMsg& r) {
        return Result<CommandOutcome>::success(
            CommandOutcome{r.succeeded, r.failed});
      });
}

}  // namespace phoenix::kernel
