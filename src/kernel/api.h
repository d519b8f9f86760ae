// KernelApi — the uniform client interface to the Phoenix kernel.
//
// The paper (§4.2): "Phoenix kernel provides documented interfaces and
// parallel command calls for user environments in different forms with
// uniformed semantics (Such as Socket, RPC and ORB etc.)". This class is
// that uniform form: an asynchronous RPC facade over the kernel's message
// protocols, built on the resilient substrate of net/rpc.h (DESIGN.md §9).
//
// Every call completes exactly once with a net::Result<T>: a typed payload
// plus a Status the caller can branch on. Per-call CallOptions select the
// deadline and retry budget; between attempts the client backs off
// exponentially (RetryPolicy) and re-resolves the target through the
// service directory, so a call issued against an instance that dies
// mid-flight re-routes to the recovered or federated instance instead of
// timing out. Mutating services keep a ReplayCache, which makes the
// retries safe: a retransmitted config_set / spawn / checkpoint_save is
// answered from the cache, never applied twice.
//
// All ten request/reply operations take one code path, call<Reply>(): the
// request, its target (a directory-resolved service, optionally federated,
// or a fixed PPM address), an op name for tracing, and a mapper from the
// typed reply to Result<T>. Replies are routed by type through the Daemon
// dispatch table and matched to their call by request (or query) id.
//
// Every user environment in this repository could be written against this
// class alone; GridView-style monitors, submission portals, and management
// tools need nothing else from the kernel.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/daemon.h"
#include "kernel/bulletin/data_bulletin.h"
#include "obs/metrics.h"
#include "obs/span_store.h"
#include "obs/trace_context.h"
#include "kernel/checkpoint/checkpoint_service.h"
#include "kernel/config/configuration_service.h"
#include "kernel/event/event_service.h"
#include "kernel/kernel.h"
#include "kernel/ppm/process_manager.h"
#include "kernel/security/security_service.h"
#include "net/rpc.h"

namespace phoenix::kernel {

/// A cluster-wide bulletin answer: the merged rows plus how many partition
/// instances contributed (dead instances only shrink the merge).
struct BulletinSnapshot {
  std::vector<NodeRecord> nodes;
  std::vector<AppRecord> apps;
  std::uint32_t partitions_included = 0;
};

/// Aggregated result of a parallel command tree.
struct CommandOutcome {
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
};

class KernelApi final : public cluster::Daemon {
 public:
  using Status = net::Status;
  using CallOptions = net::CallOptions;
  template <typename T>
  using Result = net::Result<T>;
  /// The one completion shape every call uses.
  template <typename T>
  using Callback = std::function<void(Result<T>)>;

  /// Binds the API endpoint on `node` with a caller-chosen port (several
  /// clients may coexist on one node with different ports).
  KernelApi(cluster::Cluster& cluster, net::NodeId node, PhoenixKernel& kernel,
            net::PortId port = net::PortId{30});
  ~KernelApi() override;

  // --- client-wide defaults ---------------------------------------------------

  /// Deadline used when CallOptions::deadline is 0.
  void set_default_deadline(sim::SimTime t) noexcept { default_deadline_ = t; }
  sim::SimTime default_deadline() const noexcept { return default_deadline_; }

  /// Backoff schedule and default retry budget, tunable per client.
  net::RetryPolicy& retry_policy() noexcept { return policy_; }
  const net::RetryPolicy& retry_policy() const noexcept { return policy_; }

  // --- configuration ----------------------------------------------------------

  /// kOk with nullopt means "the service answered: no such key".
  void config_get(const std::string& key,
                  Callback<std::optional<std::string>> done,
                  CallOptions opts = {});

  /// Value: the new tree version.
  void config_set(const std::string& key, const std::string& value,
                  Callback<std::uint64_t> done, CallOptions opts = {});

  // --- security ----------------------------------------------------------------

  /// kDenied when the credentials are refused.
  void authenticate(const std::string& user, const std::string& secret,
                    Callback<Token> done, CallOptions opts = {});

  /// kOk/true when allowed; kDenied when the service refuses.
  void authorize(const Token& token, const std::string& action,
                 const std::string& resource, Callback<bool> done,
                 CallOptions opts = {});

  // --- checkpoint ----------------------------------------------------------------

  /// Value: the stored version.
  void checkpoint_save(const std::string& service, const std::string& key,
                       std::string data, Callback<std::uint64_t> done,
                       CallOptions opts = {});

  /// kOk with nullopt means "the federation answered: not found".
  void checkpoint_load(const std::string& service, const std::string& key,
                       Callback<std::optional<std::string>> done,
                       CallOptions opts = {});

  // --- data bulletin ----------------------------------------------------------------

  void query(BulletinTable table, bool cluster_scope, BulletinFilter filter,
             Callback<BulletinSnapshot> done, CallOptions opts = {});

  /// Per-service runtime health rows (ServiceRuntime counters) held by the
  /// home partition's bulletin. Populated only when
  /// FtParams::service_stats_interval is enabled; empty otherwise.
  void service_stats(Callback<std::vector<ServiceStatsRecord>> done,
                     CallOptions opts = {});

  // --- events ----------------------------------------------------------------

  using EventCallback = std::function<void(const Event&)>;

  /// Subscribes this endpoint; matching events invoke `on_event` forever.
  /// One-way: `done` (optional) completes kOk once the registration is on
  /// the wire, kUnreachable if no attempt could be transmitted in time.
  void subscribe(std::vector<std::string> types, EventCallback on_event,
                 Callback<bool> done = {}, CallOptions opts = {});

  /// One-way, same transmit semantics as subscribe. Never retried after a
  /// successful transmission (a duplicate publish would be a new event).
  void publish(Event event, Callback<bool> done = {}, CallOptions opts = {});

  // --- parallel process management -------------------------------------------------

  /// Value: the new pid. `on_exit` (optional) fires when the process ends.
  void spawn(net::NodeId node, ProcessSpec spec, Callback<cluster::Pid> done,
             std::function<void(cluster::Pid)> on_exit = {},
             CallOptions opts = {});

  void parallel_command(const std::string& command,
                        std::vector<net::NodeId> nodes, std::size_t fanout,
                        Callback<CommandOutcome> done, CallOptions opts = {});

  // --- observability ----------------------------------------------------------

  /// Calls still awaiting replies.
  std::size_t pending_calls() const noexcept { return calls_.size(); }
  /// Retransmissions sent (attempts after the first, across all calls).
  std::uint64_t retries_sent() const noexcept { return retries_; }
  /// Attempts that went to a different address than the previous one
  /// (directory re-resolution or federation failover picked a new target).
  std::uint64_t reroutes() const noexcept { return reroutes_; }
  /// Calls failed with kTimeout.
  std::uint64_t timed_out_calls() const noexcept { return timeouts_; }
  /// Calls failed with kRetriesExhausted.
  std::uint64_t exhausted_calls() const noexcept { return exhausted_; }
  /// Calls failed with kUnreachable (no attempt ever transmitted).
  std::uint64_t unreachable_calls() const noexcept { return unreachable_; }
  /// Calls the service answered with a refusal (kDenied).
  std::uint64_t denied_calls() const noexcept { return denied_; }
  /// Replies that matched no pending call (the original answer already
  /// arrived and this is a retry's duplicate, or the call already failed).
  std::uint64_t duplicate_replies() const noexcept { return duplicate_replies_; }

 private:
  /// Where a call goes: a directory-resolved kernel service — the
  /// partition-0 singleton, or a federation whose calls rotate to a live
  /// peer instance while the home instance's node is down — or a fixed
  /// address (PPM calls).
  struct Target {
    ServiceKind service = ServiceKind::kConfiguration;
    bool federated = false;
    std::optional<net::Address> fixed;  // set: bypasses the directory

    static Target singleton(ServiceKind s) { return {s, false, std::nullopt}; }
    static Target federation(ServiceKind s) { return {s, true, std::nullopt}; }
    static Target at(net::Address a) { return {ServiceKind{}, false, a}; }
  };

  /// One in-flight call: typed completion closures plus the retry state
  /// machine (request to retransmit, resolved options, attempt count,
  /// backoff timer, last target for reroute accounting).
  struct Call {
    std::function<void(const net::Message&)> complete;  // on matched reply
    std::function<void(Status)> fail;                   // on any failure
    std::shared_ptr<net::Message> request;
    std::uint16_t* attempt_field = nullptr;  // request's attempt ordinal slot
    Target target;
    bool one_way = false;        // completes kOk at transmit time
    net::CallOptions opts;       // resolved (no inherit markers left)
    sim::SimTime deadline_at = 0;
    int attempt = 0;             // attempts started (1 = first send)
    bool transmitted = false;    // at least one attempt reached the fabric
    net::Address last_target;
    sim::EventId timer{};
    const char* op = "";         // span name suffix, e.g. "config_set"
    sim::SimTime issued_at = 0;
    /// When tracing: trace_id plus the root ("call:") span's own id, which
    /// parents every attempt span and (via the ambient context at send
    /// time) every downstream wire hop and serve span.
    obs::TraceContext ctx;
  };

  /// Fills in inherited defaults; !idempotent forces a single attempt.
  net::CallOptions resolve(net::CallOptions opts) const noexcept;

  /// The one request/reply path every operation takes: stamps `request`
  /// with this endpoint's reply address and a fresh correlation id, then
  /// runs the retry machine against `target`. `map` turns the matching
  /// Reply into the caller's Result<T>; a kDenied result counts in
  /// denied_calls().
  template <typename Reply, typename T, typename Req, typename Map>
  void call(std::shared_ptr<Req> request, Target target, const char* op,
            Callback<T> done, CallOptions opts, Map map);

  /// Event-service one-way (subscribe, publish): completes kOk once an
  /// attempt is on the wire and is never re-sent after that.
  void send_one_way(std::shared_ptr<net::Message> request, const char* op,
                    Callback<bool> done, CallOptions opts);

  /// Registers the call under `id` and launches the first attempt. The
  /// caller has already stamped the id into the request message.
  void launch(std::uint64_t id, Call call, const char* op);
  void record_call_span(const Call& call, std::string_view outcome);
  void start_attempt(std::uint64_t id);
  void on_attempt_timer(std::uint64_t id);
  void fail_call(std::uint64_t id, Status status);
  void finish(std::uint64_t id, const net::Message& msg);

  /// Where the next attempt goes. For federated services, the first
  /// partition (ring-wise from home) whose instance sits on a live node;
  /// `home_out` receives the un-rotated home address (reroute accounting).
  net::Address resolve_target(const Target& target, net::Address* home_out);

  PhoenixKernel& kernel_;
  net::PartitionId home_partition_;
  sim::SimTime default_deadline_ = 10 * sim::kSecond;
  net::RetryPolicy policy_;
  std::unordered_map<std::uint64_t, Call> calls_;
  std::unordered_map<cluster::Pid, std::function<void(cluster::Pid)>> exit_watch_;
  EventCallback on_event_;
  obs::Registry* metrics_;       // cluster-owned; cached for one-branch guards
  obs::SpanStore* spans_;        // cluster-owned
  obs::Histogram* call_latency_; // "api.call_latency_us", registry-owned
  std::uint64_t metrics_probe_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t completed_ok_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t reroutes_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t exhausted_ = 0;
  std::uint64_t unreachable_ = 0;
  std::uint64_t denied_ = 0;
  std::uint64_t duplicate_replies_ = 0;
};

}  // namespace phoenix::kernel
