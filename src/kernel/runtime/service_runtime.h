// ServiceRuntime — the shared substrate every kernel service runs on.
//
// The paper's kernel is a minimum set of cluster core functions whose
// services are uniformly checkpointed (§4.2) and uniformly failed over by
// the GSD ring (§4.3). This layer sits between cluster::Daemon and each
// service and owns the four things they previously hand-rolled:
//
//   1. Observed dispatch — a service registers `on<MsgT>(handler)` with
//      cluster::Daemon's dense table; the runtime's handle() counts each
//      delivery by type and wraps the same table lookup in a serve span
//      when tracing is on.
//   2. At-most-once serving — serve_mutating()/serve_idempotent() own the
//      ReplayCache begin/complete protocol, so a retried RPC replays its
//      original reply instead of being applied twice.
//   3. One lifecycle — snapshot()/restore() plus on_takeover() hooks; the
//      runtime issues the checkpoint saves (save_state/mark_dirty) and runs
//      the recover-on-start load loop, so checkpointing and group-service
//      failover drive every service through the same code path.
//   4. Uniform counters — messages by type, replays, restores, takeovers —
//      optionally published into the partition bulletin (ServiceStatsMsg)
//      for GridView-style monitors.
//
// See DESIGN.md §10 for the lifecycle diagram and a worked example of
// adding a new service in ~30 lines.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/daemon.h"
#include "kernel/ft_params.h"
#include "kernel/service_kind.h"
#include "kernel/service_msgs.h"
#include "net/message.h"
#include "net/rpc.h"
#include "obs/metrics.h"
#include "obs/span_store.h"
#include "obs/trace_context.h"
#include "sim/engine.h"

namespace phoenix::kernel {

/// Uniform per-service counters maintained by the runtime.
struct RuntimeCounters {
  /// Delivered envelopes broken down by message type.
  net::TypeCounts messages_by_type;
  std::uint64_t messages_received = 0;
  /// Delivered envelopes with no registered handler.
  std::uint64_t messages_unhandled = 0;
  /// Checkpoint saves issued (save_state / coalesced mark_dirty flushes).
  std::uint64_t snapshots_saved = 0;
  /// Successful restore() invocations (recover-on-start hits).
  std::uint64_t restores = 0;
  /// Times this instance came up as a failover replacement.
  std::uint64_t takeovers = 0;
  /// Mutating requests rejected because they carried a stale (nonzero,
  /// below-watermark) meta-group epoch — a fenced ex-Leader knocking.
  std::uint64_t fenced_rejections = 0;
};

/// Periodic per-service health row published into the partition's bulletin
/// when FtParams::service_stats_interval > 0 (off by default).
struct ServiceStatsMsg final : net::Message {
  std::string service;  // daemon name, e.g. "es/0"
  ServiceKind kind = ServiceKind::kEventService;
  net::PartitionId partition;
  net::NodeId node;
  std::uint64_t messages_received = 0;
  std::uint64_t messages_unhandled = 0;
  std::uint64_t replays_served = 0;
  std::uint64_t duplicates_suppressed = 0;
  std::uint64_t snapshots_saved = 0;
  std::uint64_t restores = 0;
  std::uint64_t takeovers = 0;

  PHOENIX_MESSAGE_TYPE("runtime.service_stats")
  std::size_t wire_size() const noexcept override { return service.size() + 64; }
};

// Forward declaration: the generic recovery loop speaks the checkpoint wire
// protocol (kernel/checkpoint/checkpoint_msgs.h, included by the .cpp).
struct CheckpointLoadReplyMsg;

class ServiceRuntime : public cluster::Daemon {
 public:
  struct Options {
    ServiceKind kind = ServiceKind::kEventService;
    net::PartitionId partition{};
    /// Checkpoint namespace ("es/0"); empty means the service carries no
    /// checkpointed state — snapshot()/restore() are never invoked and
    /// save_state()/mark_dirty() are no-ops.
    std::string checkpoint_namespace{};
    std::string checkpoint_key = "state";
    /// Report ServiceUpMsg to the partition's GSD once the service is ready
    /// (immediately on start, or after recovery completes / gives up).
    bool announce_up = false;
    /// Load the snapshot back from the checkpoint federation before
    /// announcing (requires a directory, FtParams, and a namespace).
    bool recover_on_start = false;
    /// Load attempts before coming up empty-handed.
    int recovery_attempts = 5;
    /// Extension component name stamped into ServiceUpMsg (empty for the
    /// built-in kernel services).
    std::string extension{};
    /// Entries kept by the at-most-once replay cache.
    std::size_t replay_capacity = 256;
  };

  const RuntimeCounters& counters() const noexcept { return counters_; }

  /// The runtime-owned at-most-once filter. Exposed for tests and for the
  /// PPM's asynchronous parallel-command completion, which must begin and
  /// complete across separate simulation events.
  net::ReplayCache& replay_cache() noexcept { return replay_; }
  const net::ReplayCache& replay_cache() const noexcept { return replay_; }

  /// Marks the next start() as a failover takeover (called by the directory
  /// when it creates this instance as a replacement for a failed one).
  void mark_takeover() noexcept { pending_takeover_ = true; }

  /// Highest meta-group epoch this runtime has been fenced to
  /// (EpochFenceMsg) for the given ring scope. 0 until that ring's first
  /// quorum takeover broadcasts a fence; quorum views bootstrap at epoch 1,
  /// so that first fence already carries epoch >= 2 and outranks
  /// pre-takeover traffic. Scope 0 is the flat meta-group; under a zoned
  /// topology each zone ring and the top ring fence independently.
  std::uint64_t witnessed_epoch(std::uint32_t scope = 0) const noexcept;

 protected:
  /// `directory` and `params` may be null for standalone use in unit tests;
  /// announcement, recovery, checkpointing, and stats publishing all require
  /// them and degrade to no-ops when absent.
  ServiceRuntime(cluster::Cluster& cluster, std::string name, net::NodeId node,
                 net::PortId port, ServiceDirectory* directory,
                 const FtParams* params, Options opts, double cpu_share = 0.0);
  ~ServiceRuntime() override;

  ServiceDirectory* directory() const noexcept { return directory_; }
  const Options& options() const noexcept { return opts_; }

  // --- at-most-once serving -------------------------------------------------

  /// Runs `exec` under the ReplayCache begin/complete protocol. A retried
  /// request is answered from the cache without re-running `exec`; a request
  /// whose first execution is still in flight is dropped (its eventual reply
  /// serves the retry). `exec` returns the reply message, or nullptr for
  /// "executed, nothing to send" (the side effect still happened exactly
  /// once). The reply is only transmitted when `req.reply_to` is valid —
  /// requests without a reply address still execute.
  template <typename Req, typename Exec>
  void serve_mutating(const Req& req, Exec&& exec) {
    std::shared_ptr<const net::Message> replay;
    switch (replay_.begin(req.reply_to, req.type_id(), req.request_id, &replay)) {
      case net::ReplayCache::Admit::kReplay:
        // The replayed reply goes out under the current (serve-span) scope,
        // so the retry's trace shows the dedup hit, not a re-execution.
        serve_outcome_ = "replay";
        send_any(req.reply_to, std::move(replay));
        return;
      case net::ReplayCache::Admit::kInFlight:
        serve_outcome_ = "in_flight";
        return;
      case net::ReplayCache::Admit::kNew:
        break;
    }
    std::shared_ptr<const net::Message> reply = exec();
    if (reply == nullptr) return;
    replay_.complete(req.reply_to, req.type_id(), req.request_id, reply);
    if (req.reply_to.valid()) send_any(req.reply_to, std::move(reply));
  }

  /// For read-only requests: no dedup needed (re-executing is harmless), so
  /// this just runs `exec` and sends the reply (nullptr = nothing to send).
  template <typename Req, typename Exec>
  void serve_idempotent(const Req& req, Exec&& exec) {
    std::shared_ptr<const net::Message> reply = exec();
    if (reply == nullptr) return;
    send_any(req.reply_to, std::move(reply));
  }

  // --- lifecycle ------------------------------------------------------------

  /// Start-order hook for timers and service-specific boot work. Runs after
  /// takeover accounting, before recovery / announcement.
  virtual void on_service_start() {}
  virtual void on_service_stop() {}

  /// Invoked (before on_service_start) when this instance starts as a
  /// failover replacement created through the directory.
  virtual void on_takeover() {}

  /// Serialized service state for checkpointing. Paired with restore().
  virtual std::string snapshot() const { return {}; }
  virtual void restore(const std::string& data) { (void)data; }

  /// Delivered envelope with no registered handler (default: drop).
  virtual void on_unhandled(const net::Envelope& env) { (void)env; }

  /// Epoch fencing gate for mutating requests. Epoch 0 is legacy/unfenced
  /// traffic and always passes (the paper's unilateral policy never stamps
  /// epochs, so its behaviour is untouched). A nonzero epoch at or above the
  /// watermark is admitted; a stale one is rejected and counted — the caller
  /// must drop or fail the request. Admission is a pure check: only the
  /// meta-group's fence broadcast raises the watermark (see
  /// raise_epoch_watermark), so a request stamped with an inflated epoch
  /// cannot fence a runtime against legitimate traffic. Watermarks are kept
  /// per ring scope: a zone ring's takeover must not fence another zone's
  /// leader (scope 0 — the flat meta-group — is the fast path).
  bool admit_epoch(std::uint64_t epoch, std::uint32_t scope = 0);

  /// Raises the fencing watermark of `scope` to `epoch` (never lowers it).
  /// Invoked by the EpochFenceMsg handler. Trust assumption: the simulated
  /// fabric carries no sender authentication, so any fence received is taken
  /// to originate from the meta-group — only GSDs emit them in practice.
  void raise_epoch_watermark(std::uint64_t epoch, std::uint32_t scope = 0);

  /// Epoch this service stamps into its own mutating RPCs (checkpoint
  /// saves). 0 for every service except the GSD, which returns its
  /// meta-group epoch so a deposed instance's writes can be fenced.
  virtual std::uint64_t fence_epoch() const { return 0; }

  /// Ring scope fence_epoch() belongs to. 0 for every service except a GSD
  /// running under a zoned topology, which stamps its zone ring's scope.
  virtual std::uint32_t fence_scope() const { return 0; }

  /// Reports this instance up to the partition's GSD (closes open fault
  /// records). No-op without a directory.
  void announce_up();

  /// Saves snapshot() into the checkpoint federation immediately.
  void save_state();

  /// Checkpoint-on-change with coalescing: a change more than `window`
  /// after the last save (or, for window 0, in a later simulation tick)
  /// saves immediately (leading edge); further changes are folded into one
  /// trailing flush at last save + window. Window 0 is per-tick coalescing,
  /// which cuts the save traffic of burst updates (e.g. an EsSyncMsg batch)
  /// from O(changes) to at most two messages per tick; a positive window is
  /// bounded-staleness durability for high-churn state.
  void mark_dirty(sim::SimTime window = 0);

 private:
  void handle(const net::Envelope& env) final;
  void on_start() final;
  void on_stop() final;

  /// Slow path of handle(): serve span + serve-latency histogram. Split out
  /// so the default path stays the dense-table dispatch plus one branch.
  void handle_observed(const net::Envelope& env, net::MessageTypeId id);
  /// Table dispatch, with unhandled-type accounting.
  void serve(const net::Envelope& env, net::MessageTypeId id);

  void attempt_recovery_load();
  void on_recovery_reply(const CheckpointLoadReplyMsg& reply);
  void publish_stats();

  ServiceDirectory* directory_;
  const FtParams* params_;
  Options opts_;
  net::ReplayCache replay_;
  RuntimeCounters counters_;

  obs::Registry* metrics_;        // cluster-owned
  obs::SpanStore* spans_;         // cluster-owned
  obs::Histogram* serve_latency_ = nullptr;  // resolved on first observed serve
  /// Set by serve_mutating when the replay cache answered for it; read back
  /// by handle_observed as the serve span's outcome.
  const char* serve_outcome_ = nullptr;

  bool pending_takeover_ = false;
  /// Fencing watermark of scope 0 (the flat meta-group) — scalar fast path,
  /// the only scope that exists outside zoned topologies.
  std::uint64_t witnessed_epoch_ = 0;
  /// Watermarks of nonzero scopes (zone rings, top ring); allocated lazily.
  std::unordered_map<std::uint32_t, std::uint64_t> scoped_epochs_;

  // recover-on-start state (mirrors the original EventService protocol)
  int recovery_attempts_left_ = 0;
  std::uint64_t recovery_load_id_ = 0;

  // mark_dirty() coalescing state
  sim::SimTime last_save_time_ = 0;
  bool ever_saved_ = false;
  bool dirty_ = false;
  bool flush_scheduled_ = false;

  std::unique_ptr<sim::PeriodicTask> stats_task_;
};

}  // namespace phoenix::kernel
