// PWS scheduler daemon (paper §5.4, Figure 8).
//
// The Partitioned Workload Solution job-management system built on the
// Phoenix kernel. Compared with PBS, the kernel already provides most of
// the machinery, so this module is only the user interface and scheduling
// logic:
//  - cluster-wide resource state comes from the data bulletin federation
//    (no per-node polling);
//  - node failure/recovery arrives as event-service pushes, and jobs on a
//    dead node are requeued automatically;
//  - job loading goes through the parallel process management service;
//  - submissions are authorized by the security service;
//  - scheduler state is checkpointed, and the GSD supervises the scheduler
//    as an extension service — the HA the paper says PBS lacks.
//
// The scheduler runs on kernel::ServiceRuntime like every kernel service:
// typed dispatch, at-most-once serving of its mutating RPCs (single and
// batched submit/cancel) and checkpoint saves/coalescing come from there.
//
// Multi-tenant scale path (DESIGN.md §13): submissions may arrive in
// batches (PwsSubmitBatchMsg, one replay-cache entry per batch),
// scheduling is incremental — a dirty-pool set plus per-pool ordered pending
// indexes and free-node sets bound each pass to the pools something actually
// happened to — the walltime sweep pops a min-heap of expiry times instead
// of scanning the job table, and per-tenant token buckets reject job spam
// before it ever enters a queue.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <queue>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "kernel/kernel.h"
#include "kernel/runtime/service_runtime.h"
#include "kernel/security/security_service.h"
#include "obs/metrics.h"
#include "pws/job.h"
#include "pws/pool.h"

namespace phoenix::pws {

struct PwsSubmitMsg final : net::Message {
  SubmitRequest request;
  kernel::Token token;  // validated against the security service if enabled
  net::Address reply_to;
  std::uint64_t request_id = 0;

  PHOENIX_MESSAGE_TYPE("pws.submit")
  std::size_t wire_size() const noexcept override {
    return request.name.size() + request.user.size() + request.pool.size() + 48;
  }
};

struct PwsSubmitReplyMsg final : net::Message {
  std::uint64_t request_id = 0;
  bool accepted = false;
  JobId job_id = 0;
  std::string reason;

  PHOENIX_MESSAGE_TYPE("pws.submit_reply")
  std::size_t wire_size() const noexcept override { return reason.size() + 24; }
};

/// Batched submission: one RPC, one replay-cache entry, one coalesced
/// checkpoint and one prompt scheduling pass for a whole window of jobs.
/// Retransmitting the same (reply_to, request_id) returns the identical
/// JobId vector from the scheduler's ReplayCache instead of re-admitting.
struct PwsSubmitBatchMsg final : net::Message {
  std::vector<SubmitRequest> requests;
  net::Address reply_to;
  std::uint64_t request_id = 0;

  PHOENIX_MESSAGE_TYPE("pws.submit_batch")
  std::size_t wire_size() const noexcept override {
    std::size_t n = 24;
    for (const auto& r : requests) {
      n += r.name.size() + r.user.size() + r.pool.size() + r.arch.size() + 40;
    }
    return n;
  }
};

/// Per-request verdict, in request order. job_id is 0 unless accepted.
struct BatchSubmitResult {
  JobId job_id = 0;
  SubmitStatus status = SubmitStatus::kAccepted;
};

struct PwsSubmitBatchReplyMsg final : net::Message {
  std::uint64_t request_id = 0;
  std::vector<BatchSubmitResult> results;

  PHOENIX_MESSAGE_TYPE("pws.submit_batch_reply")
  std::size_t wire_size() const noexcept override {
    return 16 + results.size() * 12;
  }
};

/// Batched cancellation, deduplicated like PwsSubmitBatchMsg.
struct PwsCancelBatchMsg final : net::Message {
  std::vector<JobId> job_ids;
  net::Address reply_to;
  std::uint64_t request_id = 0;

  PHOENIX_MESSAGE_TYPE("pws.cancel_batch")
  std::size_t wire_size() const noexcept override {
    return 24 + job_ids.size() * 8;
  }
};

struct PwsCancelBatchReplyMsg final : net::Message {
  std::uint64_t request_id = 0;
  std::vector<std::uint8_t> cancelled;  // per job id, in request order

  PHOENIX_MESSAGE_TYPE("pws.cancel_batch_reply")
  std::size_t wire_size() const noexcept override {
    return 16 + cancelled.size();
  }
};

/// qstat-style query: all jobs, one user's jobs, or a single job id.
struct PwsQueryMsg final : net::Message {
  std::string user;   // non-empty: restrict to this user
  JobId job_id = 0;   // non-zero: this job only
  net::Address reply_to;
  std::uint64_t request_id = 0;

  PHOENIX_MESSAGE_TYPE("pws.query")
  std::size_t wire_size() const noexcept override { return user.size() + 24; }
};

struct PwsQueryReplyMsg final : net::Message {
  std::uint64_t request_id = 0;
  std::vector<Job> jobs;

  PHOENIX_MESSAGE_TYPE("pws.query_reply")
  std::size_t wire_size() const noexcept override {
    std::size_t n = 16;
    for (const auto& j : jobs) n += j.name.size() + j.user.size() + 64;
    return n;
  }
};

/// qdel-style cancellation.
struct PwsCancelMsg final : net::Message {
  JobId job_id = 0;
  net::Address reply_to;
  std::uint64_t request_id = 0;

  PHOENIX_MESSAGE_TYPE("pws.cancel")
  std::size_t wire_size() const noexcept override { return 24; }
};

struct PwsCancelReplyMsg final : net::Message {
  std::uint64_t request_id = 0;
  bool cancelled = false;

  PHOENIX_MESSAGE_TYPE("pws.cancel_reply")
  std::size_t wire_size() const noexcept override { return 9; }
};

struct PwsStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t requeued = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t leases_granted = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t admission_denied = 0;  // token-bucket rejections
  std::uint64_t batches = 0;           // submit batches executed (not replays)
  double total_wait_seconds = 0.0;  // queued -> started, over completed jobs
};

struct PwsConfig {
  std::vector<PoolConfig> pools;
  sim::SimTime schedule_tick = 1 * sim::kSecond;
  unsigned max_requeues = 2;
  bool use_security = false;  // route submissions through the security service

  // --- batch-native submission path (DESIGN.md §13) -------------------------

  /// Checkpoint coalescing window for the batched path. 0 (default) keeps
  /// the historical save-per-change wire behaviour. >0 bounds checkpoint
  /// traffic to one leading save plus one trailing flush per window —
  /// bounded-staleness durability: a crash loses at most this much recent
  /// state, which the gateway's batch retries re-cover. A non-zero window
  /// also coalesces the completion-prompted scheduling passes (one pending
  /// pass at a time instead of one per finished job).
  sim::SimTime checkpoint_interval = 0;

  /// When false, terminal jobs are retired from the job table once their
  /// accounting is done: memory and checkpoint size stay bounded by the
  /// *live* job count, which is what lets a 100k-user flash crowd run in
  /// one scheduler. Queries no longer see finished jobs, and an after_ok
  /// dependency on an already-retired job cancels the dependent.
  bool retain_terminal_jobs = true;

  /// Admission control: sustained jobs/s a single tenant may submit
  /// (token-bucket refill rate). 0 disables admission control entirely.
  double admission_rate = 0.0;
  /// Token-bucket capacity: burst a tenant may submit instantly.
  double admission_burst = 16.0;

  /// Batch ingest schedules a (coalesced) scheduling pass this soon instead
  /// of waiting for the periodic tick — batched submissions would otherwise
  /// pay up to a full schedule_tick of latency.
  sim::SimTime batch_pass_delay = 1 * sim::kMillisecond;
};

class PwsScheduler final : public kernel::ServiceRuntime {
 public:
  PwsScheduler(cluster::Cluster& cluster, net::NodeId node,
               kernel::PhoenixKernel& kernel, PwsConfig config);
  ~PwsScheduler() override;

  // --- submission -------------------------------------------------------------

  /// Trusted local submission (bypasses the security round-trip).
  JobId submit(const SubmitRequest& request);

  /// As submit(), with the typed verdict (admission control, unknown pool).
  BatchSubmitResult submit_with_status(const SubmitRequest& request);

  /// Cancels a queued job; running jobs are killed on every node.
  bool cancel(JobId id);

  // --- introspection ------------------------------------------------------------

  const Job* job(JobId id) const;
  const std::map<JobId, Job>& jobs() const noexcept { return jobs_; }
  const PwsStats& stats() const noexcept { return stats_; }
  const Pool* pool(const std::string& name) const;
  std::size_t queued_count() const noexcept { return queued_jobs_; }
  std::size_t running_count() const noexcept { return running_jobs_; }

  /// Pool a node's capacity currently serves (leases change this).
  std::string effective_pool(net::NodeId node) const;
  bool is_leased(net::NodeId node) const;

  /// Per-user consumed node-seconds (fair-share input). Materialized from
  /// the interned-id table on demand — introspection, not a hot path.
  std::map<std::string, double> user_usage() const;

  /// Forces a scheduling pass now (tests).
  void schedule_now() { schedule_pass(); }

 private:
  struct NodeSlot {
    std::int32_t owner_pool = -1;
    std::int32_t leased_to = -1;  // -1: serving its owner
    JobId running_job = 0;
    bool node_alive = true;
  };

  void on_service_start() override;
  void on_service_stop() override;
  std::string snapshot() const override;

  // submission internals
  BatchSubmitResult submit_internal(const SubmitRequest& request,
                                    bool checkpoint_each);
  /// A fresh job (next id) carrying every field of `request`.
  Job new_job(const SubmitRequest& request, net::SymbolId user_sym,
              JobState state);
  /// Queues an accepted job in its pool and gates it on its after_ok
  /// dependency.
  void enqueue_accepted(Job& job, std::size_t pool_index);
  bool admit_tenant(net::SymbolId user);
  void on_submit(const PwsSubmitMsg& submit);
  void on_authz_reply(const kernel::AuthzReplyMsg& authz);
  void on_node_event(const kernel::Event& e);
  void on_recovery_load(const kernel::CheckpointLoadReplyMsg& load);
  void on_reconcile_reply(const kernel::DbQueryReplyMsg& reply);

  // incremental scheduling
  void schedule_pass();
  void scan_pool(std::size_t pool_index);
  void mark_pool_dirty(std::size_t pool_index);
  void request_pass_soon();
  std::vector<net::NodeId> free_nodes_of(std::size_t pool_index,
                                         const std::string& arch) const;
  std::size_t borrow_nodes(std::size_t borrower, std::size_t deficit);
  void start_job(Job& job, std::vector<net::NodeId> nodes, Pool& pool);
  void launch(Job& job);
  void complete_process(cluster::Pid pid, net::NodeId node);
  void finish_job(Job& job, JobState final_state);
  void handle_node_failed(net::NodeId node);
  void requeue_or_fail(Job& job);
  void enforce_walltime();
  sim::SimTime shadow_time(const Job& head, std::size_t pool_index) const;

  // bookkeeping helpers
  std::size_t pool_index_of(net::SymbolId sym) const;  // npos when unknown
  std::int32_t effective_pool_index(const NodeSlot& slot) const noexcept {
    return slot.leased_to >= 0 ? slot.leased_to : slot.owner_pool;
  }
  double usage_of_sym(net::SymbolId user) const;
  /// Frees a slot back to its owner pool and marks the pools this capacity
  /// could now serve (owner; every borrowing pool when the owner could lend).
  void free_slot(std::uint32_t node_value, NodeSlot& slot);
  void capacity_freed(std::size_t owner_index);
  /// Called when a pool's pending index emptied: idle capacity of a lender
  /// becomes borrowable, so wake every borrowing pool with pending work.
  void pool_drained(std::size_t pool_index);
  void wake_dependents(JobId id);
  void retire_if_unretained(JobId id);

  // state persistence
  void checkpoint_state();
  void recover_state();
  void rebuild_after_restore();
  void reconcile_with_bulletin();
  void subscribe_events();

  kernel::PhoenixKernel& kernel_;
  PwsConfig config_;

  std::vector<Pool> pools_;  // name order, matching the historical std::map
  std::unordered_map<std::uint32_t, std::size_t> pool_index_;  // SymbolId ->
  std::map<std::uint32_t, NodeSlot> slots_;

  std::map<JobId, Job> jobs_;
  std::set<JobId> running_ids_;  // ordered: shadow_time scans deterministically
  std::unordered_map<std::uint32_t, double> usage_;  // user SymbolId ->
  PwsStats stats_;
  JobId next_job_id_ = 1;
  std::uint64_t next_request_id_ = 1;
  std::size_t queued_jobs_ = 0;
  std::size_t running_jobs_ = 0;

  // incremental-pass state
  std::vector<std::uint8_t> pool_dirty_;
  bool pass_pending_ = false;
  /// after_ok waiters: dependency job id -> jobs gated on it. A completing
  /// (or dying) dependency wakes only its dependents' pools.
  std::unordered_map<JobId, std::vector<JobId>> dependents_;
  /// Walltime expiry min-heap (expiry, job id); lazily invalidated — a
  /// requeued job pushes a fresh entry on its next launch, stale ones are
  /// discarded at pop. The periodic sweep is O(expired), not O(jobs).
  std::priority_queue<std::pair<sim::SimTime, JobId>,
                      std::vector<std::pair<sim::SimTime, JobId>>,
                      std::greater<>>
      expiry_;

  // admission control (per-tenant token buckets)
  struct TokenBucket {
    double tokens = 0.0;
    sim::SimTime last_refill = 0;
  };
  std::unordered_map<std::uint32_t, TokenBucket> buckets_;

  /// Incremental serialize_jobs(jobs_), a cache behind snapshot(). A
  /// terminal job changes in one place only, which invalidates its line: a
  /// late SpawnReply records a pid for a job that ended while spawning.
  mutable JobTableImage checkpoint_image_;

  // observability (cluster registry; recording gated on enabled())
  obs::Registry* metrics_ = nullptr;
  obs::Histogram* schedule_latency_us_ = nullptr;
  obs::Histogram* batch_size_hist_ = nullptr;
  obs::Counter* submitted_ctr_ = nullptr;
  obs::Counter* admission_denied_ctr_ = nullptr;
  obs::Counter* batches_ctr_ = nullptr;
  obs::Counter* cancelled_ctr_ = nullptr;
  std::uint64_t probe_id_ = 0;

  // In-flight request correlation.
  struct PendingAuthz {
    JobId job;
    net::Address reply_to;
    std::uint64_t caller_request_id = 0;
  };
  std::map<std::uint64_t, PendingAuthz> pending_authz_;
  struct PendingSpawn {
    JobId job;
    net::NodeId node;
  };
  std::map<std::uint64_t, PendingSpawn> pending_spawns_;
  std::map<cluster::Pid, JobId> pid_to_job_;

  sim::PeriodicTask ticker_;
  bool started_before_ = false;
  std::uint64_t recovery_load_id_ = 0;
  std::uint64_t reconcile_query_id_ = 0;
};

}  // namespace phoenix::pws
